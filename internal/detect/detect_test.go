package detect

import (
	"math"
	"testing"

	"videodrift/internal/stats"
	"videodrift/internal/tensor"
	"videodrift/internal/vidsim"
)

// syntheticFrame renders a clean frame with the given objects on a uniform
// background (no generator noise) for precise detector checks.
func syntheticFrame(w, h int, bg float64, objs []vidsim.Object) vidsim.Frame {
	px := make(tensor.Vector, w*h)
	px.Fill(bg)
	f := vidsim.Frame{W: w, H: h, Pixels: px, Truth: objs}
	for _, o := range objs {
		x0, y0 := int(math.Round(o.Left())), int(math.Round(o.Top()))
		for y := y0; y < y0+int(math.Round(o.H)); y++ {
			for x := x0; x < x0+int(math.Round(o.W)); x++ {
				if x >= 0 && x < w && y >= 0 && y < h {
					px[y*w+x] = o.Intensity
				}
			}
		}
	}
	return f
}

func TestOracleFindsIsolatedObjects(t *testing.T) {
	objs := []vidsim.Object{
		{Class: vidsim.Car, X: 8, Y: 8, W: 5, H: 3, Intensity: 0.2},
		{Class: vidsim.Bus, X: 22, Y: 20, W: 8, H: 4, Intensity: 0.15},
	}
	f := syntheticFrame(32, 32, 0.75, objs)
	dets := NewMaskRCNNSim().Detect(f)
	if len(dets) != 2 {
		t.Fatalf("got %d detections, want 2: %+v", len(dets), dets)
	}
	for _, o := range objs {
		found := false
		for _, d := range dets {
			if math.Abs(d.X-o.X) < 2.5 && math.Abs(d.Y-o.Y) < 2.5 {
				found = true
				if d.Class != o.Class {
					t.Errorf("object at (%v,%v) classified as %v, want %v", o.X, o.Y, d.Class, o.Class)
				}
			}
		}
		if !found {
			t.Errorf("object at (%v,%v) not detected", o.X, o.Y)
		}
	}
}

func TestOracleEmptyFrame(t *testing.T) {
	f := syntheticFrame(32, 32, 0.5, nil)
	if dets := NewMaskRCNNSim().Detect(f); len(dets) != 0 {
		t.Errorf("empty frame produced %d detections", len(dets))
	}
}

func TestOracleRobustToNoise(t *testing.T) {
	rng := stats.NewRNG(1)
	objs := []vidsim.Object{{Class: vidsim.Car, X: 16, Y: 16, W: 5, H: 3, Intensity: 0.2}}
	f := syntheticFrame(32, 32, 0.75, objs)
	for i := range f.Pixels {
		f.Pixels[i] = math.Min(math.Max(f.Pixels[i]+rng.Normal(0, 0.04), 0), 1)
	}
	dets := NewMaskRCNNSim().Detect(f)
	if CountClass(dets, vidsim.Car) != 1 {
		t.Errorf("noisy frame: got %+v", dets)
	}
}

func TestOracleOnGeneratedScenes(t *testing.T) {
	// Count accuracy on real generator output across conditions: the dense
	// detector should land close to the ground-truth count on average.
	for _, cond := range []vidsim.Condition{vidsim.Day(), vidsim.Night()} {
		g := vidsim.NewSceneGenerator(cond, 32, 32, stats.NewRNG(2))
		det := NewMaskRCNNSim()
		truthTotal, detTotal := 0, 0
		for i := 0; i < 30; i++ {
			f := g.Next()
			truthTotal += len(f.Truth)
			detTotal += len(det.Detect(f))
		}
		ratio := float64(detTotal) / math.Max(float64(truthTotal), 1)
		if ratio < 0.5 || ratio > 1.5 {
			t.Errorf("%s: detected %d of %d objects (ratio %v)", cond.Name, detTotal, truthTotal, ratio)
		}
	}
}

// detectionF1 greedily matches detections to ground-truth objects by
// center distance (within 2.5px) and returns the F1 score.
func detectionF1(det Detector, frames []vidsim.Frame) float64 {
	tp, fp, fn := 0, 0, 0
	for _, f := range frames {
		dets := det.Detect(f)
		used := make([]bool, len(f.Truth))
		for _, d := range dets {
			matched := false
			for i, o := range f.Truth {
				if !used[i] && math.Abs(d.X-o.X) <= 2.5 && math.Abs(d.Y-o.Y) <= 2.5 {
					used[i] = true
					matched = true
					break
				}
			}
			if matched {
				tp++
			} else {
				fp++
			}
		}
		for _, u := range used {
			if !u {
				fn++
			}
		}
	}
	if tp == 0 {
		return 0
	}
	prec := float64(tp) / float64(tp+fp)
	rec := float64(tp) / float64(tp+fn)
	return 2 * prec * rec / (prec + rec)
}

func TestYOLOLessAccurateThanOracle(t *testing.T) {
	g := vidsim.NewSceneGenerator(vidsim.Night(), 32, 32, stats.NewRNG(3))
	frames := make([]vidsim.Frame, 40)
	for i := range frames {
		frames[i] = g.Next()
	}
	oracleF1 := detectionF1(NewMaskRCNNSim(), frames)
	yoloF1 := detectionF1(NewYOLOSim(), frames)
	if yoloF1 >= oracleF1 {
		t.Errorf("yolo F1 %v >= oracle F1 %v — coarse detector should be worse", yoloF1, oracleF1)
	}
	if oracleF1 < 0.5 {
		t.Errorf("oracle F1 = %v, too weak to serve as annotator", oracleF1)
	}
}

func TestDetectorNames(t *testing.T) {
	if NewMaskRCNNSim().Name() != "maskrcnn-sim" || NewYOLOSim().Name() != "yolo-sim" {
		t.Error("detector names wrong")
	}
}

func TestNMSSuppressesDuplicates(t *testing.T) {
	cands := []Detection{
		{X: 10, Y: 10, W: 4, H: 4, Score: 0.9},
		{X: 10.5, Y: 10, W: 4, H: 4, Score: 0.8}, // near-duplicate
		{X: 20, Y: 20, W: 4, H: 4, Score: 0.7},
	}
	kept := nms(cands, 0.3)
	if len(kept) != 2 {
		t.Fatalf("nms kept %d, want 2: %+v", len(kept), kept)
	}
	if kept[0].Score != 0.9 || kept[1].Score != 0.7 {
		t.Errorf("nms kept wrong candidates: %+v", kept)
	}
}

func TestCountClass(t *testing.T) {
	dets := []Detection{
		{Class: vidsim.Car}, {Class: vidsim.Bus}, {Class: vidsim.Car},
	}
	if CountClass(dets, vidsim.Car) != 2 || CountClass(dets, vidsim.Bus) != 1 {
		t.Error("CountClass wrong")
	}
	if CountClass(nil, vidsim.Car) != 0 {
		t.Error("CountClass(nil) != 0")
	}
}

func TestMedian(t *testing.T) {
	if median([]float64{3, 1, 2}) != 2 {
		t.Error("odd median wrong")
	}
	if median([]float64{1, 2, 3, 4}) != 2.5 {
		t.Error("even median wrong")
	}
	if median(nil) != 0 {
		t.Error("empty median != 0")
	}
}

// BenchmarkDetectors documents the relative per-frame cost of the two
// detectors — the basis of Table 9's detector rows.
func BenchmarkDetectors(b *testing.B) {
	g := vidsim.NewSceneGenerator(vidsim.Day(), 32, 32, stats.NewRNG(4))
	f := g.Next()
	b.Run("maskrcnn-sim", func(b *testing.B) {
		det := NewMaskRCNNSim()
		for i := 0; i < b.N; i++ {
			det.Detect(f)
		}
	})
	b.Run("yolo-sim", func(b *testing.B) {
		det := NewYOLOSim()
		for i := 0; i < b.N; i++ {
			det.Detect(f)
		}
	})
}
