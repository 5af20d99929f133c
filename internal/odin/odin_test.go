package odin

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"videodrift/internal/classifier"
	"videodrift/internal/vidsim"
	"videodrift/internal/vision"
)

const (
	testW = 16
	testH = 16
)

func lightTraffic(c vidsim.Condition) vidsim.Condition {
	c.CarRate = 3.5
	c.BusRate = 0
	return c
}

func testLabeler(f vidsim.Frame) int {
	c := f.CountClass(vidsim.Car)
	if c >= 6 {
		c = 5
	}
	return c
}

// truthOracle is testLabeler for the frames the Specialize buffer keeps,
// which carry position and pixels only (vidsim.Frame.Keep): it recognises
// each frame of the given streams by its pixels and answers with the label
// its ground truth gives. A frame still carrying its labels — a bootstrap
// clip — it answers from them. A frame it cannot answer fails the test.
func truthOracle(t testing.TB, streams ...[]vidsim.Frame) Labeler {
	labels := map[string]int{}
	for _, s := range streams {
		for _, f := range s {
			labels[pixelKey(f.Pixels)] = testLabeler(f)
		}
	}
	return func(f vidsim.Frame) int {
		if f.Condition != "" {
			return testLabeler(f)
		}
		l, ok := labels[pixelKey(f.Pixels)]
		if !ok {
			t.Errorf("labeler asked for frame %d, which no stream of the test holds", f.Index)
		}
		return l
	}
}

// pixelKey is a frame's pixels, bit for bit, as a map key.
func pixelKey(px []float64) string {
	b := make([]byte, 0, 8*len(px))
	for _, v := range px {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return string(b)
}

func testClfConfig() classifier.Config {
	return classifier.Config{InputDim: vision.QueryDim, HiddenDim: 24, NumClasses: 6, LR: 5e-3, Epochs: 10}
}

func trainFrames(cond vidsim.Condition, n int, seed int64) []vidsim.Frame {
	return vidsim.GenerateTraining(cond, testW, testH, n, seed)
}

func liveFrames(cond vidsim.Condition, n int, seed int64) []vidsim.Frame {
	return vidsim.GenerateTrainingStride(cond, testW, testH, n, 1, seed)
}

func TestDetectorAssignsInDistribution(t *testing.T) {
	d := NewDetector(DefaultConfig(), testW, testH)
	day := lightTraffic(vidsim.Day())
	d.Bootstrap(trainFrames(day, 150, 1))
	unassigned := 0
	for _, f := range liveFrames(day, 200, 2) {
		res := d.Observe(f)
		if res.Drift {
			t.Fatal("false drift on in-distribution frames")
		}
		if len(res.Assigned) == 0 {
			unassigned++
		}
	}
	if unassigned > 20 {
		t.Errorf("%d/200 in-distribution frames unassigned", unassigned)
	}
}

func TestDetectorPromotesNovelDistribution(t *testing.T) {
	d := NewDetector(DefaultConfig(), testW, testH)
	d.Bootstrap(trainFrames(lightTraffic(vidsim.Day()), 150, 3))
	lag := -1
	for i, f := range liveFrames(lightTraffic(vidsim.Night()), 400, 4) {
		if d.Observe(f).Drift {
			lag = i + 1
			break
		}
	}
	if lag < 0 {
		t.Fatal("ODIN-Detect never promoted the novel cluster")
	}
	if lag < DefaultConfig().MinTempSize {
		t.Errorf("promotion after only %d frames", lag)
	}
	if len(d.Clusters()) != 2 {
		t.Errorf("clusters = %d, want 2", len(d.Clusters()))
	}
}

func TestClusterBandEnclosesDelta(t *testing.T) {
	d := NewDetector(DefaultConfig(), testW, testH)
	day := lightTraffic(vidsim.Day())
	d.Bootstrap(trainFrames(day, 200, 5))
	c := d.Clusters()[0]
	lower, upper := c.band(0.5)
	if lower >= upper {
		t.Fatalf("band [%v, %v] degenerate", lower, upper)
	}
	inside := 0
	for _, dist := range c.dists {
		if dist >= lower && dist <= upper {
			inside++
		}
	}
	frac := float64(inside) / float64(len(c.dists))
	if frac < 0.4 || frac > 0.65 {
		t.Errorf("band encloses %.2f of members, want ~0.5", frac)
	}
}

func TestDetectorValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid Delta did not panic")
		}
	}()
	NewDetector(Config{Delta: 0}, 8, 8)
}

func TestSystemServesAndSpecializes(t *testing.T) {
	day := lightTraffic(vidsim.Day())
	night := lightTraffic(vidsim.Night())
	live, snow := liveFrames(day, 150, 10), liveFrames(lightTraffic(vidsim.SnowCond()), 500, 11)
	s := NewSystem(DefaultConfig(), testW, testH, vision.QueryFeatures, truthOracle(t, live, snow), testClfConfig(), 7)
	s.Bootstrap(trainFrames(day, 150, 8))
	s.Bootstrap(trainFrames(night, 150, 9))

	for _, f := range live {
		out := s.Process(f)
		if out.Invocations < 1 {
			t.Fatal("frame processed with no model invocation")
		}
		if out.Drift {
			t.Fatal("false drift on provisioned day condition")
		}
	}

	// A novel condition must eventually promote and specialize.
	specialized := false
	for _, f := range snow {
		out := s.Process(f)
		if out.Specialized {
			specialized = true
			break
		}
	}
	if !specialized {
		t.Fatal("ODIN never specialized on the novel condition")
	}
	m := s.Metrics()
	if m.DriftsDetected < 1 || m.ModelsTrained < 1 {
		t.Errorf("metrics = %+v", m)
	}
	if m.ModelInvocations < m.Frames {
		t.Errorf("invocations %d < frames %d", m.ModelInvocations, m.Frames)
	}
}

func TestSystemEnsembleOnOverlappingClusters(t *testing.T) {
	day := lightTraffic(vidsim.Day())
	s := NewSystem(DefaultConfig(), testW, testH, vision.QueryFeatures, testLabeler, testClfConfig(), 12)
	// Two clusters bootstrapped from the same condition have overlapping
	// bands, so frames should regularly land in both — the ensemble path
	// the paper's Figure 6 counts.
	s.Bootstrap(trainFrames(day, 120, 13))
	s.Bootstrap(trainFrames(day, 120, 14))
	multi := 0
	for _, f := range liveFrames(day, 100, 15) {
		if s.Process(f).Invocations > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Error("overlapping clusters never produced an ensemble")
	}
	if s.Metrics().EnsembleFrames != multi {
		t.Errorf("EnsembleFrames = %d, want %d", s.Metrics().EnsembleFrames, multi)
	}
}

func TestSystemValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil labeler did not panic")
		}
	}()
	NewSystem(DefaultConfig(), 8, 8, vision.QueryFeatures, nil, testClfConfig(), 1)
}

func TestSystemPredictionQuality(t *testing.T) {
	day := lightTraffic(vidsim.Day())
	s := NewSystem(DefaultConfig(), testW, testH, vision.QueryFeatures, testLabeler, testClfConfig(), 16)
	s.Bootstrap(trainFrames(day, 200, 17))
	correct, total := 0, 0
	for _, f := range liveFrames(day, 150, 18) {
		out := s.Process(f)
		if out.Prediction == testLabeler(f) {
			correct++
		}
		total++
	}
	acc := float64(correct) / float64(total)
	if acc < 0.35 {
		t.Errorf("in-distribution ODIN accuracy = %v, suspiciously low", acc)
	}
}

// TestSystemKeepsBorrowedFrames: Process borrows its frame — the caller
// may reuse the pixels once it returns — so the Specialize buffer keeps a
// copy. A system fed every frame through one buffer, overwritten after
// each call, answers and specialises exactly as one fed untouched frames.
func TestSystemKeepsBorrowedFrames(t *testing.T) {
	day := lightTraffic(vidsim.Day())
	snow := liveFrames(lightTraffic(vidsim.SnowCond()), 500, 11)
	build := func() *System {
		s := NewSystem(DefaultConfig(), testW, testH, vision.QueryFeatures, truthOracle(t, snow), testClfConfig(), 7)
		s.Bootstrap(trainFrames(day, 150, 8))
		return s
	}
	fresh, lent := build(), build()
	buf := vidsim.Frame{W: testW, H: testH, Pixels: make([]float64, testW*testH)}
	specialized := false
	for _, f := range snow {
		want := fresh.Process(f)
		buf.Index = f.Index
		copy(buf.Pixels, f.Pixels)
		if got := lent.Process(buf); got != want {
			t.Fatalf("frame %d: lent %+v, untouched %+v", f.Index, got, want)
		}
		for i := range buf.Pixels {
			buf.Pixels[i] = -1 // the caller's next use of its buffer
		}
		if specialized = want.Specialized; specialized {
			break
		}
	}
	if !specialized {
		t.Fatal("ODIN never specialised: the comparison exercised nothing")
	}
	for id, m := range fresh.models {
		want, _ := m.MarshalBinary()
		got, _ := lent.models[id].MarshalBinary()
		if !bytes.Equal(got, want) {
			t.Errorf("cluster %d: the model specialised on lent frames differs from the untouched feed's", id)
		}
	}
}
