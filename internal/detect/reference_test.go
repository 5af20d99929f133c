package detect

import (
	"encoding/binary"
	"math"
	"sync"
	"testing"

	"videodrift/internal/dataset"
	"videodrift/internal/stats"
	"videodrift/internal/vidsim"
)

// detectReference is Detect without the integral-image bound: every
// template window goes through windowStats and the contrast test, as the
// detector did before the bound existed. Detect must return exactly what
// it returns.
func (d *SlidingWindowDetector) detectReference(f vidsim.Frame) []Detection {
	bg, sigma := backgroundEstimate(f)
	tau := math.Max(d.cfg.ScoreFloor, d.cfg.NoiseMult*sigma)

	var cands []Detection
	for _, t := range d.templates {
		for _, s := range d.cfg.Scales {
			w := int(math.Round(float64(t.w) * s))
			h := int(math.Round(float64(t.h) * s))
			if w < 2 || h < 2 || w >= f.W-2 || h >= f.H-2 {
				continue
			}
			areaW := math.Sqrt(float64(w * h))
			for y := 1; y+h < f.H-1; y += d.cfg.Stride {
				for x := 1; x+w < f.W-1; x += d.cfg.Stride {
					mean, std := windowStats(f, x, y, w, h)
					contrast := math.Abs(mean-bg) - 1.5*std
					if contrast > tau {
						cands = append(cands, Detection{
							Class: t.class,
							X:     float64(x) + float64(w)/2,
							Y:     float64(y) + float64(h)/2,
							W:     float64(w), H: float64(h),
							Score: contrast * areaW,
						})
					}
				}
			}
		}
	}
	return d.finish(f, cands)
}

// sameDetections reports whether a and b are equal bit for bit: the
// length, nil-ness and every field's bits (so a NaN coordinate matches
// the same NaN, and 0 does not match −0).
func sameDetections(a, b []Detection) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for i := range a {
		p, q := a[i], b[i]
		if p.Class != q.Class || !same(p.X, q.X) || !same(p.Y, q.Y) ||
			!same(p.W, q.W) || !same(p.H, q.H) || !same(p.Score, q.Score) {
			return false
		}
	}
	return true
}

func detectors() []*SlidingWindowDetector {
	return []*SlidingWindowDetector{NewMaskRCNNSim(), NewYOLOSim()}
}

// checkMatches fails t for every frame on which a detector's Detect
// differs from its detectReference.
func checkMatches(t *testing.T, frames []vidsim.Frame) {
	t.Helper()
	for _, d := range detectors() {
		bad := 0
		for i, f := range frames {
			got, want := d.Detect(f), d.detectReference(f)
			if !sameDetections(got, want) {
				if bad++; bad <= 3 {
					t.Errorf("%s, frame %d: Detect = %+v, reference = %+v", d.Name(), i, got, want)
				}
			}
		}
		if bad > 3 {
			t.Errorf("%s: %d of %d frames differ", d.Name(), bad, len(frames))
		}
	}
}

// quantised returns copies of frames with every pixel rounded to float32,
// as the wire delivers them.
func quantised(frames []vidsim.Frame) []vidsim.Frame {
	out := make([]vidsim.Frame, len(frames))
	for i, f := range frames {
		out[i] = f.Clone()
		for j, p := range out[i].Pixels {
			out[i].Pixels[j] = float64(float32(p))
		}
	}
	return out
}

// mapped returns a copy of f with every pixel replaced by fn(pixel index).
func mapped(f vidsim.Frame, fn func(i int, p float64) float64) vidsim.Frame {
	f = f.Clone()
	for i, p := range f.Pixels {
		f.Pixels[i] = fn(i, p)
	}
	return f
}

// edgeFrames are the frames on which a bound is easiest to get wrong.
func edgeFrames() map[string]vidsim.Frame {
	scene := vidsim.NewSceneGenerator(vidsim.Night(), 32, 32, stats.NewRNG(21)).Next()
	set := func(i int, v float64) vidsim.Frame {
		return mapped(scene, func(j int, p float64) float64 {
			if j == i {
				return v
			}
			return p
		})
	}
	rng := stats.NewRNG(22)
	return map[string]vidsim.Frame{
		// σ = 0, so tau is the score floor; no window can pass.
		"uniform": syntheticFrame(32, 32, 0.5, nil),
		// One non-finite pixel, inside or on the border: the slack is not
		// finite, so every window takes the exact path.
		"nan":      set(9*32+12, math.NaN()),
		"+inf":     set(20*32+7, math.Inf(1)),
		"-inf":     set(3*32+28, math.Inf(-1)),
		"nan-top":  set(0, math.NaN()),
		"negative": mapped(scene, func(_ int, p float64) float64 { return -p }),
		// One-pixel cells: every window's mean sits half a step from the
		// background, and only its spread rules it out.
		"checkerboard": mapped(scene, func(i int, _ float64) float64 {
			return float64((i/32 + i%32) % 2)
		}),
		// The background sample reads every seventh pixel, and this
		// lattice puts exactly those at 0: tau is the floor, and nearly
		// every window passes, so the candidate cap and NMS see thousands
		// of tied scores.
		"lattice": mapped(scene, func(i int, _ float64) float64 {
			if i%7 == 0 {
				return 0
			}
			return 1
		}),
		// No template fits; the tables are never built.
		"tiny": {W: 5, H: 4, Pixels: rng.UniformVec(20, 0, 1)},
	}
}

// trainingFrames returns at least 300 of ds's training frames, an equal
// share from each sequence.
func trainingFrames(ds *dataset.Dataset) []vidsim.Frame {
	var frames []vidsim.Frame
	per := (300 + len(ds.Sequences) - 1) / len(ds.Sequences)
	for seq := range ds.Sequences {
		frames = append(frames, ds.TrainingFrames(seq, per)...)
	}
	return frames
}

func TestDetectMatchesReference(t *testing.T) {
	for _, ds := range []*dataset.Dataset{dataset.BDD(0.02), dataset.Detrac(0.02), dataset.Tokyo(0.02)} {
		frames := trainingFrames(ds)
		t.Run(ds.Name, func(t *testing.T) { checkMatches(t, frames) })
		t.Run(ds.Name+"/float32", func(t *testing.T) { checkMatches(t, quantised(frames)) })
	}
	// Pixels near 10⁶: windowStats' variance is mostly cancellation
	// there, and a slack that does not grow with the frame's mass (a
	// fixed 10⁻⁹, say) skips windows that pass.
	bdd := trainingFrames(dataset.BDD(0.02))
	for name, fn := range map[string]func(float64) float64{
		"offset-1e6": func(p float64) float64 { return 1e6 + p },
		"scaled-1e6": func(p float64) float64 { return 1e6 * p },
	} {
		moved := make([]vidsim.Frame, len(bdd))
		for i, f := range bdd {
			moved[i] = mapped(f, func(_ int, p float64) float64 { return fn(p) })
		}
		t.Run("BDD/"+name, func(t *testing.T) { checkMatches(t, moved) })
	}
	for name, f := range edgeFrames() {
		t.Run("edge/"+name, func(t *testing.T) { checkMatches(t, []vidsim.Frame{f}) })
	}
}

// TestDetectSharedAcrossGoroutines runs one detector from several
// goroutines at once, as set-up's fan-out does with its one annotator:
// each call builds its own tables, so no call sees another's.
func TestDetectSharedAcrossGoroutines(t *testing.T) {
	ds := dataset.BDD(0.02)
	frames := quantised(ds.TrainingFrames(0, 40))
	for _, d := range detectors() {
		want := make([][]Detection, len(frames))
		for i, f := range frames {
			want[i] = d.detectReference(f)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := range frames {
					i := (k + g*len(frames)/4) % len(frames)
					if got := d.Detect(frames[i]); !sameDetections(got, want[i]) {
						t.Errorf("%s, goroutine %d, frame %d: %+v, want %+v", d.Name(), g, i, got, want[i])
					}
				}
			}()
		}
		wg.Wait()
	}
}

// FuzzDetect lets the fuzzer choose the frame: W and H up to 40, and
// pixels either as raw float64 bits (when data holds a whole frame of
// them) or as scale·byte/255, so both arbitrary bit patterns and
// image-like frames at any magnitude are reached.
func FuzzDetect(f *testing.F) {
	scene := vidsim.NewSceneGenerator(vidsim.Day(), 32, 32, stats.NewRNG(23)).Next()
	img := make([]byte, len(scene.Pixels))
	raw := make([]byte, 8*len(scene.Pixels))
	for i, p := range scene.Pixels {
		img[i] = byte(p * 255)
		binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(p))
	}
	f.Add(uint8(32), uint8(32), 1.0, img)
	f.Add(uint8(32), uint8(32), 1.0, raw)
	f.Add(uint8(40), uint8(17), 1e6, img)
	f.Add(uint8(9), uint8(7), math.Inf(1), img[:10])
	f.Add(uint8(6), uint8(5), 0.5, []byte{0, 255})
	f.Fuzz(func(t *testing.T, w, h uint8, scale float64, data []byte) {
		W, H := int(w%41), int(h%41)
		n := W * H
		px := make([]float64, n)
		switch {
		case len(data) >= 8*n:
			for i := range px {
				px[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
			}
		case len(data) > 0:
			for i := range px {
				px[i] = scale * float64(data[i%len(data)]) / 255
			}
		}
		fr := vidsim.Frame{W: W, H: H, Pixels: px}
		for _, d := range detectors() {
			if got, want := d.Detect(fr), d.detectReference(fr); !sameDetections(got, want) {
				t.Fatalf("%s on %d×%d: Detect = %+v, reference = %+v", d.Name(), W, H, got, want)
			}
		}
	})
}
