package videodrift

import (
	"encoding/binary"
	"math"
	"testing"

	"videodrift/internal/vidsim"
)

const (
	facadeDim     = 16 * 16
	facadeClasses = 8
)

func facadeLabeler(f Frame) int {
	c := f.CountClass(vidsim.Car)
	if c >= facadeClasses {
		c = facadeClasses - 1
	}
	return c
}

// truthOracle is facadeLabeler for the frames a monitor keeps, which
// carry position and pixels only (vidsim.Frame.Keep): it recognises each
// frame of the given streams by its pixels and answers with the label its
// ground truth gives (pixelLabeler).
func truthOracle(t testing.TB, streams ...[]Frame) Labeler {
	labels := map[string]int{}
	for _, s := range streams {
		for _, f := range s {
			labels[pixelKey(f.Pixels)] = facadeLabeler(f)
		}
	}
	return pixelLabeler(t, labels)
}

// pixelLabeler answers a kept frame from labels, by its pixels, and a
// frame that still carries its ground truth — a provisioning clip — from
// that. A kept frame labels does not hold fails the test: labelled 0, it
// would turn a selection window or a training set into noise unseen.
func pixelLabeler(t testing.TB, labels map[string]int) Labeler {
	return func(f Frame) int {
		if f.Condition != "" {
			return facadeLabeler(f)
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

func facadeCond(base Condition) Condition {
	base.CarRate, base.BusRate = 5.5, 0
	return base
}

func facadeFrames(c Condition, n int, seed int64) []Frame {
	return vidsim.GenerateTraining(c, 16, 16, n, seed)
}

func TestFacadeEndToEnd(t *testing.T) {
	opts := Defaults(facadeDim, facadeClasses)
	day := BuildModel("day", facadeFrames(facadeCond(vidsim.Day()), 200, 1), facadeLabeler, opts)
	night := BuildModel("night", facadeFrames(facadeCond(vidsim.Night()), 200, 2), facadeLabeler, opts)

	dayStream := vidsim.GenerateTrainingStride(facadeCond(vidsim.Day()), 16, 16, 150, 1, 3)
	nightStream := vidsim.GenerateTrainingStride(facadeCond(vidsim.Night()), 16, 16, 250, 1, 4)
	mon := NewMonitor([]*Model{day, night}, truthOracle(t, dayStream, nightStream), opts)
	if mon.Current() != "day" {
		t.Fatalf("initial model = %q", mon.Current())
	}
	for _, f := range dayStream {
		mon.Process(f)
	}
	switched := false
	for _, f := range nightStream {
		if ev := mon.Process(f); ev.SwitchedTo == "night" {
			switched = true
			break
		}
	}
	if !switched {
		t.Fatal("monitor never deployed the night model")
	}
	st := mon.Stats()
	if st.DriftsDetected < 1 || st.ModelInvocations != st.Frames {
		t.Errorf("stats = %+v", st)
	}
	if len(mon.Models()) < 2 {
		t.Errorf("models = %v", mon.Models())
	}
}

func TestFacadeDetector(t *testing.T) {
	opts := Defaults(facadeDim, facadeClasses)
	day := BuildModel("day", facadeFrames(facadeCond(vidsim.Day()), 200, 5), nil, opts)
	det := NewDetector(day, 7)
	for i, f := range facadeFrames(facadeCond(vidsim.Day()), 300, 6) {
		if det.Observe(f) {
			t.Fatalf("false drift at frame %d", i)
		}
	}
	fired := false
	for _, f := range facadeFrames(facadeCond(vidsim.Night()), 120, 7) {
		if det.Observe(f) {
			fired = true
			break
		}
	}
	if !fired {
		t.Fatal("detector missed the day→night drift")
	}
	det.Reset()
}

func TestFacadeDatasetsAndAnnotator(t *testing.T) {
	ds := BDD(0.005)
	if ds.NumDrifts() != 4 {
		t.Errorf("BDD drifts = %d", ds.NumDrifts())
	}
	ann := NewAnnotator(30)
	frames := ds.TrainingFrames(0, 5)
	for _, f := range frames {
		if l := ann.CountLabel(f); l < 0 {
			t.Errorf("label = %d", l)
		}
	}
}
