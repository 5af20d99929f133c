package faults

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"videodrift/internal/store"
	"videodrift/internal/vidsim"
)

func testFrame(n int) vidsim.Frame {
	px := make([]float64, 16)
	for i := range px {
		px[i] = float64(n+i) / 100
	}
	return vidsim.Frame{Index: n, W: 4, H: 4, Pixels: px}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := GenConfig{
		Shards: 4, Frames: 200,
		CorruptRate: 0.05, DropRate: 0.02, DupRate: 0.02,
		Panics: 3, Stalls: 2, StallFor: time.Millisecond,
		TrainFailures: 2, CheckpointFaults: 3,
	}
	a, b := Generate(99, cfg), Generate(99, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	c := Generate(100, cfg)
	if reflect.DeepEqual(a.Faults, c.Faults) {
		t.Fatal("different seeds produced identical fault lists")
	}
	if len(a.Faults) == 0 || len(a.CheckpointFaults) != 3 {
		t.Fatalf("schedule empty or missing checkpoint faults: %+v", a)
	}
	for i := 1; i < len(a.Faults); i++ {
		p, q := a.Faults[i-1], a.Faults[i]
		if p.Shard > q.Shard || (p.Shard == q.Shard && p.Frame > q.Frame) {
			t.Fatalf("faults not sorted at %d: %+v then %+v", i, p, q)
		}
	}
}

func TestApplyReplayDeterminism(t *testing.T) {
	sched := Schedule{Seed: 7, Faults: []Fault{
		{Shard: 0, Frame: 3, Kind: KindNaNPixel},
		{Shard: 0, Frame: 5, Kind: KindDropFrame},
		{Shard: 0, Frame: 8, Kind: KindDuplicateFrame},
		{Shard: 1, Frame: 3, Kind: KindShortFrame},
		{Shard: 1, Frame: 4, Kind: KindWrongDims},
	}}
	run := func() [][]vidsim.Frame {
		in := NewInjector(sched)
		var out [][]vidsim.Frame
		for shard := 0; shard < 2; shard++ {
			for frame := 0; frame < 10; frame++ {
				out = append(out, in.Apply(shard, frame, testFrame(frame)))
			}
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("slot %d: lengths differ", i)
		}
		for j := range a[i] {
			fa, fb := a[i][j], b[i][j]
			if fa.W != fb.W || fa.H != fb.H || len(fa.Pixels) != len(fb.Pixels) {
				t.Fatalf("slot %d: frames differ: %+v vs %+v", i, fa, fb)
			}
			for k := range fa.Pixels {
				va, vb := fa.Pixels[k], fb.Pixels[k]
				if va != vb && !(math.IsNaN(va) && math.IsNaN(vb)) {
					t.Fatalf("slot %d pixel %d: %v vs %v", i, k, va, vb)
				}
			}
		}
	}
}

func TestApplyDoesNotMutateInput(t *testing.T) {
	in := NewInjector(Schedule{Seed: 1, Faults: []Fault{{Shard: 0, Frame: 0, Kind: KindNaNPixel}}})
	f := testFrame(0)
	orig := append([]float64(nil), f.Pixels...)
	out := in.Apply(0, 0, f)
	if len(out) != 1 {
		t.Fatalf("Apply returned %d frames", len(out))
	}
	if !reflect.DeepEqual([]float64(f.Pixels), orig) {
		t.Fatal("Apply mutated the input frame's pixels")
	}
	nan := false
	for _, v := range out[0].Pixels {
		if math.IsNaN(v) {
			nan = true
		}
	}
	if !nan {
		t.Fatal("scheduled NaN corruption did not fire")
	}
	if in.Stats().Count(KindNaNPixel) != 1 {
		t.Errorf("stats = %+v", in.Stats())
	}
}

func TestDropAndDuplicate(t *testing.T) {
	in := NewInjector(Schedule{Seed: 2, Faults: []Fault{
		{Shard: 0, Frame: 1, Kind: KindDropFrame},
		{Shard: 0, Frame: 2, Kind: KindDuplicateFrame},
	}})
	if got := in.Apply(0, 0, testFrame(0)); len(got) != 1 {
		t.Errorf("clean frame: %d outputs", len(got))
	}
	if got := in.Apply(0, 1, testFrame(1)); got != nil {
		t.Errorf("dropped frame: %d outputs, want nil", len(got))
	}
	if got := in.Apply(0, 2, testFrame(2)); len(got) != 2 {
		t.Errorf("duplicated frame: %d outputs, want 2", len(got))
	}
}

func TestBeforeProcessPanicAndRepeat(t *testing.T) {
	in := NewInjector(Schedule{Seed: 3, Faults: []Fault{
		{Shard: 0, Frame: 4, Kind: KindWorkerPanic, Times: 1}, // fires twice
	}})
	fires := 0
	attempt := func() {
		defer func() {
			if r := recover(); r != nil {
				pf, ok := r.(PanicFault)
				if !ok || pf.Shard != 0 || pf.Frame != 4 {
					t.Fatalf("unexpected panic value %v", r)
				}
				fires++
			}
		}()
		in.BeforeProcess(0, 4)
	}
	attempt()
	attempt()
	attempt() // exhausted: must not fire
	if fires != 2 {
		t.Fatalf("panic fired %d times, want 2 (Times=1)", fires)
	}
	if in.Stats().Count(KindWorkerPanic) != 2 {
		t.Errorf("stats = %+v", in.Stats())
	}
}

func TestBeforeProcessStallUsesInjectedSleeper(t *testing.T) {
	in := NewInjector(Schedule{Seed: 4, Faults: []Fault{
		{Shard: 1, Frame: 0, Kind: KindWorkerStall, Stall: 5 * time.Second},
	}})
	var slept time.Duration
	in.sleep = func(d time.Duration) { slept = d }
	in.BeforeProcess(1, 0)
	if slept != 5*time.Second {
		t.Fatalf("slept %v, want 5s via injected sleeper", slept)
	}
}

func TestTrainFaultPerShard(t *testing.T) {
	in := NewInjector(Schedule{Seed: 5, TrainFailures: 2})
	hook0, hook1 := in.TrainFault(0), in.TrainFault(1)
	for i := 0; i < 2; i++ {
		if err := hook0(); !errors.Is(err, ErrInjected) {
			t.Fatalf("shard 0 attempt %d: %v", i, err)
		}
	}
	if err := hook0(); err != nil {
		t.Fatalf("shard 0 attempt 3 should succeed: %v", err)
	}
	if err := hook1(); !errors.Is(err, ErrInjected) {
		t.Fatal("shard 1 has its own failure budget")
	}
	if in.TrainingFailuresFired() != 3 {
		t.Errorf("fired = %d, want 3", in.TrainingFailuresFired())
	}
}

func TestNilInjectorIsSafe(t *testing.T) {
	var in *Injector
	if got := in.Apply(0, 0, testFrame(0)); len(got) != 1 {
		t.Error("nil injector altered the stream")
	}
	in.BeforeProcess(0, 0)
	if in.TrainFault(0) != nil {
		t.Error("nil injector returned a training hook")
	}
	if in.Stats().Total() != 0 || in.TrainingFailuresFired() != 0 {
		t.Error("nil injector has stats")
	}
}

func TestFlakyFSFailsScheduledSaves(t *testing.T) {
	sched := Schedule{Seed: 6, CheckpointFaults: map[int]int{1: 4}}
	ffs := NewFlakyFS(store.NewMemFS(), sched)
	write := func() error {
		f, err := ffs.CreateTemp("/d", "t-*.tmp")
		if err != nil {
			return err
		}
		_, err = f.Write([]byte("0123456789"))
		return err
	}
	if err := write(); err != nil {
		t.Fatalf("save 0 should pass: %v", err)
	}
	if err := write(); !errors.Is(err, ErrInjected) {
		t.Fatalf("save 1 should fail injected: %v", err)
	}
	if err := write(); err != nil {
		t.Fatalf("save 2 should pass: %v", err)
	}
	if ffs.Injured() != 1 {
		t.Errorf("Injured = %d", ffs.Injured())
	}
}
