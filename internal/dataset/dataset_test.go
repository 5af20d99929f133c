package dataset

import (
	"math"
	"reflect"
	"testing"

	"videodrift/internal/vidsim"
)

func TestPaperScaleSizes(t *testing.T) {
	cases := []struct {
		ds         *Dataset
		sequences  int
		streamSize int
	}{
		{BDD(1.0), 4, 80000},
		{Detrac(1.0), 5, 30000},
		{Tokyo(1.0), 3, 45000},
	}
	for _, c := range cases {
		if got := len(c.ds.Sequences); got != c.sequences {
			t.Errorf("%s sequences = %d, want %d", c.ds.Name, got, c.sequences)
		}
		if got := c.ds.StreamSize(); got != c.streamSize {
			t.Errorf("%s stream size = %d, want %d", c.ds.Name, got, c.streamSize)
		}
		if got := c.ds.NumDrifts(); got != c.sequences {
			t.Errorf("%s drifts = %d, want %d", c.ds.Name, got, c.sequences)
		}
	}
}

func TestScaling(t *testing.T) {
	d := BDD(0.01)
	if d.StreamSize() != 800 {
		t.Errorf("scaled stream size = %d", d.StreamSize())
	}
	// Scale floor keeps segments non-degenerate.
	tiny := Detrac(1e-9)
	if tiny.SeqLength < 10 {
		t.Errorf("scale floor violated: %d", tiny.SeqLength)
	}
}

func TestStreamDriftPoints(t *testing.T) {
	d := BDD(0.005) // 100 frames per sequence, 5 warmup... warmup scaled separately
	s := d.Stream()
	pts := s.DriftPoints()
	if len(pts) != 4 {
		t.Fatalf("drift points = %v", pts)
	}
	if pts[0] != d.WarmupLen {
		t.Errorf("first drift at %d, want warmup length %d", pts[0], d.WarmupLen)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i]-pts[i-1] != d.SeqLength {
			t.Errorf("drift spacing %d, want %d", pts[i]-pts[i-1], d.SeqLength)
		}
	}
	if got := s.TotalLength(); got != d.WarmupLen+d.StreamSize() {
		t.Errorf("total length = %d", got)
	}
}

func TestWarmupUsesLastCondition(t *testing.T) {
	d := Tokyo(0.002)
	s := d.Stream()
	f, ok := s.Next()
	if !ok {
		t.Fatal("empty stream")
	}
	last := d.Sequences[len(d.Sequences)-1].Name
	if f.Condition != last {
		t.Errorf("warmup condition = %q, want %q", f.Condition, last)
	}
}

func TestObjectsPerFrameNearPaper(t *testing.T) {
	cases := []struct {
		ds   *Dataset
		want float64
	}{
		{BDD(0.01), 9.2},
		{Detrac(0.01), 17.2},
		{Tokyo(0.01), 19.2},
	}
	for _, c := range cases {
		st := c.ds.Stats(300)
		if math.Abs(st.ObjPerFrame-c.want) > 0.3*c.want {
			t.Errorf("%s obj/frame = %v, paper has %v", c.ds.Name, st.ObjPerFrame, c.want)
		}
		if st.Std <= 0.5 {
			t.Errorf("%s obj/frame std = %v, want bursty traffic", c.ds.Name, st.Std)
		}
		if st.Sequences != len(c.ds.Sequences) || st.StreamSize != c.ds.StreamSize() {
			t.Errorf("%s stats metadata wrong: %+v", c.ds.Name, st)
		}
	}
}

func TestTransitionStream(t *testing.T) {
	d := Detrac(0.01)
	s := d.TransitionStream(2, 30, 50)
	if got := s.TotalLength(); got != 80 {
		t.Errorf("transition stream length = %d", got)
	}
	pts := s.DriftPoints()
	if len(pts) != 1 || pts[0] != 30 {
		t.Errorf("transition drift points = %v", pts)
	}
	frames := s.Collect(-1)
	if frames[29].Condition != d.Sequences[1].Name {
		t.Errorf("pre-drift condition = %q", frames[29].Condition)
	}
	if frames[31].Condition != d.Sequences[2].Name {
		t.Errorf("post-drift condition = %q", frames[31].Condition)
	}
	// Sequence 0 wraps around to the last sequence as predecessor.
	s0 := d.TransitionStream(0, 10, 10)
	f0 := s0.Collect(1)[0]
	if f0.Condition != d.Sequences[len(d.Sequences)-1].Name {
		t.Errorf("wraparound predecessor = %q", f0.Condition)
	}
}

func TestTransitionStreamRangePanic(t *testing.T) {
	d := BDD(0.01)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range TransitionStream did not panic")
		}
	}()
	d.TransitionStream(9, 10, 10)
}

func TestTrainingFramesIndependentOfStream(t *testing.T) {
	d := BDD(0.005)
	tr := d.TrainingFrames(0, 40)
	if len(tr) != 40 {
		t.Fatalf("training frames = %d", len(tr))
	}
	for _, f := range tr {
		if f.Condition != d.Sequences[0].Name {
			t.Fatalf("training condition = %q", f.Condition)
		}
	}
	// Different sequences give different training data.
	tr2 := d.TrainingFrames(3, 40)
	if tr[0].Pixels.Dist(tr2[0].Pixels) == 0 {
		t.Error("training frames identical across sequences")
	}
}

func TestSlowDriftDataset(t *testing.T) {
	d := SlowDrift(0.01)
	if d.TransitionLen <= 0 {
		t.Fatal("slow drift has no transition")
	}
	s := d.Stream()
	frames := s.Collect(-1)
	// The sunset drift is the transition into the night sequence (the
	// last drift point; the first is warmup→day).
	pts := s.DriftPoints()
	drift := pts[len(pts)-1]
	// Brightness at the drift point is still day-like; by the end of the
	// transition it is night-like.
	pre := frames[drift-1].Pixels.Mean()
	justAfter := frames[drift+2].Pixels.Mean()
	end := frames[drift+d.TransitionLen+20].Pixels.Mean()
	if math.Abs(pre-justAfter) > 0.15 {
		t.Errorf("slow drift jumped abruptly: %v -> %v", pre, justAfter)
	}
	if pre-end < 0.25 {
		t.Errorf("slow drift did not reach night: pre %v end %v", pre, end)
	}
}

func TestAllReturnsThree(t *testing.T) {
	all := All(0.01)
	if len(all) != 3 {
		t.Fatalf("All returned %d datasets", len(all))
	}
	names := map[string]bool{}
	for _, d := range all {
		names[d.Name] = true
	}
	for _, want := range []string{"BDD", "Detrac", "Tokyo"} {
		if !names[want] {
			t.Errorf("missing dataset %q", want)
		}
	}
}

func TestSequenceNamesAndFrameDim(t *testing.T) {
	d := BDD(0.01)
	names := d.SequenceNames()
	want := []string{"night", "rain", "snow", "day"}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("sequence %d = %q, want %q", i, names[i], want[i])
		}
	}
	if d.FrameDim() != 1024 {
		t.Errorf("FrameDim = %d", d.FrameDim())
	}
}

// TestTenantStreamLaps: lap 0 of tenant i is the scripted stream under
// seed Seed + i·104729, frame for frame; the next lap is rendered under
// a fresh seed, and the index runs on across it.
func TestTenantStreamLaps(t *testing.T) {
	d := BDD(0.01)
	const tenant = 2
	next := d.TenantStream(tenant)
	ds := *d
	ds.Seed += tenant * 104729
	stream := ds.Stream()
	n := stream.TotalLength()
	lap0 := make([]vidsim.Frame, n)
	for k := range lap0 {
		want, _ := stream.Next()
		if lap0[k] = next(); !reflect.DeepEqual(lap0[k], want) {
			t.Fatalf("lap 0 frame %d differs from the scripted stream's", k)
		}
	}
	same := 0
	for k := range lap0 {
		f := next()
		if f.Index != n+k {
			t.Fatalf("lap 1 frame %d has index %d, want %d", k, f.Index, n+k)
		}
		if reflect.DeepEqual(f.Pixels, lap0[k].Pixels) {
			same++
		}
	}
	if same != 0 {
		t.Errorf("%d of lap 1's %d frames replay lap 0's", same, n)
	}
}

// TestByName pins the command-line names to their constructors and refuses
// any other name.
func TestByName(t *testing.T) {
	for name, want := range map[string]*Dataset{
		"bdd": BDD(0.02), "detrac": Detrac(0.02), "tokyo": Tokyo(0.02), "slow": SlowDrift(0.02),
	} {
		got, err := ByName(name, 0.02)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("ByName(%q) = %+v, %v; want %+v", name, got, err, want)
		}
	}
	for _, name := range []string{"", "BDD", "lint"} {
		if ds, err := ByName(name, 0.02); err == nil {
			t.Errorf("ByName(%q) = %+v, want an error", name, ds)
		}
	}
}
