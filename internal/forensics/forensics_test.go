package forensics

import (
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"weak"

	"videodrift/internal/classifier"
	"videodrift/internal/core"
	"videodrift/internal/telemetry"
	"videodrift/internal/vae"
	"videodrift/internal/vidsim"
	"videodrift/internal/vision"
)

const (
	testW          = 16
	testH          = 16
	testDim        = testW * testH
	testNumClasses = 6
)

func testLabeler(f vidsim.Frame) int {
	c := f.CountClass(vidsim.Car)
	if c >= testNumClasses {
		c = testNumClasses - 1
	}
	return c
}

func lightTraffic(c vidsim.Condition) vidsim.Condition {
	c.CarRate = 5.5
	c.BusRate = 0
	return c
}

var (
	fixOnce          sync.Once
	fixDay, fixNight *core.ModelEntry
)

// getEntries provisions the shared day/night pair once for the package.
func getEntries() []*core.ModelEntry {
	fixOnce.Do(func() {
		pcfg := core.ProvisionConfig{
			VAE:          vae.Config{InputDim: testDim, HiddenDim: 32, LatentDim: 6, Beta: 0.5, LR: 2e-3},
			VAEEpochs:    4,
			SampleCount:  80,
			K:            5,
			Classifier:   classifier.Config{InputDim: vision.QueryDim, HiddenDim: 24, NumClasses: testNumClasses, LR: 5e-3, Epochs: 30},
			EnsembleSize: 3,
			Seed:         31,
		}
		day := vidsim.GenerateTraining(lightTraffic(vidsim.Day()), testW, testH, 200, 11)
		fixDay = core.Provision("day", day, testLabeler, pcfg)
		pcfg.Seed = 32
		night := vidsim.GenerateTraining(lightTraffic(vidsim.Night()), testW, testH, 200, 12)
		fixNight = core.Provision("night", night, testLabeler, pcfg)
	})
	return []*core.ModelEntry{fixDay, fixNight}
}

func newTestPipeline(t *testing.T) (*core.Pipeline, core.PipelineConfig) {
	t.Helper()
	ents := getEntries()
	cfg := core.DefaultPipelineConfig(testDim, testNumClasses)
	cfg.Selector = core.SelectorMSBI
	return core.NewPipeline(core.NewRegistry(ents...), testLabeler, cfg), cfg
}

func stream(cond vidsim.Condition, n int, seed int64) []vidsim.Frame {
	return vidsim.GenerateTrainingStride(lightTraffic(cond), testW, testH, n, 1, seed)
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Record(nil, vidsim.Frame{}, core.Outcome{}) // must not panic
	if got := r.Declarations(); got != nil {
		t.Errorf("nil Declarations() = %v", got)
	}
	if _, ok := r.Get("drift-00000001"); ok {
		t.Error("nil Get found a declaration")
	}
	if s := r.State(); s.Enabled {
		t.Error("nil State() reports enabled")
	}
	if c := r.Config(); c != (Config{}) {
		t.Errorf("nil Config() = %+v", c)
	}
}

func TestConfigDefaults(t *testing.T) {
	pipe, _ := newTestPipeline(t)
	r := NewRecorder(Config{Enabled: true}, nil, pipe)
	if c := r.Config(); c.Window != DefaultWindow || c.Keep != DefaultKeep {
		t.Errorf("defaulted config = %+v", c)
	}
}

// step is the mark spacing a recorder of the given window uses.
func step(window int) int { return max(1, window/8) }

// TestPreRollRotation drives an in-distribution stream through a small
// recorder and checks the mark queue's invariant after every frame: the
// ring holds exactly the frames since the oldest mark, the marks run
// forward step frames apart, and once the stream has run Window frames
// the ring holds at least Window of them and fewer than Window+step.
func TestPreRollRotation(t *testing.T) {
	pipe, _ := newTestPipeline(t)
	const w = 16
	r := NewRecorder(Config{Enabled: true, Window: w}, nil, pipe)

	frames := stream(vidsim.Day(), 5*w, 101)
	for i, f := range frames {
		out := pipe.Process(f)
		if out.Drift {
			t.Fatalf("in-distribution stream declared drift at frame %d", i)
		}
		r.Record(pipe, f, out)

		s := r.State()
		if s.Frame != i+1 {
			t.Fatalf("frame %d: recorder frame counter %d", i, s.Frame)
		}
		if got := s.Frame - s.Marks[0].Frame; got != len(s.Ring) {
			t.Fatalf("frame %d: base at %d but ring holds %d frames", i, s.Marks[0].Frame, len(s.Ring))
		}
		for k := 1; k < len(s.Marks); k++ {
			if gap := s.Marks[k].Frame - s.Marks[k-1].Frame; gap != step(w) {
				t.Fatalf("frame %d: marks %d and %d are %d frames apart, want %d", i, k-1, k, gap, step(w))
			}
		}
		if last := s.Marks[len(s.Marks)-1].Frame; last > s.Frame || s.Frame-last >= step(w) {
			t.Fatalf("frame %d: newest mark at %d, want within %d frames of the head", i, last, step(w))
		}
		if len(s.Ring) >= w+step(w) {
			t.Fatalf("frame %d: ring grew to %d (≥ %d+%d)", i, len(s.Ring), w, step(w))
		}
		if i+1 >= w && len(s.Ring) < w-1 {
			t.Fatalf("frame %d: %d pre-roll frames cannot make a declaration of %d", i, len(s.Ring), w)
		}
	}
	// 5·W frames force the base past the stream start many times over.
	if s := r.State(); s.Marks[0].Frame == 0 {
		t.Error("base never moved past the stream start")
	}
	if got := r.Declarations(); len(got) != 0 {
		t.Errorf("no-drift stream captured %d declarations", len(got))
	}
}

// driftingStream alternates day and night, long enough per leg for a
// declaration, its selection and a fresh pre-roll: one drift per leg
// after the first.
func driftingStream(first, leg, legs int, seed int64) []vidsim.Frame {
	frames := stream(vidsim.Day(), first, seed)
	for k := 1; k <= legs; k++ {
		cond := vidsim.Night()
		if k%2 == 0 {
			cond = vidsim.Day()
		}
		frames = append(frames, stream(cond, leg, seed+int64(k))...)
	}
	return frames
}

// TestPreRollBounds is the mark queue's contract as a property: every
// declaration made after Window frames carries at least Window and fewer
// than Window+step pre-roll frames ending on the declaration frame, and
// replays bit-identically — from its base and from every other mark the
// recorder held when it fired, which is what lets the base move up to
// the next mark without a replay noticing.
func TestPreRollBounds(t *testing.T) {
	for _, w := range []int{8, 16, 64} {
		pipe, cfg := newTestPipeline(t)
		r := NewRecorder(Config{Enabled: true, Window: w, Keep: 16}, nil, pipe)
		checked := 0
		for _, f := range driftingStream(100, 160, 4, int64(400+w)) {
			out := pipe.Process(f)
			r.Record(pipe, f, out)
			if !out.Drift {
				continue
			}
			decls := r.Declarations()
			d := decls[len(decls)-1]
			if d.BaseFrame+len(d.Frames)-1 != d.Frame {
				t.Errorf("window %d, %s: pre-roll [%d, +%d) does not end on the declaration frame %d", w, d.ID, d.BaseFrame, len(d.Frames), d.Frame)
			}
			if n := len(d.Frames); d.Frame >= w && (n < w || n >= w+step(w)) {
				t.Errorf("window %d, %s: %d pre-roll frames, want %d ≤ n < %d", w, d.ID, n, w, w+step(w))
			}
			marks := r.State().Marks
			if marks[0].Frame != d.BaseFrame {
				t.Fatalf("window %d, %s: captured base %d, oldest mark %d", w, d.ID, d.BaseFrame, marks[0].Frame)
			}
			for _, m := range marks {
				from := d
				from.BaseFrame, from.Base, from.Frames = m.Frame, m.Snap, d.Frames[m.Frame-d.BaseFrame:]
				res, err := Replay(getEntries(), cfg, from)
				if err != nil {
					t.Fatalf("window %d, %s from mark %d: %v", w, d.ID, m.Frame, err)
				}
				if !res.Matches {
					t.Errorf("window %d, %s from mark %d: re-declared at %d with S=%v Δ=%v, recorded %d, %v, %v",
						w, d.ID, m.Frame, res.DeclaredFrame, res.Martingale, res.WindowDelta, d.Frame, d.Martingale, d.WindowDelta)
				}
			}
			checked++
		}
		if checked < 3 {
			t.Errorf("window %d: only %d declarations; the stream exercised too little", w, checked)
		}
	}
}

// TestRecorderRetention is the recorder's footprint gate: however many
// drifts a stream has had, what State reaches — the open pre-roll and
// Keep declarations — stays under (Keep+1)·(Window+step) frames.
func TestRecorderRetention(t *testing.T) {
	pipe, _ := newTestPipeline(t)
	const w, keep = 16, 2
	r := NewRecorder(Config{Enabled: true, Window: w, Keep: keep}, nil, pipe)
	drifts := 0
	for _, f := range driftingStream(100, 160, 3*keep, 500) {
		out := pipe.Process(f)
		r.Record(pipe, f, out)
		if out.Drift {
			drifts++
		}
		s := r.State()
		held := map[*float64]bool{}
		for _, fs := range append([][]vidsim.Frame{s.Ring}, declFrames(s.Declarations)...) {
			for i := range fs {
				held[&fs[i].Pixels[0]] = true
			}
		}
		if limit := (keep + 1) * (w + step(w)); len(held) > limit {
			t.Fatalf("frame %d, %d drifts: State reaches %d frames, want ≤ %d", s.Frame-1, drifts, len(held), limit)
		}
	}
	if drifts < 3*keep {
		t.Fatalf("%d drifts declared, want at least %d", drifts, 3*keep)
	}
}

func declFrames(ds []Declaration) [][]vidsim.Frame {
	out := make([][]vidsim.Frame, len(ds))
	for i := range ds {
		out[i] = ds[i].Frames
	}
	return out
}

// TestEvictedDeclarationIsCollectable: a frame leaves memory with the
// last declaration that held it. The first pre-roll is the longest, so
// the ring's backing array has slots the later, shorter ones never reach
// again; a header left there would pin its pixels for the tenant's
// lifetime.
func TestEvictedDeclarationIsCollectable(t *testing.T) {
	pipe, _ := newTestPipeline(t)
	const w, keep = 64, 2
	r := NewRecorder(Config{Enabled: true, Window: w, Keep: keep}, nil, pipe)
	// The recorder must hold the only reference: feed copies, keep none.
	feed := func(frames []vidsim.Frame) {
		for _, f := range frames {
			f.Pixels = slices.Clone(f.Pixels)
			r.Record(pipe, f, pipe.Process(f))
		}
	}
	firstPixels := func() (pixels []weak.Pointer[float64], id string) {
		d := r.Declarations()[0]
		for i := range d.Frames {
			pixels = append(pixels, weak.Make(&d.Frames[i].Pixels[0]))
		}
		return pixels, d.ID
	}
	// Legs of 60 frames leave no room between a resolution and the next
	// declaration for more than half a window of pre-roll.
	frames := driftingStream(3*w, 60, keep+2, 600)
	feed(frames[:3*w+60])
	if n := len(r.Declarations()); n != 1 {
		t.Fatalf("%d declarations after the first leg, want 1", n)
	}
	pixels, id := firstPixels()
	feed(frames[3*w+60:])
	if _, ok := r.Get(id); ok {
		t.Fatalf("%s still retained after %d more declarations (keep %d)", id, len(r.Declarations()), keep)
	}
	runtime.GC()
	runtime.GC()
	runtime.KeepAlive(r)
	pinned := 0
	for _, p := range pixels {
		if p.Value() != nil {
			pinned++
		}
	}
	if pinned > 0 {
		t.Errorf("%d of the evicted %s's %d frames are still reachable", pinned, id, len(pixels))
	}
}

// TestCaptureResolveReplay runs a real drift through the recorder:
// the declaration carries the inspector's evidence and a replayable
// pre-roll, resolution closes it when the pipeline returns to
// monitoring, and Replay reproduces the declaration bit-identically.
func TestCaptureResolveReplay(t *testing.T) {
	pipe, cfg := newTestPipeline(t)
	r := NewRecorder(Config{Enabled: true, Window: 16, Keep: 2}, nil, pipe)

	frames := append(stream(vidsim.Day(), 60, 201), stream(vidsim.Night(), 120, 202)...)
	for _, f := range frames {
		r.Record(pipe, f, pipe.Process(f))
	}
	decls := r.Declarations()
	if len(decls) == 0 {
		t.Fatal("night shift never declared a drift")
	}
	d := decls[0]
	if d.ID != telemetry.DriftID(d.Frame) {
		t.Errorf("ID %q does not match frame %d", d.ID, d.Frame)
	}
	if d.Model != "day" {
		t.Errorf("declared against model %q", d.Model)
	}
	if d.Martingale <= 0 || d.WindowDelta <= 0 {
		t.Errorf("evidence not captured: martingale %v, window delta %v", d.Martingale, d.WindowDelta)
	}
	if len(d.Attribution) == 0 {
		t.Error("no attribution captured")
	}
	if len(d.Frames) == 0 || d.BaseFrame+len(d.Frames)-1 != d.Frame {
		t.Errorf("pre-roll [%d, +%d) does not end at declaration frame %d",
			d.BaseFrame, len(d.Frames), d.Frame)
	}
	if !d.Resolved {
		t.Fatal("declaration never resolved")
	}
	if d.Resolution.Frame <= d.Frame {
		t.Errorf("resolution frame %d not after declaration frame %d", d.Resolution.Frame, d.Frame)
	}
	if !d.Resolution.Abandoned && d.Resolution.Model == "" {
		t.Error("resolution carries neither a deployed model nor the abandoned flag")
	}
	if _, ok := r.Get(d.ID); !ok {
		t.Errorf("Get(%q) missed", d.ID)
	}

	res, err := Replay(getEntries(), cfg, d)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if !res.Matches || res.DeclaredFrame != d.Frame {
		t.Errorf("replay diverged: declared at %d (want %d), matches=%v",
			res.DeclaredFrame, d.Frame, res.Matches)
	}
	if len(res.Points) == 0 {
		t.Error("replay traced no martingale updates")
	}
	last := res.Points[len(res.Points)-1]
	if math.Float64bits(last.Martingale) != math.Float64bits(d.Martingale) {
		t.Errorf("final replayed martingale %v, recorded %v", last.Martingale, d.Martingale)
	}

	// The report renderer works off the same declaration.
	rep, err := BuildReport(getEntries(), cfg, d)
	if err != nil {
		t.Fatalf("BuildReport: %v", err)
	}
	var b strings.Builder
	rep.WriteText(&b)
	if out := b.String(); !strings.Contains(out, d.ID) {
		t.Errorf("report does not mention %s:\n%s", d.ID, out)
	}
}

func TestStateRestoreRoundTrip(t *testing.T) {
	pipe, _ := newTestPipeline(t)
	r := NewRecorder(Config{Enabled: true, Window: 16, Keep: 2}, nil, pipe)
	frames := append(stream(vidsim.Day(), 60, 301), stream(vidsim.Night(), 60, 302)...)
	for _, f := range frames {
		r.Record(pipe, f, pipe.Process(f))
	}

	s := r.State()
	if !s.Enabled {
		t.Fatal("live recorder state reports disabled")
	}
	restored, err := Restore(s, nil)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if got := restored.State(); !reflect.DeepEqual(got, s) {
		t.Errorf("state did not round-trip:\nrestored %+v\noriginal %+v", got, s)
	}
}

func TestRestoreValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    RecorderState
	}{
		{"disabled", RecorderState{}},
		{"bad window", RecorderState{Enabled: true, Window: 0, Keep: 4}},
		{"bad keep", RecorderState{Enabled: true, Window: 8, Keep: -1}},
		{"negative frame", RecorderState{Enabled: true, Window: 8, Keep: 4, Frame: -1}},
		{"base past head", RecorderState{Enabled: true, Window: 8, Keep: 4, Frame: 3, BaseFrame: 5}},
		{"mark past head", RecorderState{Enabled: true, Window: 8, Keep: 4, Frame: 3, Ring: make([]vidsim.Frame, 3), Marks: []Mark{{Frame: 0}, {Frame: 5}}}},
		{"marks out of order", RecorderState{Enabled: true, Window: 8, Keep: 4, Frame: 9, Ring: make([]vidsim.Frame, 5), Marks: []Mark{{Frame: 4}, {Frame: 2}}}},
		{"ring short of its base", RecorderState{Enabled: true, Window: 8, Keep: 4, Frame: 9, Ring: make([]vidsim.Frame, 2), Marks: []Mark{{Frame: 4}, {Frame: 8}}}},
	} {
		if _, err := Restore(tc.s, nil); err == nil {
			t.Errorf("%s: Restore accepted %+v", tc.name, tc.s)
		}
	}
}

func TestReplayRejectsEmptyPreRoll(t *testing.T) {
	_, cfg := newTestPipeline(t)
	if _, err := Replay(getEntries(), cfg, Declaration{}); err == nil {
		t.Error("Replay accepted a declaration with no captured frames")
	}
}
