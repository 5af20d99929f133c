package forensics

import (
	"encoding/binary"
	"fmt"
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

// provisionConfig is the fixtures' light provisioning for frames of dim
// pixels, with an MSBO ensemble of the given size (0: none).
func provisionConfig(dim, ensemble int) core.ProvisionConfig {
	return core.ProvisionConfig{
		VAE:          vae.Config{InputDim: dim, HiddenDim: 32, LatentDim: 6, Beta: 0.5, LR: 2e-3},
		VAEEpochs:    4,
		SampleCount:  80,
		K:            5,
		Classifier:   classifier.Config{InputDim: vision.QueryDim, HiddenDim: 24, NumClasses: testNumClasses, LR: 5e-3, Epochs: 30},
		EnsembleSize: ensemble,
		Seed:         31,
	}
}

// getEntries provisions the shared day/night pair once for the package.
func getEntries() []*core.ModelEntry {
	fixOnce.Do(func() {
		pcfg := provisionConfig(testDim, 3)
		day := vidsim.GenerateTraining(lightTraffic(vidsim.Day()), testW, testH, 200, 11)
		fixDay = core.Provision("day", slices.Values(day), testLabeler, pcfg)
		pcfg.Seed = 32
		night := vidsim.GenerateTraining(lightTraffic(vidsim.Night()), testW, testH, 200, 12)
		fixNight = core.Provision("night", slices.Values(night), testLabeler, pcfg)
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

// newStridePipeline is newTestPipeline with the inspector reading one
// frame in every, and the selection windows and trainings of stream
// labelled by truthOracle.
func newStridePipeline(t *testing.T, every int, stream []vidsim.Frame) (*core.Pipeline, core.PipelineConfig) {
	t.Helper()
	_, cfg := newTestPipeline(t)
	cfg.DI.SampleEvery = every
	return core.NewPipeline(core.NewRegistry(getEntries()...), truthOracle(t, stream), cfg), cfg
}

// truthOracle is testLabeler for the frames a pipeline keeps, which carry
// position and pixels only (vidsim.Frame.Keep): it recognises each frame
// of stream by its pixels and answers with the label its ground truth
// gives. A kept frame stream does not hold fails the test instead of
// being labelled 0.
func truthOracle(t testing.TB, stream []vidsim.Frame) core.Labeler {
	labels := map[string]int{}
	for _, f := range stream {
		labels[pixelKey(f.Pixels)] = testLabeler(f)
	}
	return func(f vidsim.Frame) int {
		l, ok := labels[pixelKey(f.Pixels)]
		if !ok {
			t.Errorf("labeler asked for frame %d, which the test's stream does not hold", f.Index)
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

// feed runs f through pipe and r and reports, from the inspector's frame
// count before the call rather than from anything the recorder reads,
// whether the recorder has to keep the frame: the stride read it or the
// gate quarantined it while the pipeline was monitoring.
func feed(pipe *core.Pipeline, r *Recorder, every int, f vidsim.Frame) (out core.Outcome, keep bool) {
	monitoring, seen := pipe.Monitoring(), pipe.Inspector().Observed()
	out = pipe.Process(f)
	r.Record(pipe, f, out)
	return out, monitoring && (out.Quarantined || seen%every == 0)
}

// checkKept holds a kept-frame list to the stream it was cut from: at is
// strictly increasing inside [lo, hi), each kept frame is a copy of the
// stream's own (same stream index and header, the same pixel bits, NaNs
// included), and the list is exactly the frames of [lo, hi) that keep
// marks.
func checkKept(t *testing.T, what string, kept []vidsim.Held, at []int, lo, hi int, frames []vidsim.Frame, keep []bool) {
	t.Helper()
	if len(at) != len(kept) {
		t.Fatalf("%s: %d frames at %d positions", what, len(kept), len(at))
	}
	want := 0
	for i := lo; i < hi; i++ {
		if keep[i] {
			want++
		}
	}
	if len(kept) != want {
		t.Fatalf("%s: %d frames kept of [%d, %d), the stride read or the gate quarantined %d", what, len(kept), lo, hi, want)
	}
	for i, a := range at {
		if a < lo || a >= hi || i > 0 && a <= at[i-1] {
			t.Fatalf("%s: at = %v does not run strictly forward inside [%d, %d)", what, at, lo, hi)
		}
		if !keep[a] {
			t.Fatalf("%s: kept frame %d, which the stride skipped", what, a)
		}
		k, f := kept[i], frames[a]
		if k.Index != f.Index || k.W != f.W || k.H != f.H ||
			!slices.EqualFunc(k.PixelsInto(nil), f.Pixels, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
			t.Fatalf("%s: kept frame %d is not stream frame %d", what, i, a)
		}
	}
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
// recorder at three strides and checks the mark queue's invariant after
// every frame: the ring holds exactly the frames since the oldest mark
// that the stride read, the marks run forward step frames apart, and once
// the stream has run Window frames the pre-roll spans at least Window of
// them and fewer than Window+step. At a stride of one that is every
// frame, At counting them off one by one.
func TestPreRollRotation(t *testing.T) {
	const w = 16
	for _, every := range []int{1, 3, 10} {
		// Consecutive frames are correlated enough for a stride of one to
		// false-alarm within frames; rotation is about the frames between
		// alarms, so the threshold goes out of the martingale's reach.
		_, cfg := newTestPipeline(t)
		cfg.DI.SampleEvery, cfg.DI.R = every, 1e-9
		pipe := core.NewPipeline(core.NewRegistry(getEntries()...), testLabeler, cfg)
		r := NewRecorder(Config{Enabled: true, Window: w}, nil, pipe)

		frames := stream(vidsim.Day(), 5*w, 101)
		keep := make([]bool, len(frames))
		for i, f := range frames {
			var out core.Outcome
			if out, keep[i] = feed(pipe, r, every, f); out.Drift {
				t.Fatalf("stride %d: in-distribution stream declared drift at frame %d", every, i)
			}

			s := r.State()
			if s.Frame != i+1 {
				t.Fatalf("stride %d, frame %d: recorder frame counter %d", every, i, s.Frame)
			}
			base := s.Marks[0].Frame
			checkKept(t, fmt.Sprintf("stride %d, frame %d ring", every, i), s.Ring, s.At, base, s.Frame, frames, keep)
			for k := 1; k < len(s.Marks); k++ {
				if gap := s.Marks[k].Frame - s.Marks[k-1].Frame; gap != step(w) {
					t.Fatalf("stride %d, frame %d: marks %d and %d are %d frames apart, want %d", every, i, k-1, k, gap, step(w))
				}
			}
			if last := s.Marks[len(s.Marks)-1].Frame; last > s.Frame || s.Frame-last >= step(w) {
				t.Fatalf("stride %d, frame %d: newest mark at %d, want within %d frames of the head", every, i, last, step(w))
			}
			if span := s.Frame - base; span >= w+step(w) || i+1 >= w && span < w-1 {
				t.Fatalf("stride %d, frame %d: pre-roll spans %d frames, want %d ≤ n+1 < %d", every, i, span, w, w+step(w))
			}
			if every == 1 {
				dense := s
				dense.Ring, dense.At = nil, nil
				for a := base; a < s.Frame; a++ {
					dense.Ring = append(dense.Ring, frames[a].Keep())
					dense.At = append(dense.At, a)
				}
				if !reflect.DeepEqual(s, dense) {
					t.Fatalf("frame %d: at a stride of one the state is not the dense one: %d frames at %v from base %d", i, len(s.Ring), s.At, base)
				}
			}
		}
		// 5·W frames force the base past the stream start many times over.
		if s := r.State(); s.Marks[0].Frame == 0 {
			t.Errorf("stride %d: base never moved past the stream start", every)
		}
		if got := r.Declarations(); len(got) != 0 {
			t.Errorf("stride %d: no-drift stream captured %d declarations", every, len(got))
		}
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

// TestPreRollBounds is the mark queue's contract as a property, over
// windows and strides: every declaration made Window frames or more after
// monitoring resumed spans
// at least Window and fewer than Window+step stream frames ending on the
// declaration frame, keeps of them exactly the frames the stride read —
// at most ⌈span/stride⌉ — and replays bit-identically, from its base and
// from every other mark the recorder held when it fired, which is what
// lets the base move up to the next mark without a replay noticing.
func TestPreRollBounds(t *testing.T) {
	for _, w := range []int{8, 16, 64} {
		for _, every := range []int{1, 3, 10} {
			frames := driftingStream(100, 160, 4, int64(400+w))
			pipe, cfg := newStridePipeline(t, every, frames)
			r := NewRecorder(Config{Enabled: true, Window: w, Keep: 16}, nil, pipe)
			keep := make([]bool, len(frames))
			checked, start := 0, 0 // start: where the open pre-roll began
			for i, f := range frames {
				var out core.Outcome
				resumes := !pipe.Monitoring()
				if out, keep[i] = feed(pipe, r, every, f); !out.Drift {
					if resumes && pipe.Monitoring() {
						start = i + 1
					}
					continue
				}
				decls := r.Declarations()
				d := decls[len(decls)-1]
				what := fmt.Sprintf("window %d, stride %d, %s", w, every, d.ID)
				checkKept(t, what, d.Frames, d.At, d.BaseFrame, d.Frame+1, frames, keep)
				span := d.Frame - d.BaseFrame + 1
				if d.Frame != i || d.At[len(d.At)-1] != d.Frame {
					t.Errorf("%s: pre-roll at %v does not end on the declaration frame %d", what, d.At, i)
				}
				if run := i - start + 1; run < w && span != run || run >= w && (span < w || span >= w+step(w)) {
					t.Errorf("%s: pre-roll spans %d of the %d frames since monitoring resumed, want all of them or %d ≤ n < %d", what, span, run, w, w+step(w))
				}
				if limit := (span + every - 1) / every; len(d.Frames) > limit {
					t.Errorf("%s: %d frames kept of a span of %d, want ≤ %d", what, len(d.Frames), span, limit)
				}
				marks := r.State().Marks
				if marks[0].Frame != d.BaseFrame {
					t.Fatalf("%s: captured base %d, oldest mark %d", what, d.BaseFrame, marks[0].Frame)
				}
				for _, m := range marks {
					res, err := Replay(pipe.Registry().Entries(), cfg, fromMark(d, m))
					if err != nil {
						t.Fatalf("%s from mark %d: %v", what, m.Frame, err)
					}
					if !res.Matches {
						t.Errorf("%s from mark %d: re-declared at %d with S=%v Δ=%v, recorded %d, %v, %v",
							what, m.Frame, res.DeclaredFrame, res.Martingale, res.WindowDelta, d.Frame, d.Martingale, d.WindowDelta)
					}
				}
				checked++
			}
			if checked < 3 {
				t.Errorf("window %d, stride %d: only %d declarations; the stream exercised too little", w, every, checked)
			}
		}
	}
}

// fromMark is d replayed from a later mark of its pre-roll.
func fromMark(d Declaration, m Mark) Declaration {
	k, _ := slices.BinarySearch(d.At, m.Frame)
	d.BaseFrame, d.Base, d.Frames, d.At = m.Frame, m.Snap, d.Frames[k:], d.At[k:]
	return d
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
		held := map[vidsim.HeldID]bool{}
		for _, fs := range append([][]vidsim.Held{s.Ring}, declFrames(s.Declarations)...) {
			for i := range fs {
				held[fs[i].ID()] = true
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

func declFrames(ds []Declaration) [][]vidsim.Held {
	out := make([][]vidsim.Held, len(ds))
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
			pixels = append(pixels, weak.Make(fullPixels(t, d.Frames[i])))
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

// fullPixels returns the first pixel of a frame held at full precision
// (a rendered frame is): the array a weak pointer watches.
func fullPixels(t *testing.T, h vidsim.Held) *float64 {
	t.Helper()
	v := reflect.ValueOf(h)
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Slice && f.Type().Elem().Kind() == reflect.Float64 && f.Len() > 0 {
			return (*float64)(f.Index(0).Addr().UnsafePointer())
		}
	}
	t.Fatalf("frame %d is not held at full precision", h.Index)
	return nil
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
	if len(d.Frames) == 0 || len(d.At) != len(d.Frames) || d.At[0] < d.BaseFrame || d.At[len(d.At)-1] != d.Frame {
		t.Errorf("pre-roll of %d frames at %v from %d does not end at declaration frame %d",
			len(d.Frames), d.At, d.BaseFrame, d.Frame)
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
	for _, pt := range res.Points {
		if !slices.Contains(d.At, pt.Frame) {
			t.Errorf("replay traced an update at frame %d, not one of the kept frames %v", pt.Frame, d.At)
		}
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
	// The report counts the pre-roll in stream frames, as it always has,
	// and says how many of them it replays.
	span := d.Frame - d.BaseFrame + 1
	if rep.PreRoll != span || rep.Kept != len(d.Frames) || rep.Kept >= span {
		t.Errorf("report has pre_roll %d kept %d, want %d and %d (fewer)", rep.PreRoll, rep.Kept, span, len(d.Frames))
	}
	if want := fmt.Sprintf("%d pre-roll frames from frame %d, %d kept:", span, d.BaseFrame, len(d.Frames)); !strings.Contains(b.String(), want) {
		t.Errorf("report text missing %q:\n%s", want, b.String())
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
	restored, err := Restore(s, Config{Window: 16, Keep: 2}, nil)
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
		{"negative frame", RecorderState{Enabled: true, Frame: -1}},
		{"no marks", RecorderState{Enabled: true, Frame: 3}},
		{"no at for the ring", RecorderState{Enabled: true, Frame: 6, Ring: make([]vidsim.Held, 2), Marks: []Mark{{Frame: 4}}}},
		{"no at for a pending ring", RecorderState{Enabled: true, Frame: 9, Pending: true, Ring: make([]vidsim.Held, 3), Marks: []Mark{{Frame: 4}}}},
		{"mark past head", RecorderState{Enabled: true, Frame: 3, Ring: make([]vidsim.Held, 3), Marks: []Mark{{Frame: 0}, {Frame: 5}}}},
		{"marks out of order", RecorderState{Enabled: true, Frame: 9, Ring: make([]vidsim.Held, 5), Marks: []Mark{{Frame: 4}, {Frame: 2}}}},
		{"at short of the ring", RecorderState{Enabled: true, Frame: 9, Ring: make([]vidsim.Held, 2), At: []int{4}, Marks: []Mark{{Frame: 4}, {Frame: 8}}}},
		{"at repeats", RecorderState{Enabled: true, Frame: 9, Ring: make([]vidsim.Held, 2), At: []int{5, 5}, Marks: []Mark{{Frame: 4}, {Frame: 8}}}},
		{"at runs back", RecorderState{Enabled: true, Frame: 9, Ring: make([]vidsim.Held, 2), At: []int{7, 5}, Marks: []Mark{{Frame: 4}, {Frame: 8}}}},
		{"at before the base", RecorderState{Enabled: true, Frame: 9, Ring: make([]vidsim.Held, 2), At: []int{3, 5}, Marks: []Mark{{Frame: 4}, {Frame: 8}}}},
		{"at past the head", RecorderState{Enabled: true, Frame: 9, Ring: make([]vidsim.Held, 2), At: []int{5, 9}, Marks: []Mark{{Frame: 4}, {Frame: 8}}}},
		{"at past the head, pending", RecorderState{Enabled: true, Frame: 9, Pending: true, Ring: make([]vidsim.Held, 2), At: []int{5, 9}, Marks: []Mark{{Frame: 4}, {Frame: 8}}}},
	} {
		if _, err := Restore(tc.s, Config{}, nil); err == nil {
			t.Errorf("%s: Restore accepted %+v", tc.name, tc.s)
		}
	}
	// The same ring with its frames where the marks allow them.
	if _, err := Restore(RecorderState{Enabled: true, Frame: 9, Ring: make([]vidsim.Held, 2), At: []int{4, 8}, Marks: []Mark{{Frame: 4}, {Frame: 8}}}, Config{}, nil); err != nil {
		t.Errorf("Restore refused a sparse ring inside its marks: %v", err)
	}
}

// TestRestoreBeforeFirstKeptFrame: a recorder attached to a pipeline in
// mid-stride has seen frames and kept none yet; that state, an empty ring
// with no At, restores and carries on.
func TestRestoreBeforeFirstKeptFrame(t *testing.T) {
	pipe, cfg := newTestPipeline(t)
	frames := append(stream(vidsim.Day(), 63, 301), stream(vidsim.Night(), 120, 302)...)
	for _, f := range frames[:3] {
		pipe.Process(f)
	}
	r := NewRecorder(Config{Enabled: true, Window: 16}, nil, pipe)
	for _, f := range frames[3:6] {
		r.Record(pipe, f, pipe.Process(f))
	}
	s := r.State()
	if len(s.Ring) != 0 || s.Frame-s.Marks[0].Frame != 3 {
		t.Fatalf("fixture: %d frames kept of %d, want none of 3", len(s.Ring), s.Frame-s.Marks[0].Frame)
	}
	r, err := Restore(s, Config{Window: 16}, nil)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	for _, f := range frames[6:] {
		r.Record(pipe, f, pipe.Process(f))
	}
	decls := r.Declarations()
	if len(decls) == 0 {
		t.Fatal("night shift never declared a drift")
	}
	if res, err := Replay(pipe.Registry().Entries(), cfg, decls[0]); err != nil || !res.Matches {
		t.Errorf("replay of %s after the restore: matches=%v, err %v", decls[0].ID, res.Matches, err)
	}
}

func TestReplayRejectsEmptyPreRoll(t *testing.T) {
	_, cfg := newTestPipeline(t)
	if _, err := Replay(getEntries(), cfg, Declaration{}); err == nil {
		t.Error("Replay accepted a declaration with no captured frames")
	}
}

// BenchmarkRecorderRetention is the recorder's footprint at the served
// defaults — Window 64, Keep 8, the inspector reading one frame in ten,
// 32×32 frames of 8 KB: B/declaration is the pixels a retained
// declaration holds, seven or eight frames where a recorder that keeps
// what the stride skips holds 64 to 71. The timed call is State, the
// clone the sharded supervisor takes before every batch and the
// checkpoint scheduler every capture; it grows with the same lists.
func BenchmarkRecorderRetention(b *testing.B) {
	const w, h = 32, 32
	pcfg := provisionConfig(w*h, 0) // lean, as an MSBI server provisions
	clip := func(cond vidsim.Condition, n int, seed int64) []vidsim.Frame {
		return vidsim.GenerateTrainingStride(lightTraffic(cond), w, h, n, 1, seed)
	}
	day := core.Provision("day", slices.Values(clip(vidsim.Day(), 200, 11)), testLabeler, pcfg)
	pcfg.Seed = 32
	night := core.Provision("night", slices.Values(clip(vidsim.Night(), 200, 12)), testLabeler, pcfg)
	cfg := core.DefaultPipelineConfig(w*h, testNumClasses)
	cfg.Selector = core.SelectorMSBI
	pipe := core.NewPipeline(core.NewRegistry(day, night), testLabeler, cfg)
	r := NewRecorder(Config{Enabled: true}, nil, pipe)
	for leg := 0; leg <= DefaultKeep+1; leg++ {
		cond := vidsim.Day()
		if leg%2 == 1 {
			cond = vidsim.Night()
		}
		for _, f := range clip(cond, 160, int64(100+leg)) {
			r.Record(pipe, f, pipe.Process(f))
		}
	}
	decls := r.Declarations()
	if len(decls) != DefaultKeep {
		b.Fatalf("%d declarations retained, want %d", len(decls), DefaultKeep)
	}
	held := 0
	for _, d := range decls {
		for _, f := range d.Frames {
			held += f.Bytes()
		}
	}
	for b.Loop() {
		r.State()
	}
	b.ReportMetric(float64(held)/float64(len(decls)), "B/declaration")
}
