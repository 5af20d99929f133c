package videodrift

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"videodrift/internal/core"
	"videodrift/internal/faults"
	"videodrift/internal/forensics"
	"videodrift/internal/telemetry"
)

// TestForensicsReplayDeterminism is the forensics subsystem's headline
// guarantee: replaying a declaration's captured pre-roll through a
// pipeline restored from its base snapshot re-declares the drift on the
// same frame, and the replayed trajectory matches the live run's
// per-frame martingale telemetry bit for bit — for both selectors, at 1
// and 4 shards.
func TestForensicsReplayDeterminism(t *testing.T) {
	models := getCkptModels()
	const total = 200

	for _, tc := range []struct {
		name     string
		selector Selector
		shards   int
	}{
		{"msbi-shards1", MSBI, 1},
		{"msbi-shards4", MSBI, 4},
		{"msbo-shards1", MSBO, 1},
		{"msbo-shards4", MSBO, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := Defaults(facadeDim, facadeClasses)
			opts.Pipeline.Selector = tc.selector
			opts.Forensics = ForensicsConfig{Enabled: true}
			// Per-frame tracing gives the live run's martingale trajectory
			// to cross-check the replay against.
			tracers := make([]*Tracer, tc.shards)
			for i := range tracers {
				tracers[i] = NewTracer(TracerConfig{RingSize: 8192, PerFrame: true})
			}
			sopts := ShardedOptions{Options: opts, Workers: 2}

			streams := make([][]Frame, tc.shards)
			for s := range streams {
				streams[s] = driftStream(total, 60+25*s, int64(900+10*s))
			}
			sm := fixedFleet(models, truthOracle(t, streams...), sopts, tc.shards, tracers...)
			runBatches(sm, streams, 0, total)

			declared := 0
			for s := 0; s < tc.shards; s++ {
				m := sm.Shard(s)
				for _, d := range m.Forensics().Declarations() {
					declared++
					if len(d.Attribution) == 0 {
						t.Errorf("shard %d %s: no attribution captured", s, d.ID)
					}
					rep, err := m.Explain(d.ID)
					if err != nil {
						t.Fatalf("shard %d Explain(%s): %v", s, d.ID, err)
					}
					if rep.Replay.DeclaredFrame != d.Frame {
						t.Errorf("shard %d %s: replay re-declared at frame %d, live run at %d",
							s, d.ID, rep.Replay.DeclaredFrame, d.Frame)
					}
					if !rep.Replay.Matches {
						t.Errorf("shard %d %s: replay diverged (martingale %v vs %v, delta %v vs %v)",
							s, d.ID, rep.Replay.Martingale, d.Martingale, rep.Replay.WindowDelta, d.WindowDelta)
					}
					// The replayed trajectory must reproduce the live run's
					// martingale updates over the pre-roll window bit for bit.
					want := martingaleTrace(tracers[s], d.BaseFrame, d.Frame)
					if len(rep.Replay.Points) != len(want) {
						t.Fatalf("shard %d %s: replay traced %d updates, live run %d",
							s, d.ID, len(rep.Replay.Points), len(want))
					}
					for i, pt := range rep.Replay.Points {
						w := want[i]
						if pt.Frame != w.Frame ||
							math.Float64bits(pt.PValue) != math.Float64bits(w.PValue) ||
							math.Float64bits(pt.Martingale) != math.Float64bits(w.Martingale) ||
							math.Float64bits(pt.WindowDelta) != math.Float64bits(w.WindowDelta) {
							t.Fatalf("shard %d %s update %d: replay {frame %d p %v S %v Δ %v}, live {frame %d p %v S %v Δ %v}",
								s, d.ID, i, pt.Frame, pt.PValue, pt.Martingale, pt.WindowDelta,
								w.Frame, w.PValue, w.Martingale, w.WindowDelta)
						}
					}
				}
				if _, err := m.Explain("drift-99999999"); err == nil {
					t.Error("Explain accepted an unknown drift ID")
				}
			}
			if declared == 0 {
				t.Fatal("no declarations captured; the test exercised nothing")
			}
		})
	}
}

// martingaleTrace extracts the live run's per-frame martingale updates
// for stream frames in [lo, hi] from a per-frame tracer's event ring.
func martingaleTrace(tr *Tracer, lo, hi int) []TelemetryEvent {
	var out []TelemetryEvent
	for _, e := range tr.Events() {
		if e.Kind == telemetry.KindMartingaleUpdate && e.Frame >= lo && e.Frame <= hi {
			out = append(out, e)
		}
	}
	return out
}

// TestExplainReportText exercises the drifttool-explain rendering path
// end to end on a live monitor: declaration evidence, attribution table,
// replayed trajectory and the selection outcome all appear.
func TestExplainReportText(t *testing.T) {
	models := getCkptModels()
	opts := Defaults(facadeDim, facadeClasses)
	opts.Pipeline.Selector = MSBI
	opts.Forensics = ForensicsConfig{Enabled: true}

	m := NewMonitor(models, facadeLabeler, opts)
	for _, f := range driftStream(200, 70, 1700) {
		m.Process(f)
	}
	decls := m.Forensics().Declarations()
	if len(decls) == 0 {
		t.Fatal("stream produced no declarations")
	}
	rep, err := m.Explain(decls[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	rep.WriteText(&b)
	out := b.String()
	for _, want := range []string{
		decls[0].ID,
		"attribution (reference vs recent window",
		"trajectory (replayed martingale updates)",
		fmt.Sprintf("re-declared at frame %d", decls[0].Frame),
		"matches recording: yes, bit-identical",
		"resolution",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report text missing %q:\n%s", want, out)
		}
	}
	// The declaration's drift ID matches the telemetry event's, so the
	// two observability surfaces name the same drift identically.
	if want := telemetry.DriftID(decls[0].Frame); decls[0].ID != want {
		t.Errorf("declaration ID %q, telemetry DriftID %q", decls[0].ID, want)
	}
}

// quarantineStream is a day→night drift stream with a malformed frame of
// each kind the admission gate rejects — a NaN pixel, the wrong geometry,
// no pixels at all — let in at the given positions, which fall between
// the frames the inspector's stride reads, right after one and right
// before one.
func quarantineStream(total, driftAt int, seed int64, bad []int) []Frame {
	clean := driftStream(total, driftAt, seed)
	var out []Frame
	for _, f := range clean {
		if k := slices.Index(bad, len(out)); k >= 0 {
			b := f
			switch k % 3 {
			case 0:
				b.Pixels = slices.Clone(f.Pixels)
				b.Pixels[7] = math.NaN()
			case 1:
				b.W, b.H, b.Pixels = 8, 8, f.Pixels[:64]
			case 2:
				b = Frame{Index: f.Index}
			}
			out = append(out, b)
		}
		out = append(out, f)
	}
	return out
}

// TestReplayAcrossQuarantine: the recorder keeps the frames the stride
// read and the ones the gate quarantined, so a replay that counts its way
// over the gaps between them has to land on the same frames as the live
// run although quarantined frames do not move the inspector's count. It
// does, bit for bit, through the monitor and through a supervised fleet
// whose workers panic mid-batch after a kept frame (the recorder is
// rewound to the batch start, At with it) — and a declaration whose At is
// off by one is a mismatch, not a trajectory.
func TestReplayAcrossQuarantine(t *testing.T) {
	models := getCkptModels()
	opts := Defaults(facadeDim, facadeClasses)
	opts.Pipeline.Selector = MSBI
	opts.Forensics = ForensicsConfig{Enabled: true}
	bad := []int{52, 61, 63, 75, 88, 90, 101, 104}
	stream := quarantineStream(220, 70, 2300, bad)

	// checkReplays holds every declaration of m to the live trajectory and
	// returns the first.
	checkReplays := func(t *testing.T, m *Monitor, tr *Tracer) DriftDeclaration {
		t.Helper()
		decls := m.Forensics().Declarations()
		if len(decls) == 0 {
			t.Fatal("stream produced no declarations")
		}
		for _, d := range decls {
			rep, err := m.Explain(d.ID)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Replay.Matches {
				t.Errorf("%s: replay diverged: re-declared at %d (recorded %d), martingale %v vs %v",
					d.ID, rep.Replay.DeclaredFrame, d.Frame, rep.Replay.Martingale, d.Martingale)
			}
			want := martingaleTrace(tr, d.BaseFrame, d.Frame)
			if len(rep.Replay.Points) != len(want) {
				t.Fatalf("%s: replay traced %d updates, live run %d", d.ID, len(rep.Replay.Points), len(want))
			}
			for i, pt := range rep.Replay.Points {
				if w := want[i]; pt.Frame != w.Frame || math.Float64bits(pt.Martingale) != math.Float64bits(w.Martingale) {
					t.Fatalf("%s update %d: replay {frame %d S %v}, live {frame %d S %v}", d.ID, i, pt.Frame, pt.Martingale, w.Frame, w.Martingale)
				}
			}
		}
		return decls[0]
	}

	tracer := NewTracer(TracerConfig{RingSize: 8192, PerFrame: true})
	mopts := opts
	mopts.Tracer = tracer
	ref := NewMonitor(models, facadeLabeler, mopts)
	for _, f := range stream {
		ref.Process(f)
	}
	d := checkReplays(t, ref, tracer)
	quarantined := 0
	for _, h := range d.Frames {
		if core.FrameProblem(h.Frame(nil), 16, 16) != "" {
			quarantined++
		}
	}
	if quarantined < 6 || len(d.Frames)-quarantined < 4 || len(d.Frames) > (d.Frame-d.BaseFrame)/10+1+quarantined {
		t.Fatalf("fixture: %s keeps %d frames of %d, %d of them quarantined; want most of the %d bad frames between at least 4 sampled ones",
			d.ID, len(d.Frames), d.Frame-d.BaseFrame+1, quarantined, len(bad))
	}
	for _, shift := range []int{-1, 1} {
		off := d
		off.At = slices.Clone(d.At)
		for i := range off.At {
			off.At[i] += shift
		}
		res, err := forensics.Replay(ref.Entries(), ref.pipe.Config(), off)
		if err != nil {
			t.Fatal(err)
		}
		if res.Matches || len(res.Points) >= len(martingaleTrace(tracer, d.BaseFrame, d.Frame)) {
			t.Errorf("At shifted by %+d: matches=%v with %d updates traced; a wrong gap must not replay", shift, res.Matches, len(res.Points))
		}
	}

	t.Run("supervised", func(t *testing.T) {
		// Panics two frames after a kept frame of the first declaration's
		// pre-roll, inside the kept frame's batch: the re-run must not keep
		// it twice, nor lose where it was.
		const size = 8
		var panics []faults.Fault
		for _, a := range d.At {
			if a%size <= size-3 && (len(panics) == 0 || panics[len(panics)-1].Frame/size != a/size) {
				panics = append(panics, faults.Fault{Shard: 0, Frame: a + 2, Kind: faults.KindWorkerPanic})
			}
		}
		if len(panics) < 3 {
			t.Fatalf("fixture: %d kept frames of %v leave room for a panic in their batch, want 3", len(panics), d.At)
		}
		sm := fixedFleet(models, facadeLabeler, ShardedOptions{
			Options: opts, BeforeProcess: faults.NewInjector(faults.Schedule{Seed: 7, Faults: panics}).BeforeProcess,
		}, 1)
		for at := 0; at < len(stream); at += size {
			mustBatches(sm, [][]Frame{stream[at:min(at+size, len(stream))]})
		}
		if got := sm.Health().Shards[0].Restarts; got != len(panics) {
			t.Fatalf("supervised restarts = %d, want %d", got, len(panics))
		}
		// Against the monitor's trace: a tracer of this run would hold the
		// updates of every re-run batch twice.
		got := checkReplays(t, sm.Shard(0), tracer)
		if got.ID != d.ID || !slices.Equal(got.At, d.At) {
			t.Errorf("supervised run declared %s keeping %v, the monitor %s keeping %v", got.ID, got.At, d.ID, d.At)
		}
		gs, ws := sm.Shard(0).Forensics().State(), ref.Forensics().State()
		if !slices.Equal(gs.At, ws.At) || len(gs.Ring) != len(ws.Ring) {
			t.Errorf("supervised pre-roll keeps %d frames at %v, the monitor %d at %v", len(gs.Ring), gs.At, len(ws.Ring), ws.At)
		}
	})
}
