package videodrift

import (
	"bytes"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"videodrift/internal/store"
	"videodrift/internal/vidsim"
)

var (
	ckptOnce, leanOnce         sync.Once
	ckptModels, leanCkptModels []*Model
)

func buildCkptModels(sel Selector) []*Model {
	opts := Defaults(facadeDim, facadeClasses)
	opts.Provision = opts.Provision.For(sel)
	return []*Model{
		BuildModel("day", facadeFrames(facadeCond(vidsim.Day()), 200, 41), facadeLabeler, opts),
		BuildModel("night", facadeFrames(facadeCond(vidsim.Night()), 200, 42), facadeLabeler, opts),
	}
}

// getCkptModels provisions the shared day/night pair once for all
// checkpoint tests.
func getCkptModels() []*Model {
	ckptOnce.Do(func() { ckptModels = buildCkptModels(MSBO) })
	return ckptModels
}

// getLeanCkptModels is the same pair as an MSBI deployment provisions it
// (driftserve -selector msbi, the fleet the benchmark runs): no MSBO
// ensembles. Only MSBI monitors can run over it.
func getLeanCkptModels() []*Model {
	leanOnce.Do(func() { leanCkptModels = buildCkptModels(MSBI) })
	return leanCkptModels
}

// driftStream builds a per-shard live stream that starts in-distribution
// (day) and drifts to night at the given offset.
func driftStream(total, driftAt int, seed int64) []Frame {
	return append(
		vidsim.GenerateTrainingStride(facadeCond(vidsim.Day()), 16, 16, driftAt, 1, seed),
		vidsim.GenerateTrainingStride(facadeCond(vidsim.Night()), 16, 16, total-driftAt, 1, seed+1000)...)
}

// mustBatch feeds one frame per shard; a batch-shape error is a fixture
// bug in these fixed-fleet tests, so it panics.
func mustBatch(sm *ShardedMonitor, frames []Frame) []Event {
	batches := make([][]Frame, len(frames))
	for i := range frames {
		batches[i] = frames[i : i+1 : i+1]
	}
	evs := make([]Event, len(frames))
	for i, ev := range mustBatches(sm, batches) {
		evs[i] = ev[0]
	}
	return evs
}

// mustBatches is mustBatch for per-shard micro-batches.
func mustBatches(sm *ShardedMonitor, batches [][]Frame) [][]Event {
	evs, err := sm.ProcessBatches(batches)
	if err != nil {
		panic(err)
	}
	return evs
}

// runBatches feeds streams[s][from:to] to shard s and collects the
// per-shard events.
func runBatches(sm *ShardedMonitor, streams [][]Frame, from, to int) [][]Event {
	out := make([][]Event, len(streams))
	batch := make([]Frame, len(streams))
	for step := from; step < to; step++ {
		for s := range streams {
			batch[s] = streams[s][step]
		}
		for s, ev := range mustBatch(sm, batch) {
			out[s] = append(out[s], ev)
		}
	}
	return out
}

// TestRestartDeterminism is the subsystem's headline guarantee:
// checkpointing mid-stream — through the real on-disk store, not an
// in-memory copy — and resuming produces a monitor whose remaining event
// stream is bit-identical to the uninterrupted run's, for both selectors
// (MSBI over full and over ensemble-less models) and at 1 and 4 shards.
// The cut lands after some shards have drifted
// and before others, so monitoring, post-drift selection and freshly
// switched deployments all cross the restart boundary.
func TestRestartDeterminism(t *testing.T) {
	const total, cut = 200, 100

	for _, tc := range []struct {
		name     string
		selector Selector
		shards   int
		models   []*Model
	}{
		{"msbi-shards1", MSBI, 1, getCkptModels()},
		{"msbi-shards4", MSBI, 4, getCkptModels()},
		{"msbo-shards1", MSBO, 1, getCkptModels()},
		{"msbo-shards4", MSBO, 4, getCkptModels()},
		{"msbi-lean-shards1", MSBI, 1, getLeanCkptModels()},
		{"msbi-lean-shards4", MSBI, 4, getLeanCkptModels()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			models := tc.models
			opts := Defaults(facadeDim, facadeClasses)
			opts.Pipeline.Selector = tc.selector
			// Forensics rides through the same checkpoints; the restart must
			// preserve its declarations and pre-roll bit-identically too.
			opts.Forensics = ForensicsConfig{Enabled: true}
			sopts := ShardedOptions{Options: opts, Shards: tc.shards, Workers: 2}

			streams := make([][]Frame, tc.shards)
			for s := range streams {
				// Shard drift offsets straddle the cut point.
				streams[s] = driftStream(total, 60+25*s, int64(300+10*s))
			}

			ref := NewShardedMonitor(models, facadeLabeler, sopts)
			want := runBatches(ref, streams, 0, total)

			first := NewShardedMonitor(models, facadeLabeler, sopts)
			got := runBatches(first, streams, 0, cut)

			st, err := OpenStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.Save(first.Checkpoint()); err != nil {
				t.Fatalf("Save: %v", err)
			}
			cp, path, err := st.LoadLatest()
			if err != nil {
				t.Fatalf("LoadLatest: %v", err)
			}
			resumed, err := ResumeSharded(cp, facadeLabeler, sopts)
			if err != nil {
				t.Fatalf("ResumeSharded(%s): %v", path, err)
			}
			for s, evs := range runBatches(resumed, streams, cut, total) {
				got[s] = append(got[s], evs...)
			}

			for s := 0; s < tc.shards; s++ {
				if len(got[s]) != len(want[s]) {
					t.Fatalf("shard %d: %d events, want %d", s, len(got[s]), len(want[s]))
				}
				for step := range want[s] {
					if got[s][step] != want[s][step] {
						t.Fatalf("shard %d frame %d: resumed event %+v, uninterrupted %+v",
							s, step, got[s][step], want[s][step])
					}
				}
				if a, b := resumed.Shard(s).Current(), ref.Shard(s).Current(); a != b {
					t.Errorf("shard %d: resumed deployed %q, uninterrupted %q", s, a, b)
				}
				if a, b := resumed.ShardStats(s), ref.ShardStats(s); a != b {
					t.Errorf("shard %d: resumed stats %+v, uninterrupted %+v", s, a, b)
				}
				// The restored recorder must hold the same declarations the
				// uninterrupted run captured (gob may turn empty slices into
				// nil, so compare a bit-exact summary, not DeepEqual).
				da := resumed.Shard(s).Forensics().Declarations()
				db := ref.Shard(s).Forensics().Declarations()
				if len(da) != len(db) {
					t.Fatalf("shard %d: resumed retains %d declarations, uninterrupted %d", s, len(da), len(db))
				}
				for k := range db {
					if a, b := declSummary(da[k]), declSummary(db[k]); a != b {
						t.Errorf("shard %d declaration %d:\nresumed       %s\nuninterrupted %s", s, k, a, b)
					}
				}
			}
			// The interesting runs are the ones where something happened.
			if ref.Stats().DriftsDetected == 0 {
				t.Error("no shard detected its drift; the test exercised nothing")
			}
		})
	}
}

// TestMonitorCheckpointResume covers the single-stream facade path
// (Monitor.Checkpoint / Resume) including an encode round-trip.
func TestMonitorCheckpointResume(t *testing.T) {
	models := getCkptModels()
	opts := Defaults(facadeDim, facadeClasses)
	stream := driftStream(200, 80, 500)

	ref := NewMonitor(models, facadeLabeler, opts)
	var want []Event
	for _, f := range stream {
		want = append(want, ref.Process(f))
	}

	m := NewMonitor(models, facadeLabeler, opts)
	var got []Event
	const cut = 90
	for _, f := range stream[:cut] {
		got = append(got, m.Process(f))
	}
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	path, err := st.Save(m.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := Resume(cp, facadeLabeler, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range stream[cut:] {
		got = append(got, resumed.Process(f))
	}

	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("frame %d: resumed event %+v, uninterrupted %+v", i, got[i], want[i])
		}
	}
	if resumed.Current() != ref.Current() {
		t.Errorf("resumed deployed %q, uninterrupted %q", resumed.Current(), ref.Current())
	}
	if a, b := resumed.Stats(), ref.Stats(); a != b {
		t.Errorf("resumed stats %+v, uninterrupted %+v", a, b)
	}
	if ref.Stats().DriftsDetected == 0 {
		t.Error("reference run never drifted; the test exercised nothing")
	}

	// A sharded checkpoint must refuse the single-stream Resume.
	smCp := NewShardedMonitor(models, facadeLabeler,
		ShardedOptions{Options: opts, Shards: 2}).Checkpoint()
	if _, err := Resume(smCp, facadeLabeler, opts); err == nil {
		t.Error("Resume accepted a 2-shard checkpoint")
	}
	// And a shard-count mismatch must be rejected.
	if _, err := ResumeSharded(smCp, facadeLabeler,
		ShardedOptions{Options: opts, Shards: 3}); err == nil {
		t.Error("ResumeSharded accepted a shard-count mismatch")
	}
}

// TestCheckpointAnyTime pins the capture rule driftserve relies on: a
// goroutine may call ShardedMonitor.Checkpoint whenever it likes, with
// no handshake with the feed. Every capture lands on a batch boundary
// (all shards at the same frame here, since the feed is lockstep), the
// captures do not disturb the run, and a fleet resumed from a mid-run
// capture finishes the stream bit-identically to the uninterrupted run.
func TestCheckpointAnyTime(t *testing.T) {
	models := getCkptModels()
	const shards, total, resumes = 4, 200, 12
	opts := Defaults(facadeDim, facadeClasses)
	opts.Pipeline.Selector = MSBI
	opts.Forensics = ForensicsConfig{Enabled: true}
	sopts := ShardedOptions{Options: opts, Shards: shards, Workers: 2}
	streams := make([][]Frame, shards)
	for s := range streams {
		streams[s] = driftStream(total, 60+25*s, int64(300+10*s))
	}
	want := runBatches(NewShardedMonitor(models, facadeLabeler, sopts), streams, 0, total)

	live := NewShardedMonitor(models, facadeLabeler, sopts)
	stop := make(chan struct{})
	stopped := make(chan struct{})
	var captures int
	var kept []*Checkpoint // one per distinct stream position
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			cp := live.Checkpoint()
			captures++
			for s, sh := range cp.Shards {
				if f := int64(sh.Pipeline.Metrics.Frames); f != cp.Frames {
					t.Errorf("capture %d is torn: shard %d at frame %d, the checkpoint at %d", captures, s, f, cp.Frames)
				}
			}
			if len(kept) == 0 || kept[len(kept)-1].Frames != cp.Frames {
				kept = append(kept, cp)
			}
			runtime.Gosched()
		}
	}()
	// Both sides yield between calls so that on one processor the two
	// still interleave per batch instead of per 10 ms preemption.
	got := make([][]Event, shards)
	for step := 0; step < total; step++ {
		for s, evs := range runBatches(live, streams, step, step+1) {
			got[s] = append(got[s], evs...)
		}
		runtime.Gosched()
	}
	close(stop)
	<-stopped
	for s := range want {
		for step := range want[s] {
			if got[s][step] != want[s][step] {
				t.Fatalf("shard %d frame %d: event %+v under concurrent captures, %+v without", s, step, got[s][step], want[s][step])
			}
		}
	}

	var mid []*Checkpoint
	for _, cp := range kept {
		if cp.Frames > 0 && cp.Frames < total {
			mid = append(mid, cp)
		}
	}
	t.Logf("%d captures, %d distinct mid-run positions", captures, len(mid))
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(mid) < resumes {
		t.Fatalf("only %d mid-run captures at distinct positions; the capture goroutine was starved", len(mid))
	}
	for k := 0; k < resumes; k++ {
		// Through the on-disk codec, so the resumed fleet shares nothing
		// with the live one.
		path, err := st.Save(mid[k*len(mid)/resumes])
		if err != nil {
			t.Fatal(err)
		}
		cp, err := LoadCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		resumed, err := ResumeSharded(cp, facadeLabeler, sopts)
		if err != nil {
			t.Fatalf("resuming the capture at frame %d: %v", cp.Frames, err)
		}
		cut := int(cp.Frames)
		for s, evs := range runBatches(resumed, streams, cut, total) {
			for j, ev := range evs {
				if ev != want[s][cut+j] {
					t.Fatalf("capture at frame %d, shard %d frame %d: resumed event %+v, uninterrupted %+v", cut, s, cut+j, ev, want[s][cut+j])
				}
			}
		}
	}
}

// TestLeanModelsEqualFull: an MSBI monitor never reads an ensemble, so
// over the models an MSBI deployment provisions (none) it must do, frame
// for frame, what it does over the full ones: the same events, stats,
// pipeline state (RNG position included) and — through two drifts to
// unseen conditions — the same trained classifiers, none of them with an
// ensemble on either side.
func TestLeanModelsEqualFull(t *testing.T) {
	opts := Defaults(facadeDim, facadeClasses)
	opts.Pipeline.Selector = MSBI
	opts.Pipeline.NewModelFrames = 48
	opts.Provision.Classifier.Epochs = 10
	opts.Forensics = ForensicsConfig{Enabled: true}
	segment := func(c Condition, n int, seed int64) []Frame {
		return vidsim.GenerateTrainingStride(facadeCond(c), 16, 16, n, 1, seed)
	}
	stream := append(append(append(segment(vidsim.Day(), 120, 1), segment(vidsim.Night(), 120, 2)...),
		segment(vidsim.SnowCond(), 170, 3)...), segment(vidsim.RainCond(), 170, 4)...)

	full := NewMonitor(getCkptModels(), facadeLabeler, opts)
	lean := NewMonitor(getLeanCkptModels(), facadeLabeler, opts)
	want, got := full.ProcessBatch(stream), lean.ProcessBatch(stream)
	if !reflect.DeepEqual(got, want) {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("frame %d: over lean models %+v, over full ones %+v", i, got[i], want[i])
			}
		}
	}
	if a, b := lean.Stats(), full.Stats(); a != b || b.ModelsTrained < 2 || b.ModelsSelected < 1 {
		t.Fatalf("stats over lean models %+v, over full ones %+v; want them equal, with a selection and two trainings", a, b)
	}
	cl, cf := lean.Checkpoint(), full.Checkpoint()
	cl.CreatedUnixNano = cf.CreatedUnixNano
	if !reflect.DeepEqual(cl.Shards, cf.Shards) {
		t.Error("pipeline and forensics state over lean models differ from those over full ones")
	}
	for i, e := range cf.Entries {
		l := cl.Entries[i]
		if trained := i >= 2; l.Ensemble != nil || (e.Ensemble == nil) != trained {
			t.Errorf("model %q: ensemble over lean models %v, over full ones %v", e.Name, l.Ensemble != nil, e.Ensemble != nil)
		}
		// The rest of the entry must be the lean one's, byte for byte.
		stripped := &Model{
			Name: e.Name, W: e.W, H: e.H, SampleFeats: e.SampleFeats,
			CalibRaw: e.CalibRaw, Calib: e.Calib, Classifier: e.Classifier, CalibSample: e.CalibSample,
		}
		stripped.SetQueryFn(e.QueryFn())
		cf.Entries[i] = stripped
	}
	bl, err := store.Encode(cl)
	if err != nil {
		t.Fatal(err)
	}
	bf, err := store.Encode(cf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bl, bf) {
		t.Errorf("checkpoint over lean models (%d bytes) differs from the one over full models with their ensembles taken out (%d bytes)", len(bl), len(bf))
	}
}
