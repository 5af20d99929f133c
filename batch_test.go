package videodrift

import (
	"testing"

	"videodrift/internal/faults"
	"videodrift/internal/vidsim"
)

// batchTestStreams builds the 3-shard batching fixture: one steady shard
// and two that drift to night at different offsets, all the same length.
func batchTestStreams() [][]Frame {
	streams := make([][]Frame, 3)
	streams[0] = vidsim.GenerateTrainingStride(facadeCond(vidsim.Day()), 16, 16, 220, 1, 51)
	streams[1] = append(
		vidsim.GenerateTrainingStride(facadeCond(vidsim.Day()), 16, 16, 80, 1, 52),
		vidsim.GenerateTrainingStride(facadeCond(vidsim.Night()), 16, 16, 140, 1, 53)...)
	streams[2] = append(
		vidsim.GenerateTrainingStride(facadeCond(vidsim.Day()), 16, 16, 140, 1, 54),
		vidsim.GenerateTrainingStride(facadeCond(vidsim.Night()), 16, 16, 80, 1, 55)...)
	return streams
}

// serialReference replays shard s's stream through a standalone Monitor
// with the shard's seed, returning its per-frame events and the monitor
// for state comparison.
func serialReference(t *testing.T, models []*Model, opts Options, s int, stream []Frame) ([]Event, *Monitor) {
	t.Helper()
	shardOpts := opts
	shardOpts.Pipeline.Seed += int64(s)
	ref := NewMonitor(models, facadeLabeler, shardOpts)
	events := make([]Event, len(stream))
	for i, f := range stream {
		events[i] = ref.Process(f)
	}
	return events, ref
}

// TestShardedBatchedMatchesSerial is the micro-batching contract at the
// supervisor layer: ProcessBatches must emit bit-identical per-shard
// event streams to serial per-frame feeding, for any batch size
// (including a ragged tail) and any worker count.
func TestShardedBatchedMatchesSerial(t *testing.T) {
	opts := Defaults(facadeDim, facadeClasses)
	day := BuildModel("day", facadeFrames(facadeCond(vidsim.Day()), 200, 1), facadeLabeler, opts)
	night := BuildModel("night", facadeFrames(facadeCond(vidsim.Night()), 200, 2), facadeLabeler, opts)
	models := []*Model{day, night}
	streams := batchTestStreams()
	n := len(streams[0])

	for _, workers := range []int{1, 8} {
		for _, size := range []int{1, 7, 32} {
			sm := NewShardedMonitor(models, facadeLabeler, ShardedOptions{
				Options: opts, Shards: len(streams), Workers: workers,
			})
			got := make([][]Event, len(streams))
			for at := 0; at < n; at += size {
				end := min(at+size, n)
				batches := make([][]Frame, len(streams))
				for s := range streams {
					batches[s] = streams[s][at:end]
				}
				for s, evs := range mustBatches(sm, batches) {
					got[s] = append(got[s], evs...)
				}
			}
			for s := range streams {
				want, ref := serialReference(t, models, opts, s, streams[s])
				for i := range want {
					if got[s][i] != want[i] {
						t.Fatalf("workers=%d batch=%d shard %d frame %d: event %+v, serial %+v",
							workers, size, s, i, got[s][i], want[i])
					}
				}
				if sm.Shard(s).Current() != ref.Current() {
					t.Fatalf("workers=%d batch=%d shard %d: deployed %q, serial %q",
						workers, size, s, sm.Shard(s).Current(), ref.Current())
				}
				if sm.ShardStats(s) != ref.Stats() {
					t.Errorf("workers=%d batch=%d shard %d: stats %+v, serial %+v",
						workers, size, s, sm.ShardStats(s), ref.Stats())
				}
			}
		}
	}
}

// TestChaosBatchedEquivalence injects worker panics that land mid-batch
// and checks the batched supervised run against a fault-free serial run:
// events, deployments and the forensics recorder's state (pre-roll ring,
// declarations) must be bit-identical. This is the regression test for
// batch-granular crash recovery — without the forensics rewind, the
// batch re-run after a restore would duplicate pre-roll frames.
func TestChaosBatchedEquivalence(t *testing.T) {
	opts := Defaults(facadeDim, facadeClasses)
	opts.Forensics = ForensicsConfig{Enabled: true}
	day := BuildModel("day", facadeFrames(facadeCond(vidsim.Day()), 200, 1), facadeLabeler, opts)
	night := BuildModel("night", facadeFrames(facadeCond(vidsim.Night()), 200, 2), facadeLabeler, opts)
	models := []*Model{day, night}
	streams := batchTestStreams()
	n := len(streams[0])

	const size = 8
	// Panics chosen mid-batch (frame ≡ 3 mod 8): during shard 1's steady
	// day phase (pre-roll collecting), right after its drift window, and
	// deep in shard 2's day phase.
	inj := faults.NewInjector(faults.Schedule{Seed: 7, Faults: []faults.Fault{
		{Shard: 1, Frame: 35, Kind: faults.KindWorkerPanic},
		{Shard: 1, Frame: 131, Kind: faults.KindWorkerPanic},
		{Shard: 2, Frame: 67, Kind: faults.KindWorkerPanic},
	}})
	sm := NewShardedMonitor(models, facadeLabeler, ShardedOptions{
		Options: opts, Shards: len(streams), Workers: 8, Faults: inj,
	})
	got := make([][]Event, len(streams))
	for at := 0; at < n; at += size {
		end := min(at+size, n)
		batches := make([][]Frame, len(streams))
		for s := range streams {
			batches[s] = streams[s][at:end]
		}
		for s, evs := range mustBatches(sm, batches) {
			got[s] = append(got[s], evs...)
		}
	}

	h := sm.Health()
	if restarts := h.Shards[1].Restarts + h.Shards[2].Restarts; restarts != 3 {
		t.Fatalf("supervised restarts = %d, want 3", restarts)
	}
	for s := range streams {
		want, ref := serialReference(t, models, opts, s, streams[s])
		for i := range want {
			if got[s][i] != want[i] {
				t.Fatalf("shard %d frame %d: event %+v, fault-free serial %+v", s, i, got[s][i], want[i])
			}
		}
		if sm.Shard(s).Current() != ref.Current() {
			t.Fatalf("shard %d: deployed %q, fault-free serial %q", s, sm.Shard(s).Current(), ref.Current())
		}

		gs, ws := sm.Shard(s).Forensics().State(), ref.Forensics().State()
		if gs.Frame != ws.Frame || gs.Pending != ws.Pending {
			t.Fatalf("shard %d recorder position: frame %d/pending %v, serial %d/%v",
				s, gs.Frame, gs.Pending, ws.Frame, ws.Pending)
		}
		if len(gs.Ring) != len(ws.Ring) || gs.Marks[0].Frame != ws.Marks[0].Frame {
			t.Fatalf("shard %d pre-roll: %d frames from %d, serial %d from %d — batch re-run corrupted the ring",
				s, len(gs.Ring), gs.Marks[0].Frame, len(ws.Ring), ws.Marks[0].Frame)
		}
		for i := range gs.Ring {
			g, w := gs.Ring[i], ws.Ring[i]
			if g.Index != w.Index || g.Condition != w.Condition || len(g.Pixels) != len(w.Pixels) {
				t.Fatalf("shard %d pre-roll frame %d differs from serial: %d/%q vs %d/%q",
					s, i, g.Index, g.Condition, w.Index, w.Condition)
			}
			for p := range g.Pixels {
				if g.Pixels[p] != w.Pixels[p] {
					t.Fatalf("shard %d pre-roll frame %d pixel %d differs from serial", s, i, p)
				}
			}
		}
		if len(gs.Declarations) != len(ws.Declarations) {
			t.Fatalf("shard %d: %d declarations, serial %d", s, len(gs.Declarations), len(ws.Declarations))
		}
		for i := range gs.Declarations {
			g, w := gs.Declarations[i], ws.Declarations[i]
			if g.ID != w.ID || g.Frame != w.Frame || g.BaseFrame != w.BaseFrame ||
				len(g.Frames) != len(w.Frames) || g.Resolved != w.Resolved ||
				g.Resolution.Frame != w.Resolution.Frame || g.Resolution.Model != w.Resolution.Model {
				t.Fatalf("shard %d declaration %d: %+v, serial %+v", s, i, g, w)
			}
		}
	}
}
