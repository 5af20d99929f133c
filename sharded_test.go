package videodrift

import (
	"errors"
	"testing"

	"videodrift/internal/vidsim"
)

// TestShardedMatchesSerial is the sharding contract: shard i of a
// ShardedMonitor, fed through concurrent ProcessBatch calls, must emit
// exactly the event stream a standalone Monitor with the same seed
// produces on the same frames — drifts, switches and predictions
// included, for any worker count.
func TestShardedMatchesSerial(t *testing.T) {
	opts := Defaults(facadeDim, facadeClasses)
	day := BuildModel("day", facadeFrames(facadeCond(vidsim.Day()), 200, 1), facadeLabeler, opts)
	night := BuildModel("night", facadeFrames(facadeCond(vidsim.Night()), 200, 2), facadeLabeler, opts)
	models := []*Model{day, night}

	const shards = 3
	// Per-shard streams: shard 0 stays in-distribution, shards 1 and 2
	// drift to night at different offsets.
	streams := make([][]Frame, shards)
	streams[0] = vidsim.GenerateTrainingStride(facadeCond(vidsim.Day()), 16, 16, 220, 1, 31)
	streams[1] = append(
		vidsim.GenerateTrainingStride(facadeCond(vidsim.Day()), 16, 16, 80, 1, 32),
		vidsim.GenerateTrainingStride(facadeCond(vidsim.Night()), 16, 16, 140, 1, 33)...)
	streams[2] = append(
		vidsim.GenerateTrainingStride(facadeCond(vidsim.Day()), 16, 16, 140, 1, 34),
		vidsim.GenerateTrainingStride(facadeCond(vidsim.Night()), 16, 16, 80, 1, 35)...)

	for _, workers := range []int{1, 4} {
		sm := NewShardedMonitor(models, facadeLabeler, ShardedOptions{
			Options: opts, Shards: shards, Workers: workers,
		})
		got := make([][]Event, shards)
		batch := make([]Frame, shards)
		for step := 0; step < len(streams[0]); step++ {
			for s := 0; s < shards; s++ {
				batch[s] = streams[s][step]
			}
			for s, ev := range mustBatch(sm, batch) {
				got[s] = append(got[s], ev)
			}
		}

		for s := 0; s < shards; s++ {
			shardOpts := opts
			shardOpts.Pipeline.Seed += int64(s)
			ref := NewMonitor(models, facadeLabeler, shardOpts)
			for step := 0; step < len(streams[s]); step++ {
				want := ref.Process(streams[s][step])
				if got[s][step] != want {
					t.Fatalf("workers=%d shard %d frame %d: event %+v, serial %+v",
						workers, s, step, got[s][step], want)
				}
			}
			if sm.Shard(s).Current() != ref.Current() {
				t.Fatalf("workers=%d shard %d: deployed %q, serial %q",
					workers, s, sm.Shard(s).Current(), ref.Current())
			}
		}

		agg := sm.Stats()
		if agg.Frames != shards*len(streams[0]) {
			t.Errorf("aggregate frames = %d, want %d", agg.Frames, shards*len(streams[0]))
		}
		var driftShards int
		for s := 0; s < shards; s++ {
			if sm.ShardStats(s).DriftsDetected > 0 {
				driftShards++
			}
		}
		if driftShards < 2 {
			t.Errorf("only %d shards detected their drift", driftShards)
		}
		if agg.DriftsDetected < 2 {
			t.Errorf("aggregate drifts = %d, want >= 2", agg.DriftsDetected)
		}
	}
}

// TestShardedTracers pins the per-shard telemetry plumbing: each shard
// reports its own drift events through its own tracer.
func TestShardedTracers(t *testing.T) {
	opts := Defaults(facadeDim, facadeClasses)
	day := BuildModel("day", facadeFrames(facadeCond(vidsim.Day()), 200, 11), nil, opts)
	night := BuildModel("night", facadeFrames(facadeCond(vidsim.Night()), 200, 12), nil, opts)
	opts.Pipeline.Selector = MSBI // unsupervised entries: no labeler needed

	tracers := []*Tracer{NewTracer(TracerConfig{}), NewTracer(TracerConfig{})}
	sm := NewShardedMonitor([]*Model{day, night}, nil, ShardedOptions{
		Options: opts, Shards: 2, Tracers: tracers,
	})
	steady := vidsim.GenerateTrainingStride(facadeCond(vidsim.Day()), 16, 16, 200, 1, 41)
	drifting := append(
		vidsim.GenerateTrainingStride(facadeCond(vidsim.Day()), 16, 16, 60, 1, 42),
		vidsim.GenerateTrainingStride(facadeCond(vidsim.Night()), 16, 16, 140, 1, 43)...)
	for step := range steady {
		mustBatch(sm, []Frame{steady[step], drifting[step]})
	}
	if got := tracers[1].Snapshot().Drifts; got < 1 {
		t.Errorf("drifting shard reported %d drifts in its tracer", got)
	}
	if got := tracers[0].Snapshot().Drifts; got != 0 {
		t.Errorf("steady shard reported %d drifts", got)
	}
	if sm.Shard(0).Telemetry() != tracers[0] {
		t.Error("Shard(0).Telemetry() is not the attached tracer")
	}
}

func TestShardedPanics(t *testing.T) {
	opts := Defaults(facadeDim, facadeClasses)
	day := BuildModel("day", facadeFrames(facadeCond(vidsim.Day()), 120, 21), nil, opts)
	opts.Pipeline.Selector = MSBI
	check := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	check("zero shards", func() {
		NewShardedMonitor([]*Model{day}, nil, ShardedOptions{Options: opts, Shards: 0})
	})
	check("short tracers", func() {
		NewShardedMonitor([]*Model{day}, nil, ShardedOptions{
			Options: opts, Shards: 2, Tracers: []*Tracer{NewTracer(TracerConfig{})},
		})
	})
}

// TestShardedBatchShapeErrors pins the typed-error contract that
// replaced the old batch-shape panics: with dynamic attach/detach a
// count mismatch is reachable in normal operation, so it must surface
// as a retryable error, never a crash.
func TestShardedBatchShapeErrors(t *testing.T) {
	opts := Defaults(facadeDim, facadeClasses)
	day := BuildModel("day", facadeFrames(facadeCond(vidsim.Day()), 120, 21), nil, opts)
	opts.Pipeline.Selector = MSBI
	sm := NewShardedMonitor([]*Model{day}, nil, ShardedOptions{Options: opts, Shards: 1})

	if _, err := sm.ProcessBatches(make([][]Frame, 3)); err == nil {
		t.Fatal("ProcessBatches with a batch-count mismatch returned no error")
	} else {
		var mismatch *BatchMismatchError
		if !errors.As(err, &mismatch) || mismatch.Batches != 3 || mismatch.Slots != 1 {
			t.Fatalf("ProcessBatches mismatch error = %v", err)
		}
	}

	// A batcher whose queues outgrew the fleet reports the mismatch on
	// flush and keeps the frames (no silent drop).
	b := sm.NewBatcher(8)
	f := facadeFrames(facadeCond(vidsim.Day()), 1, 22)[0]
	if _, err := b.Add(2, f); err != nil {
		t.Fatalf("Batcher.Add below the flush threshold errored: %v", err)
	}
	if _, err := b.Flush(); err == nil {
		t.Fatal("Batcher.Flush with queues beyond the fleet returned no error")
	}
	if b.Queued(2) != 1 {
		t.Fatalf("queued = %d after a failed flush, want 1 (frames must survive errors)", b.Queued(2))
	}
}
