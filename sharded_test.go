package videodrift

import (
	"errors"
	"testing"

	"videodrift/internal/vidsim"
)

// fixedFleet is a fleet of n unnamed streams attached at once, slot i
// reporting through tracers[i] when one is given: the fixed-size shape of
// the dynamic fleet.
func fixedFleet(models []*Model, labeler Labeler, opts ShardedOptions, n int, tracers ...*Tracer) *ShardedMonitor {
	sm := NewDynamicSharded(models, labeler, opts)
	for i := 0; i < n; i++ {
		var tr *Tracer
		if i < len(tracers) {
			tr = tracers[i]
		}
		if _, err := sm.Attach(tr); err != nil {
			panic(err)
		}
	}
	return sm
}

// TestShardedTracers pins the per-shard telemetry plumbing: each shard
// reports its own drift events through its own tracer.
func TestShardedTracers(t *testing.T) {
	opts := Defaults(facadeDim, facadeClasses)
	day := BuildModel("day", facadeFrames(facadeCond(vidsim.Day()), 200, 11), nil, opts)
	night := BuildModel("night", facadeFrames(facadeCond(vidsim.Night()), 200, 12), nil, opts)
	opts.Pipeline.Selector = MSBI // unsupervised entries: no labeler needed

	tracers := []*Tracer{NewTracer(TracerConfig{}), NewTracer(TracerConfig{})}
	sm := fixedFleet([]*Model{day, night}, nil, ShardedOptions{Options: opts}, 2, tracers...)
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

// TestShardedBatchShapeErrors pins the batch-shape contract: more
// batches than shard slots, or frames for a detached slot, are an error,
// never a crash; fewer batches than slots are not (slots only ever
// append, so a batch set assembled before an Attach still lines up).
func TestShardedBatchShapeErrors(t *testing.T) {
	opts := Defaults(facadeDim, facadeClasses)
	day := BuildModel("day", facadeFrames(facadeCond(vidsim.Day()), 120, 21), nil, opts)
	opts.Pipeline.Selector = MSBI
	sm := fixedFleet([]*Model{day}, nil, ShardedOptions{Options: opts}, 2)
	f := facadeFrames(facadeCond(vidsim.Day()), 1, 22)[0]

	if _, err := sm.ProcessBatches(make([][]Frame, 3)); err == nil {
		t.Fatal("ProcessBatches with more batches than slots returned no error")
	}
	if evs, err := sm.ProcessBatches([][]Frame{{f}}); err != nil || len(evs) != 1 || len(evs[0]) != 1 {
		t.Fatalf("one batch for two slots: %d event lists, %v; want slot 0's one event", len(evs), err)
	}
	if err := sm.Detach(1); err != nil {
		t.Fatal(err)
	}
	var detached *DetachedSlotError
	if _, err := sm.ProcessBatches([][]Frame{nil, {f}}); !errors.As(err, &detached) || detached.Slot != 1 {
		t.Fatalf("a frame for a detached slot: err %v, want *DetachedSlotError{Slot:1}", err)
	}
}
