package videodrift

import (
	"sync/atomic"
	"testing"
	"time"

	"videodrift/internal/faults"
)

// deliverStreams runs each shard's clean stream through the injector's
// frame-level faults (corruption, drops, duplicates) and truncates the
// ragged results to a common length so they can be fed batch-wise. The
// truncation point is part of the schedule's deterministic outcome.
func deliverStreams(inj *faults.Injector, streams [][]Frame) [][]Frame {
	delivered := make([][]Frame, len(streams))
	minLen := -1
	for s := range streams {
		for i, f := range streams[s] {
			delivered[s] = append(delivered[s], inj.Apply(s, i, f)...)
		}
		if minLen < 0 || len(delivered[s]) < minLen {
			minLen = len(delivered[s])
		}
	}
	for s := range delivered {
		delivered[s] = delivered[s][:minLen]
	}
	return delivered
}

// TestChaosReplayDeterminism replays three generated schedules end to
// end twice each: identical seeds must yield bit-identical event
// streams, deployments and metrics — a chaos run is as reproducible as
// a clean one.
func TestChaosReplayDeterminism(t *testing.T) {
	models := getCkptModels()
	const shards, total = 2, 160

	for _, seed := range []int64{11, 12, 13} {
		sched := faults.Generate(seed, faults.GenConfig{
			Shards: shards, Frames: total,
			CorruptRate: 0.05, DropRate: 0.02, DupRate: 0.02,
			Panics: 3, TrainFailures: 1,
		})
		run := func() ([][]Event, []string, Metrics) {
			inj := faults.NewInjector(sched)
			streams := make([][]Frame, shards)
			for s := range streams {
				streams[s] = driftStream(total, 50+20*s, seed+int64(10*s))
			}
			delivered := deliverStreams(inj, streams)
			opts := Defaults(facadeDim, facadeClasses)
			opts.Forensics = ForensicsConfig{Enabled: true}
			sm := fixedFleet(models, truthOracle(t, delivered...), ShardedOptions{Options: opts, BeforeProcess: inj.BeforeProcess, TrainFault: inj.TrainFault}, shards)
			events := runBatches(sm, delivered, 0, len(delivered[0]))
			deployed := make([]string, shards)
			for s := range deployed {
				deployed[s] = sm.Shard(s).Current()
				// What the recorder kept of a stream with corrupt frames in
				// it, across supervisor restores, still replays.
				for _, d := range sm.Shard(s).Forensics().Declarations() {
					if rep, err := sm.Shard(s).Explain(d.ID); err != nil || !rep.Replay.Matches {
						t.Errorf("seed %d shard %d %s: replay matches=%v, err %v", seed, s, d.ID, rep.Replay.Matches, err)
					}
				}
			}
			return events, deployed, sm.Stats()
		}
		e1, d1, m1 := run()
		e2, d2, m2 := run()
		for s := range e1 {
			if len(e1[s]) != len(e2[s]) {
				t.Fatalf("seed %d shard %d: replay produced %d events vs %d", seed, s, len(e2[s]), len(e1[s]))
			}
			for j := range e1[s] {
				if e1[s][j] != e2[s][j] {
					t.Fatalf("seed %d shard %d frame %d: %+v vs %+v", seed, s, j, e1[s][j], e2[s][j])
				}
			}
			if d1[s] != d2[s] {
				t.Fatalf("seed %d shard %d: deployed %q vs %q", seed, s, d1[s], d2[s])
			}
		}
		if m1 != m2 {
			t.Fatalf("seed %d: metrics %+v vs %+v", seed, m1, m2)
		}
	}
}

// TestChaosCrashLoopBreaker wedges one shard in a deterministic crash
// loop (a panic that re-fires on every supervised re-feed) and checks
// the circuit breaker: the shard fails after MaxRestarts restarts, its
// remaining frames are dropped and counted, and the healthy shard's
// stream is untouched.
func TestChaosCrashLoopBreaker(t *testing.T) {
	models := getCkptModels()
	const total, panicAt, maxRestarts = 20, 5, 2

	inj := faults.NewInjector(faults.Schedule{Seed: 31, Faults: []faults.Fault{
		{Shard: 1, Frame: panicAt, Kind: faults.KindWorkerPanic, Times: 10},
	}})
	tracers := []*Tracer{NewTracer(TracerConfig{}), NewTracer(TracerConfig{})}
	opts := Defaults(facadeDim, facadeClasses)
	sm := fixedFleet(models, facadeLabeler, ShardedOptions{
		Options: opts, BeforeProcess: inj.BeforeProcess, TrainFault: inj.TrainFault, MaxRestarts: maxRestarts,
	}, 2, tracers...)
	streams := [][]Frame{
		driftStream(total, 10, 991),
		driftStream(total, 10, 992),
	}
	events := runBatches(sm, streams, 0, total)

	h := sm.Health()
	if h.State != HealthFailed || h.Serving() {
		t.Fatalf("fleet health after crash loop = %+v", h)
	}
	if h.Shards[0].State == HealthFailed || h.Shards[0].Restarts != 0 {
		t.Errorf("healthy shard affected: %+v", h.Shards[0])
	}
	bad := h.Shards[1]
	if bad.State != HealthFailed || bad.Restarts != maxRestarts {
		t.Errorf("failed shard: %+v, want failed with %d restarts", bad, maxRestarts)
	}
	if want := total - panicAt; bad.DroppedFrames != want {
		t.Errorf("DroppedFrames = %d, want %d", bad.DroppedFrames, want)
	}
	for j := panicAt; j < total; j++ {
		if events[1][j] != (Event{}) {
			t.Fatalf("failed shard emitted a non-zero event at frame %d: %+v", j, events[1][j])
		}
	}
	if tracers[1].Health() != HealthFailed {
		t.Errorf("failed shard tracer health = %v", tracers[1].Health())
	}
	snap := tracers[1].Snapshot()
	if snap.WorkerRestarts != maxRestarts {
		t.Errorf("telemetry WorkerRestarts = %d, want %d", snap.WorkerRestarts, maxRestarts)
	}

	// The healthy shard's events must match a solo clean run.
	ref := NewMonitor(models, facadeLabeler, opts)
	for j, f := range streams[0] {
		if want := ref.Process(f); events[0][j] != want {
			t.Fatalf("healthy shard frame %d: %+v, clean %+v", j, events[0][j], want)
		}
	}
}

// TestChaosStallWatchdog wedges a worker on an injected stall and
// drives the watchdog with a fake clock: Health must flip to stalled
// (not serving) while the frame is in flight past StallTimeout, and
// recover the moment the worker finishes. No wall-clock sleeping.
func TestChaosStallWatchdog(t *testing.T) {
	models := getCkptModels()
	const stallAt = 3

	inj := faults.NewInjector(faults.Schedule{Seed: 41, Faults: []faults.Fault{
		{Shard: 0, Frame: stallAt, Kind: faults.KindWorkerStall, Stall: time.Hour},
	}})
	entered := make(chan struct{})
	release := make(chan struct{})
	inj.SetSleeper(func(time.Duration) {
		close(entered)
		<-release
	})
	var nanos atomic.Int64
	nanos.Store(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano())

	opts := Defaults(facadeDim, facadeClasses)
	sm := fixedFleet(models, facadeLabeler, ShardedOptions{
		Options: opts, BeforeProcess: inj.BeforeProcess, TrainFault: inj.TrainFault,
		StallTimeout: time.Second,
		Clock:        func() time.Time { return time.Unix(0, nanos.Load()) },
	}, 1)
	stream := driftStream(10, 5, 881)
	for j := 0; j < stallAt; j++ {
		mustBatch(sm, []Frame{stream[j]})
	}
	if h := sm.Health(); h.Stalled || !h.Serving() {
		t.Fatalf("health before stall = %+v", h)
	}

	done := make(chan []Event)
	go func() { done <- mustBatch(sm, []Frame{stream[stallAt]}) }()
	<-entered
	nanos.Add(int64(5 * time.Second))
	h := sm.Health()
	if !h.Stalled || h.Serving() || !h.Shards[0].Stalled || h.Shards[0].State != HealthDegraded {
		t.Fatalf("health mid-stall = %+v, want stalled and not serving", h)
	}
	close(release)
	<-done
	if h := sm.Health(); h.Stalled || !h.Serving() {
		t.Fatalf("health after stall cleared = %+v", h)
	}
}

// TestChaosTrainingFailureRecovery injects post-drift training failures
// into a sharded run on a novel distribution: the pipeline retries with
// frame-count backoff, health dips to degraded and recovers once the
// retrained model deploys, and the deployed-model sequence ends where
// the clean run's does.
func TestChaosTrainingFailureRecovery(t *testing.T) {
	models := getCkptModels()
	const total = 500

	inj := faults.NewInjector(faults.Schedule{Seed: 61, TrainFailures: 1})
	tracers := []*Tracer{NewTracer(TracerConfig{})}
	opts := Defaults(facadeDim, facadeClasses)
	opts.Pipeline.Selector = MSBI
	opts.Pipeline.TrainBackoffFrames = 8
	opts.Pipeline.NewModelFrames = 64
	// Scale down training so the novel model trains in test time.
	opts.Provision.VAEEpochs = 4
	opts.Provision.SampleCount = 80
	opts.Provision.EnsembleSize = 3
	opts.Provision.Classifier.Epochs = 30
	// A day-only registry leaves MSBI no acceptable candidate when the
	// stream turns to night, forcing a post-drift training.
	stream := driftStream(total, 60, 71)
	sm := fixedFleet(models[:1], truthOracle(t, stream), ShardedOptions{Options: opts, BeforeProcess: inj.BeforeProcess, TrainFault: inj.TrainFault}, 1, tracers...)
	sawDegraded := false
	for _, f := range stream {
		mustBatch(sm, []Frame{f})
		if tracers[0].Health() == HealthDegraded {
			sawDegraded = true
		}
	}
	if inj.TrainingFailuresFired() < 1 {
		t.Fatal("no injected training failure fired; stream never drifted to training")
	}
	stats := sm.Stats()
	if stats.TrainingFailures < 1 || stats.ModelsTrained < 1 {
		t.Fatalf("stats after training chaos: %+v", stats)
	}
	if !sawDegraded {
		t.Error("health never reported degraded during training retries")
	}
	if h := tracers[0].Health(); h != HealthOK {
		t.Errorf("health after recovery = %v, want ok", h)
	}
	if snap := tracers[0].Snapshot(); snap.TrainingFailures < 1 {
		t.Errorf("telemetry TrainingFailures = %d", snap.TrainingFailures)
	}
}
