package serve

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"videodrift"
	"videodrift/internal/core"
	"videodrift/internal/dataset"
	"videodrift/internal/faults"
	"videodrift/internal/query"
	"videodrift/internal/store"
	"videodrift/internal/telemetry"
)

func TestRetryPolicy(t *testing.T) {
	var sleeps []time.Duration
	p := retryPolicy{Attempts: 4, Base: time.Second, Cap: 2 * time.Second,
		Sleep: func(d time.Duration) { sleeps = append(sleeps, d) }}
	calls, failures := 0, 0
	err := p.Do(func() error {
		calls++
		if calls < 3 {
			return faults.ErrInjected
		}
		return nil
	}, func(attempt int, err error) { failures++ })
	if err != nil || calls != 3 || failures != 2 {
		t.Fatalf("err=%v calls=%d failures=%d", err, calls, failures)
	}
	want := []time.Duration{time.Second, 2 * time.Second}
	if !reflect.DeepEqual(sleeps, want) {
		t.Errorf("backoffs = %v, want %v", sleeps, want)
	}

	calls = 0
	err = p.Do(func() error { calls++; return faults.ErrInjected }, nil)
	if !errors.Is(err, faults.ErrInjected) || calls != 4 {
		t.Errorf("exhausted policy: err=%v calls=%d", err, calls)
	}
}

// TestChaosCheckpointRetry drives checkpoint saves through a FlakyFS
// that tears the first write at a scheduled byte offset, wrapped in the
// capped-backoff retry policy the server's checkpoint writes use: the
// failure is counted and traced, the retry lands, and LoadLatest returns
// the checkpoint.
func TestChaosCheckpointRetry(t *testing.T) {
	cfg := testConfig()
	ds := dataset.BDD(cfg.Scale)
	set := buildEnv(ds, modelSetOf(cfg), query.Count, core.SelectorMSBI)
	pcfg := set.PipelineConfig(core.SelectorMSBI)
	opts := videodrift.Options{Provision: pcfg.Provision, Pipeline: pcfg}
	mon := videodrift.NewMonitor(set.Registry.Entries(), set.Labeler(), opts)
	next := ds.TenantStream(0)
	for range 60 {
		mon.Process(next())
	}
	cp := mon.Checkpoint()

	ffs := faults.NewFlakyFS(store.NewMemFS(), faults.Schedule{
		CheckpointFaults: map[int]int{0: 64},
	})
	st, err := store.OpenFS("/ckpt", ffs)
	if err != nil {
		t.Fatal(err)
	}
	tr := telemetry.New(telemetry.Config{})
	var sleeps int
	policy := retryPolicy{Attempts: 3, Base: time.Millisecond, Cap: time.Millisecond,
		Sleep: func(time.Duration) { sleeps++ }}
	err = policy.Do(func() error {
		_, serr := st.Save(cp)
		return serr
	}, func(attempt int, ferr error) {
		tr.CheckpointFailed(attempt, ferr.Error())
		if !errors.Is(ferr, faults.ErrInjected) {
			t.Fatalf("attempt %d failed with a real error: %v", attempt, ferr)
		}
	})
	if err != nil {
		t.Fatalf("save never succeeded: %v", err)
	}
	if ffs.Injured() != 1 || sleeps != 1 {
		t.Errorf("injured=%d sleeps=%d, want 1 and 1", ffs.Injured(), sleeps)
	}
	if snap := tr.Snapshot(); snap.CheckpointFailures != 1 {
		t.Errorf("telemetry CheckpointFailures = %d", snap.CheckpointFailures)
	}
	loaded, _, err := st.LoadLatest()
	if err != nil {
		t.Fatalf("LoadLatest after retried save: %v", err)
	}
	if loaded.Frames != cp.Frames || len(loaded.Shards) != 1 {
		t.Errorf("recovered checkpoint frames=%d shards=%d, want %d and 1",
			loaded.Frames, len(loaded.Shards), cp.Frames)
	}
	resumed, err := videodrift.Resume(loaded, set.Labeler(), opts)
	if err != nil {
		t.Fatalf("resume from retried checkpoint: %v", err)
	}
	if resumed.Current() != mon.Current() {
		t.Errorf("resumed deploys %q, original %q", resumed.Current(), mon.Current())
	}
}
