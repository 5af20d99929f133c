package videodrift

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"videodrift/internal/store"
	"videodrift/internal/vidsim"
)

// TestDynamicAttachDetach pins the dynamic-fleet lifecycle: a fleet
// born empty, shards attached on demand to the lowest free slot, detached
// slots rejecting frames but tolerating empty batches, and freed slots
// reused with fresh state. That an attached slot runs exactly its serial
// monitor, seeded by slot, is the equivalence harness's (equiv_test.go).
func TestDynamicAttachDetach(t *testing.T) {
	opts := Defaults(facadeDim, facadeClasses)
	models := getCkptModels()
	frames := driftStream(3, 1, 5)

	sm := NewDynamicSharded(models, facadeLabeler, ShardedOptions{Options: opts, Workers: 2})
	if sm.Shards() != 0 || sm.Active() != 0 {
		t.Fatalf("fresh dynamic fleet: %d slots, %d active", sm.Shards(), sm.Active())
	}
	for want := 0; want < 3; want++ {
		slot, err := sm.Attach(nil)
		if err != nil {
			t.Fatal(err)
		}
		if slot != want {
			t.Fatalf("attach %d landed on slot %d", want, slot)
		}
	}

	mustBatches(sm, [][]Frame{{frames[0]}, {frames[1]}, {frames[2]}})

	// Detach the middle slot: it disappears from the roster but keeps
	// its index; empty batches for it are fine, frames are not.
	if err := sm.Detach(1); err != nil {
		t.Fatal(err)
	}
	if sm.Shards() != 3 || sm.Active() != 2 || sm.Shard(1) != nil {
		t.Fatalf("after detach: %d slots, %d active, shard(1)=%v", sm.Shards(), sm.Active(), sm.Shard(1))
	}
	if !sm.Health().Shards[1].Detached {
		t.Fatal("health does not report slot 1 detached")
	}
	if _, err := sm.ProcessBatches([][]Frame{{frames[0]}, nil, {frames[2]}}); err != nil {
		t.Fatalf("empty batch for a detached slot must pass: %v", err)
	}
	var detached *DetachedSlotError
	_, err := sm.ProcessBatches([][]Frame{nil, {frames[1]}, nil})
	if !errors.As(err, &detached) || detached.Slot != 1 {
		t.Fatalf("frame for a detached slot: err %v, want *DetachedSlotError{Slot:1}", err)
	}
	if err := sm.Detach(1); err == nil {
		t.Fatal("double detach must error")
	}

	// Reattach reuses the freed slot with fresh state.
	slot, err := sm.Attach(nil)
	if err != nil {
		t.Fatal(err)
	}
	if slot != 1 {
		t.Fatalf("reattach landed on slot %d, want reused slot 1", slot)
	}
	if stats := sm.ShardStats(1); stats.Frames != 0 {
		t.Fatalf("reused slot kept %d frames of state", stats.Frames)
	}
	if sm.Shard(1).Current() != models[0].Name {
		t.Fatalf("reused slot deploys %q, want the base model", sm.Shard(1).Current())
	}
}

// TestDynamicEmptyFleetCheckpoint pins what a standby that promotes
// before any tenant ever attached depends on: an empty dynamic fleet's
// checkpoint carries the provisioned models, in order, through the
// codec, and the fleet a promotion builds over them attaches a tenant
// and serves it exactly as the original would have. A tenant that came
// and went leaves the table as it was.
func TestDynamicEmptyFleetCheckpoint(t *testing.T) {
	models := getCkptModels()
	opts := ShardedOptions{Options: Defaults(facadeDim, facadeClasses), Workers: 2}
	stream := driftStream(120, 40, 7)
	label := truthOracle(t, stream)

	sm := NewDynamicSharded(models, label, opts)
	cp := sm.Checkpoint()
	if len(cp.Shards) != 0 || !slices.Equal(cp.Entries, models) {
		t.Fatalf("empty fleet checkpointed %d shards and %d entries, want 0 shards and the %d provisioned models in order",
			len(cp.Shards), len(cp.Entries), len(models))
	}
	wire, err := store.Encode(cp)
	if err != nil {
		t.Fatal(err)
	}
	replicated, err := store.Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	promoted := NewDynamicSharded(replicated.Entries, label, opts)
	for _, fleet := range []*ShardedMonitor{sm, promoted} {
		if slot, err := fleet.Attach(nil); err != nil || slot != 0 {
			t.Fatalf("attach over %d checkpointed models: slot %d, %v", len(replicated.Entries), slot, err)
		}
	}
	want, got := mustBatches(sm, [][]Frame{stream}), mustBatches(promoted, [][]Frame{stream})
	if !slices.Equal(got[0], want[0]) {
		t.Fatal("the promoted fleet's tenant diverged from the original fleet's")
	}
	if sm.Stats().DriftsDetected == 0 {
		t.Fatal("the fixture stream never drifted; the comparison tested nothing")
	}

	if err := promoted.Detach(0); err != nil {
		t.Fatal(err)
	}
	if again := promoted.Checkpoint(); len(again.Shards) != 0 || !slices.Equal(again.Entries, replicated.Entries) {
		t.Fatalf("after attach and detach: %d shards, %d entries, want the %d provisioned models again",
			len(again.Shards), len(again.Entries), len(replicated.Entries))
	}
}

// TestDynamicConcurrentHealth races Health/Stats/Checkpoint observers
// against ProcessBatches and attach/detach churn — the ingest tier's
// actual concurrency shape (connection handlers attach, the pump
// processes, /healthz observes). Run under -race this is the fleet's
// thread-safety contract; a batch set sized before a concurrent attach
// is still a valid one, so the feeder sees no error at all.
func TestDynamicConcurrentHealth(t *testing.T) {
	opts := Defaults(facadeDim, facadeClasses)
	day := BuildModel("day", facadeFrames(facadeCond(vidsim.Day()), 200, 1), facadeLabeler, opts)
	models := []*Model{day}
	frames := facadeFrames(facadeCond(vidsim.Day()), 64, 3)

	sm := NewDynamicSharded(models, facadeLabeler, ShardedOptions{Options: opts, Workers: 2})
	if _, err := sm.Attach(nil); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup

	// Feeder: keep slot 0 busy, sizing each batch set to the slot count
	// an attach may grow before the call.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			batches := make([][]Frame, sm.Shards())
			if len(batches) == 0 {
				continue
			}
			batches[0] = []Frame{frames[i%len(frames)]}
			if _, err := sm.ProcessBatches(batches); err != nil {
				t.Errorf("feeder: %v", err)
				return
			}
		}
	}()

	// Churner: attach and detach a second slot in a loop.
	churnDone := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(churnDone)
		for i := 0; i < 200; i++ {
			slot, err := sm.Attach(nil)
			if err != nil {
				t.Errorf("churn attach: %v", err)
				return
			}
			if slot == 0 {
				t.Error("churn attach stole the feeder's slot")
				return
			}
			if err := sm.Detach(slot); err != nil {
				t.Errorf("churn detach: %v", err)
				return
			}
		}
	}()

	// Observers: health and stats race both of the above, the shape a
	// /healthz handler sees. (Checkpoint is NOT here: its contract
	// forbids calling it concurrently with batch processing.)
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				h := sm.Health()
				if len(h.Shards) > 0 && h.Shards[0].Detached {
					t.Error("observer saw the feeder's slot detached")
					return
				}
				_ = sm.Stats()
				_ = sm.ShardStats(0)
			}
		}()
	}

	// Let the churner finish its 200 rounds, then wind everyone down.
	<-churnDone
	stop.Store(true)
	wg.Wait()
	if sm.Active() != 1 {
		t.Fatalf("after churn: %d active slots, want the feeder's 1", sm.Active())
	}
	if sm.Stats().Frames == 0 {
		t.Fatal("feeder never processed a frame — the race exercised nothing")
	}
}
