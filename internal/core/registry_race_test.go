package core

import (
	"sync"
	"testing"

	"videodrift/internal/stats"
	"videodrift/internal/vidsim"
)

// TestRegistryConcurrentGrowth exercises the registry under the
// checkpointed multi-shard shape: reader goroutines continuously take
// registry snapshots and run MSBI selection over them (what shards do
// after a drift) while the main goroutine grows the registry with newly
// trained models. Run under -race, this pins down the Registry locking
// contract.
func TestRegistryConcurrentGrowth(t *testing.T) {
	f := getFixture()
	reg := NewRegistry(f.day)
	window := vidsim.KeepAll(streamFrames(nightC(), 15, 91))

	const readers = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := stats.NewRNG(seed)
			for {
				select {
				case <-stop:
					return
				default:
				}
				entries := reg.Entries()
				if len(entries) == 0 {
					t.Error("registry snapshot empty")
					return
				}
				MSBI(window, entries, DefaultMSBIConfig(), rng)
				_ = reg.Len()
				_ = reg.Names()
				_ = reg.Get("night")
				_ = reg.String()
			}
		}(int64(40 + w))
	}

	reg.Add(f.night)
	reg.Add(f.rain)
	close(stop)
	wg.Wait()

	if reg.Len() != 3 {
		t.Fatalf("registry has %d entries, want 3", reg.Len())
	}
	if got := reg.Names(); got[0] != "day" || got[1] != "night" || got[2] != "rain" {
		t.Errorf("insertion order lost: %v", got)
	}
	if reg.Get("rain") != f.rain {
		t.Error("Get(rain) returned the wrong entry")
	}
	// A snapshot taken before growth must not see later entries.
	snap := reg.Entries()
	reg.Add(f.day)
	if len(snap) != 3 {
		t.Errorf("snapshot mutated by a later Add: %d entries", len(snap))
	}
}

// TestRegistrySnapshotEpochs pins the copy-on-write contract the
// per-shard entry lists rely on: each Add publishes a snapshot one entry
// longer, and snapshots are immutable prefix-consistent views.
func TestRegistrySnapshotEpochs(t *testing.T) {
	f := getFixture()
	reg := NewRegistry(f.day)
	s0 := reg.Snapshot()
	if s0.Len() != 1 {
		t.Fatalf("fresh registry snapshot: len=%d, want 1", s0.Len())
	}
	reg.Add(f.night)
	s1 := reg.Snapshot()
	reg.Add(f.rain)
	s2 := reg.Snapshot()
	if s1.Len() != 2 || s2.Len() != 3 {
		t.Fatalf("lengths after two Adds: %d, %d, want 2, 3", s1.Len(), s2.Len())
	}
	// Prefix stability: every older snapshot is a prefix of every newer
	// one, entry for entry.
	for _, pair := range [][2]*RegistrySnap{{s0, s1}, {s1, s2}, {s0, s2}} {
		old, new := pair[0], pair[1]
		if old.Len() >= new.Len() {
			t.Fatalf("older snapshot not shorter: %d vs %d", old.Len(), new.Len())
		}
		for i, e := range old.Entries() {
			if new.Entries()[i] != e {
				t.Fatalf("entry %d differs between snapshots of %d and %d entries", i, old.Len(), new.Len())
			}
		}
	}
	// Without an Add between them, two snapshots are the same view.
	if again := reg.Snapshot(); again.Len() != s2.Len() {
		t.Errorf("re-taken snapshot holds %d entries, want %d", again.Len(), s2.Len())
	}
}

// TestRegistrySnapshotConcurrent grows the registry while readers
// continuously take lock-free snapshots, asserting under -race that a
// snapshot never shrinks and keeps the entries it started with.
func TestRegistrySnapshotConcurrent(t *testing.T) {
	f := getFixture()
	reg := NewRegistry(f.day)
	const readers = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := reg.Snapshot()
				if s.Len() < last {
					t.Errorf("snapshot shrank: %d entries after %d", s.Len(), last)
					return
				}
				last = s.Len()
				if s.Entries()[0] != f.day {
					t.Errorf("snapshot of %d entries lost the first", s.Len())
					return
				}
			}
		}()
	}
	for i := 0; i < 16; i++ {
		if i%2 == 0 {
			reg.Add(f.night)
		} else {
			reg.Add(f.rain)
		}
	}
	close(stop)
	wg.Wait()
	if got := reg.Snapshot(); got.Len() != 17 {
		t.Fatalf("final snapshot len=%d, want 17", got.Len())
	}
}
