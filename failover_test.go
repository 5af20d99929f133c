package videodrift

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"reflect"
	"testing"

	"videodrift/internal/faults"
	"videodrift/internal/replica"
	"videodrift/internal/store"
	"videodrift/internal/telemetry"
)

// failoverHarness is one primary→standby replication pair over real
// loopback TCP: the standby serves on an ephemeral port, the primary
// captures the fleet between batches and ships one generation per
// Cycle, so generation numbers equal frame offsets.
type failoverHarness struct {
	sb   *replica.Standby
	prim *replica.Primary
	tr   *telemetry.Tracer
	addr string
}

// newFailoverHarness wires a fleet to a fresh standby. txFault is the
// optional seeded replication-fault seam.
func newFailoverHarness(t *testing.T, sm *ShardedMonitor, txFault func(int, []byte) ([]byte, bool)) *failoverHarness {
	t.Helper()
	tr := telemetry.New(telemetry.Config{})
	sb := replica.NewStandby(replica.StandbyConfig{Tracer: tr, Logf: t.Logf})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go sb.Serve(ln)
	t.Cleanup(func() {
		ln.Close()
		sb.Close()
	})
	prim := replica.NewPrimary(replica.PrimaryConfig{
		Addrs:   []string{ln.Addr().String()},
		Capture: func() *store.Checkpoint { return sm.Checkpoint() },
		Tracer:  tr,
		Logf:    t.Logf,
		TxFault: txFault,
	})
	t.Cleanup(prim.Close)
	return &failoverHarness{sb: sb, prim: prim, tr: tr, addr: ln.Addr().String()}
}

// feedBatches feeds streams[s][from:to] to shard s of sm and returns
// the per-shard events, calling cycle (if non-nil) after every batch.
// Non-fencing replication errors are tolerated: an injected fault
// costs standby lag, never a crash.
func feedBatches(t *testing.T, sm *ShardedMonitor, streams [][]Frame, from, to int, cycle func() error) [][]Event {
	t.Helper()
	out := make([][]Event, len(streams))
	batch := make([]Frame, len(streams))
	for step := from; step < to; step++ {
		for s := range streams {
			batch[s] = streams[s][step]
		}
		for s, ev := range mustBatch(sm, batch) {
			out[s] = append(out[s], ev)
		}
		if cycle != nil {
			if err := cycle(); err != nil {
				if errors.Is(err, replica.ErrFenced) {
					t.Fatalf("primary fenced mid-run after frame %d", step)
				}
				t.Logf("cycle after frame %d: %v (standby lags)", step, err)
			}
		}
	}
	return out
}

// promoteAndResume kills the primary, promotes the standby and builds
// a live fleet from the replicated checkpoint, returning the fleet,
// the generation it resumes from and the new fencing epoch.
func (h *failoverHarness) promoteAndResume(t *testing.T, sopts ShardedOptions) (*ShardedMonitor, int, uint64) {
	t.Helper()
	h.prim.Close() // kill -9: the primary never speaks again
	cp, epoch, err := h.sb.Promote("test kill")
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	resumed, err := ResumeSharded(cp, facadeLabeler, sopts)
	if err != nil {
		t.Fatalf("ResumeSharded(replicated gen %d): %v", cp.Gen, err)
	}
	return resumed, int(cp.Gen), epoch
}

// compareContinuation requires the promoted fleet's event stream,
// deployments, per-shard stats and retained drift declarations (with
// their replayed reports) from frame g onward to be bit-identical to the
// uninterrupted reference run's.
func compareContinuation(t *testing.T, resumed, ref *ShardedMonitor, got, want [][]Event, g int) {
	t.Helper()
	for s := range want {
		suffix := want[s][g:]
		if len(got[s]) != len(suffix) {
			t.Fatalf("shard %d: %d events after promotion, want %d", s, len(got[s]), len(suffix))
		}
		for i := range suffix {
			if got[s][i] != suffix[i] {
				t.Fatalf("shard %d frame %d: promoted event %+v, uninterrupted %+v",
					s, g+i, got[s][i], suffix[i])
			}
		}
		if a, b := resumed.Shard(s).Current(), ref.Shard(s).Current(); a != b {
			t.Errorf("shard %d: promoted deployed %q, uninterrupted %q", s, a, b)
		}
		if a, b := resumed.ShardStats(s), ref.ShardStats(s); a != b {
			t.Errorf("shard %d: promoted stats %+v, uninterrupted %+v", s, a, b)
		}
		gotDecls, gotReports := declared(t, resumed.Shard(s))
		wantDecls, wantReports := declared(t, ref.Shard(s))
		if !reflect.DeepEqual(stored(t, gotDecls), stored(t, wantDecls)) || !reflect.DeepEqual(stored(t, gotReports), stored(t, wantReports)) {
			t.Errorf("shard %d: promoted declarations or their reports differ from the uninterrupted run's", s)
		}
	}
	if ref.Stats().DriftsDetected == 0 {
		t.Error("reference run never drifted; the failover exercised nothing")
	}
}

// stored is v as a checkpoint hands it back: gob, which a promoted
// recorder's state went through, does not tell a nil slice from an empty
// one.
func stored[T any](t *testing.T, v T) T {
	t.Helper()
	var buf bytes.Buffer
	var out T
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFailoverDeterminism is the headline high-availability guarantee:
// kill the primary at an arbitrary frame offset and the promoted
// standby's subsequent event stream — drift declarations, selections,
// deployments, per-shard stats — is bit-identical to the run the
// primary would have produced uninterrupted. Every batch ships one
// replicated generation, so the kill point is frame-granular; each
// config runs its own seed with a seed-derived kill offset, for both
// selectors (MSBI over full and over ensemble-less models) at 1 and 4
// shards. The tenant rows attach each stream by name as an ingestion
// router does, mid-stream at a position of its own: the promoted fleet
// must hold every tenant under its name at the position it reached.
func TestFailoverDeterminism(t *testing.T) {
	const total = 200

	for _, tc := range []struct {
		name     string
		selector Selector
		shards   int
		seed     int64
		models   []*Model
		tenants  bool
	}{
		{"msbi-shards1", MSBI, 1, 601, getCkptModels(), false},
		{"msbi-shards4", MSBI, 4, 602, getCkptModels(), false},
		{"msbo-shards1", MSBO, 1, 603, getCkptModels(), false},
		{"msbo-shards4", MSBO, 4, 604, getCkptModels(), false},
		{"msbi-lean-shards1", MSBI, 1, 605, getLeanCkptModels(), false},
		{"msbi-lean-shards4", MSBI, 4, 606, getLeanCkptModels(), false},
		{"msbo-tenants1", MSBO, 1, 607, getCkptModels(), true},
		{"msbi-lean-tenants4", MSBI, 4, 608, getLeanCkptModels(), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			models := tc.models
			// The kill offset is seed-derived and deliberately not round:
			// across the table it lands before, between and after the
			// per-shard drift offsets (60+25s).
			killAt := 55 + int(tc.seed*31%97)
			opts := Defaults(facadeDim, facadeClasses)
			opts.Pipeline.Selector = tc.selector
			opts.Forensics.Enabled = true
			sopts := ShardedOptions{Options: opts, Shards: tc.shards, Workers: 2}

			streams := make([][]Frame, tc.shards)
			for s := range streams {
				streams[s] = driftStream(total, 60+25*s, tc.seed*1000+int64(10*s))
			}
			tenant := func(s int) (string, int) { return fmt.Sprintf("cam-%d", s), 1000*s + 17 }
			fleet := func() *ShardedMonitor {
				if !tc.tenants {
					return NewShardedMonitor(models, facadeLabeler, sopts)
				}
				sm := NewDynamicSharded(models, facadeLabeler, sopts)
				for s := range streams {
					id, start := tenant(s)
					if _, err := sm.AttachTenant(id, uint64(start), nil); err != nil {
						t.Fatal(err)
					}
				}
				return sm
			}
			// checkTenants holds every slot to its tenant at stream position at.
			checkTenants := func(sm *ShardedMonitor, at int) {
				t.Helper()
				for s := range streams {
					id, start := tenant(s)
					if !tc.tenants {
						id, start = "", 0
					}
					if gotID, next := sm.Tenant(s); gotID != id || (tc.tenants && next != uint64(start+at)) {
						t.Errorf("slot %d serves %q at %d, want %q at %d", s, gotID, next, id, start+at)
					}
				}
			}
			if tc.tenants {
				for s := range streams {
					_, start := tenant(s)
					for i := range streams[s] {
						streams[s][i].Index = start + i // a router's sequence numbers
					}
				}
			}

			ref := fleet()
			want := runBatches(ref, streams, 0, total)

			prim := fleet()
			h := newFailoverHarness(t, prim, nil)
			feedBatches(t, prim, streams, 0, killAt, h.prim.Cycle)

			// Clean wire: the standby holds exactly the kill offset.
			if g := h.sb.Gen(); g != uint64(killAt) {
				t.Fatalf("standby at gen %d, want the kill offset %d", g, killAt)
			}
			resumed, g, epoch := h.promoteAndResume(t, sopts)
			if g != killAt || epoch != 2 {
				t.Fatalf("promoted at gen %d epoch %d, want gen %d epoch 2", g, epoch, killAt)
			}
			checkTenants(resumed, g)
			got := feedBatches(t, resumed, streams, g, total, nil)
			compareContinuation(t, resumed, ref, got, want, g)
			checkTenants(resumed, total)

			// Split-brain guard: a primary resuming the old epoch is fenced
			// at first contact with the promoted standby.
			stale := replica.NewPrimary(replica.PrimaryConfig{
				Addrs:   []string{h.addr},
				Epoch:   1,
				Capture: func() *store.Checkpoint { return prim.Checkpoint() },
				Tracer:  h.tr,
				Logf:    t.Logf,
			})
			defer stale.Close()
			if err := stale.Cycle(); !errors.Is(err, replica.ErrFenced) {
				t.Fatalf("stale primary's cycle returned %v, want ErrFenced", err)
			}
			if err := stale.Cycle(); !errors.Is(err, replica.ErrFenced) {
				t.Fatalf("fencing is not permanent: second cycle returned %v", err)
			}
		})
	}
}

// TestFailoverTornStream reruns the kill under a seeded replication
// fault schedule: torn writes and dropped connections on the wire
// between primary and standby. Faults cost the standby lag — the
// promoted generation may trail the kill offset — but whatever
// generation it reached, the continuation from that frame is still
// bit-identical to the uninterrupted run.
func TestFailoverTornStream(t *testing.T) {
	models := getCkptModels()
	const (
		total  = 200
		killAt = 120
		shards = 4
		seed   = int64(777)
	)
	opts := Defaults(facadeDim, facadeClasses)
	opts.Pipeline.Selector = MSBI
	sopts := ShardedOptions{Options: opts, Shards: shards, Workers: 2}

	streams := make([][]Frame, shards)
	for s := range streams {
		streams[s] = driftStream(total, 60+25*s, seed*1000+int64(10*s))
	}

	ref := NewShardedMonitor(models, facadeLabeler, sopts)
	want := runBatches(ref, streams, 0, total)

	inj := faults.NewReplicaInjector(faults.GenerateReplica(seed, 2*killAt, 0.15, 0.05))
	prim := NewShardedMonitor(models, facadeLabeler, sopts)
	h := newFailoverHarness(t, prim, inj.Tx)
	feedBatches(t, prim, streams, 0, killAt, h.prim.Cycle)

	if fired := inj.Stats().Total(); fired == 0 {
		t.Fatal("fault schedule fired nothing; the torn-stream path was not exercised")
	} else {
		t.Logf("injected %d replication faults; standby reached gen %d of %d", fired, h.sb.Gen(), killAt)
	}
	if g := h.sb.Gen(); g == 0 || g > uint64(killAt) {
		t.Fatalf("standby at gen %d after %d faulted generations", g, killAt)
	}

	resumed, g, epoch := h.promoteAndResume(t, sopts)
	if epoch != 2 {
		t.Fatalf("promoted at epoch %d, want 2", epoch)
	}
	got := feedBatches(t, resumed, streams, g, total, nil)
	compareContinuation(t, resumed, ref, got, want, g)
}
