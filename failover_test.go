package videodrift

import (
	"errors"
	"net"
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
// deployments and per-shard stats from frame g onward to be
// bit-identical to the uninterrupted reference run's.
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
	}
	if ref.Stats().DriftsDetected == 0 {
		t.Error("reference run never drifted; the failover exercised nothing")
	}
}

// TestFailoverDeterminism is the headline high-availability guarantee:
// kill the primary at an arbitrary frame offset and the promoted
// standby's subsequent event stream — drift declarations, selections,
// deployments, per-shard stats — is bit-identical to the run the
// primary would have produced uninterrupted. Every batch ships one
// replicated generation, so the kill point is frame-granular; each
// config runs its own seed with a seed-derived kill offset, for both
// selectors (MSBI over full and over ensemble-less models) at 1 and 4
// shards.
func TestFailoverDeterminism(t *testing.T) {
	const total = 200

	for _, tc := range []struct {
		name     string
		selector Selector
		shards   int
		seed     int64
		models   []*Model
	}{
		{"msbi-shards1", MSBI, 1, 601, getCkptModels()},
		{"msbi-shards4", MSBI, 4, 602, getCkptModels()},
		{"msbo-shards1", MSBO, 1, 603, getCkptModels()},
		{"msbo-shards4", MSBO, 4, 604, getCkptModels()},
		{"msbi-lean-shards1", MSBI, 1, 605, getLeanCkptModels()},
		{"msbi-lean-shards4", MSBI, 4, 606, getLeanCkptModels()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			models := tc.models
			// The kill offset is seed-derived and deliberately not round:
			// across the table it lands before, between and after the
			// per-shard drift offsets (60+25s).
			killAt := 55 + int(tc.seed*31%97)
			opts := Defaults(facadeDim, facadeClasses)
			opts.Pipeline.Selector = tc.selector
			sopts := ShardedOptions{Options: opts, Shards: tc.shards, Workers: 2}

			streams := make([][]Frame, tc.shards)
			for s := range streams {
				streams[s] = driftStream(total, 60+25*s, tc.seed*1000+int64(10*s))
			}

			ref := NewShardedMonitor(models, facadeLabeler, sopts)
			want := runBatches(ref, streams, 0, total)

			prim := NewShardedMonitor(models, facadeLabeler, sopts)
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
			got := feedBatches(t, resumed, streams, g, total, nil)
			compareContinuation(t, resumed, ref, got, want, g)

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
