package ingest

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"videodrift"
	"videodrift/internal/faults"
	"videodrift/internal/vidsim"
)

// runPump starts the product's pump loop over r, as driftserve does, and
// stops it when the test ends. The returned channel is signalled after
// every Pump, so a test waits on the loop's own progress, never on a
// clock; a Pump error fails the test.
func runPump(t *testing.T, r *Router) <-chan struct{} {
	t.Helper()
	pumped := make(chan struct{}, 1)
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		r.Run(stop, func(_ int, err error) {
			if err != nil {
				t.Errorf("pump: %v", err)
			}
			select {
			case pumped <- struct{}{}:
			default:
			}
		})
	}()
	t.Cleanup(func() {
		close(stop)
		<-done
	})
	return pumped
}

// awaitPumped blocks until cond holds, re-checking after each Pump.
func awaitPumped(t *testing.T, pumped <-chan struct{}, what string, cond func() bool) {
	t.Helper()
	for !cond() {
		select {
		case <-pumped:
		case <-time.After(30 * time.Second):
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestPumpWakesOnSubmit pins the wake-up protocol: with the loop
// running and nothing else driving Pump, every accepted frame is
// processed, exactly once and in its tenant's order — frames submitted
// while Pump is inside ProcessBatches included, which is where a token
// sent too early, or taken too late, would strand them.
func TestPumpWakesOnSubmit(t *testing.T) {
	const stallAt = 5
	models, opts := sharedModels()
	streams := loopbackStreams(3)

	// Shard 0's worker blocks before its frame stallAt until the test
	// lets it go: Pump is then provably inside ProcessBatches.
	inj := faults.NewInjector(faults.Schedule{Faults: []faults.Fault{
		{Shard: 0, Frame: stallAt, Kind: faults.KindWorkerStall},
	}})
	stalled, release := make(chan struct{}), make(chan struct{})
	inj.SetSleeper(func(time.Duration) {
		close(stalled)
		<-release
	})
	sm := videodrift.NewDynamicSharded(models, testLabeler, videodrift.ShardedOptions{
		Options: opts, Workers: 2, Faults: inj,
	})
	r := NewRouter(sm, Config{QueueCap: 256, BatchSize: 8})
	pumped := runPump(t, r)

	// Attach every tenant up front, cam-a on slot 0 (an Attach waits for
	// the batch in flight, so none may land inside the stall).
	tenants := []string{"cam-a", "cam-b", "cam-c"}
	for _, id := range tenants {
		submitFrames(t, r, id, streams[id], 0, 1)
	}
	submitFrames(t, r, "cam-a", streams["cam-a"], 1, stallAt+1)
	<-stalled
	submitFrames(t, r, "cam-a", streams["cam-a"], stallAt+1, stallAt+5)
	close(release)
	awaitPumped(t, pumped, "the frames submitted during a Pump", func() bool {
		return r.Stats().Processed == int64(len(tenants)+stallAt+4)
	})

	// The rest from one goroutine per tenant, flat out.
	var wg sync.WaitGroup
	for _, id := range tenants {
		from := 1
		if id == "cam-a" {
			from = stallAt + 5
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := from; i < len(streams[id]); i++ {
				if v := r.Submit(MsgFromFrame(id, uint64(i), streams[id][i])); !v.Ack || v.Dup {
					t.Errorf("tenant %s seq %d: verdict %+v, want clean ack", id, i, v)
					return
				}
			}
		}()
	}
	wg.Wait()
	want := int64(0)
	for _, id := range tenants {
		want += int64(len(streams[id]))
	}
	awaitPumped(t, pumped, "the queues to drain", func() bool { return r.Stats().Processed >= want })

	s := r.Stats()
	if s.Accepted != want || s.Processed != want || s.PumpedFrames != want || s.Dups != 0 {
		t.Fatalf("accepted %d processed %d pumped %d dups %d, want %d/%d/%d/0", s.Accepted, s.Processed, s.PumpedFrames, s.Dups, want, want, want)
	}
	// Every Pump took a token and every token was left by an accepted
	// frame: a loop that ran more often than that woke for nothing.
	if s.Pumps < 1 || s.Pumps > s.Accepted {
		t.Errorf("%d pumps for %d accepted frames", s.Pumps, s.Accepted)
	}
	if fired := inj.Stats().Count(faults.KindWorkerStall); fired != 1 {
		t.Fatalf("the stall fired %d times, want 1", fired)
	}
	for _, ts := range s.Tenants {
		shardOpts := opts
		shardOpts.Pipeline.Seed += int64(ts.Slot)
		ref := videodrift.NewMonitor(models, testLabeler, shardOpts)
		for i, f := range streams[ts.Tenant] {
			ref.Process(FrameFromMsg(MsgFromFrame(ts.Tenant, uint64(i), f)))
		}
		if got, want := sm.ShardStats(ts.Slot), ref.Stats(); got != want {
			t.Errorf("tenant %s: stats %+v, in-order serial reference %+v", ts.Tenant, got, want)
		}
		if got, want := sm.Shard(ts.Slot).Current(), ref.Current(); got != want {
			t.Errorf("tenant %s: deployed %q, serial reference %q", ts.Tenant, got, want)
		}
	}
}

// TestIdleEvictWithoutTraffic pins that eviction is the loop's own
// business: tenants that simply stop sending are detached once their
// idle window is over, with no later Submit to trigger it, and a loop
// with nothing left to evict — or no IdleEvict at all — stays parked.
func TestIdleEvictWithoutTraffic(t *testing.T) {
	_, opts := sharedModels()
	a, b := testStream(6, 31), testStream(6, 32)
	const quiet = 200 * time.Millisecond

	sm := testFleet(opts)
	r := NewRouter(sm, Config{IdleEvict: 30 * time.Millisecond})
	pumped := runPump(t, r)
	submitFrames(t, r, "cam-a", a, 0, 3)
	submitFrames(t, r, "cam-b", b, 0, 3)
	awaitPumped(t, pumped, "both quiet tenants to be evicted", func() bool { return r.Stats().Evictions == 2 })
	s := r.Stats()
	if s.Processed != 6 || s.Active != 0 || sm.Active() != 0 {
		t.Fatalf("after the idle window: processed %d, %d active tenants, %d attached shards; want 6, 0, 0", s.Processed, s.Active, sm.Active())
	}
	time.Sleep(quiet)
	if again := r.Stats().Pumps; again != s.Pumps {
		t.Errorf("%d pumps in %v with no tenant attached, want none", again-s.Pumps, quiet)
	}
	// The returning tenant continues its sequence on a fresh shard.
	if v := r.Submit(MsgFromFrame("cam-a", 1, a[1])); !v.Ack || !v.Dup {
		t.Fatalf("replay across eviction: verdict %+v, want dup ack", v)
	}
	submitFrames(t, r, "cam-a", a, 3, 6)
	awaitPumped(t, pumped, "the returning tenant's frames", func() bool { return r.Stats().Processed == 9 })
	if s := r.Stats(); s.Attaches != 3 {
		t.Fatalf("%d attaches, want 3 (two first contacts and one return)", s.Attaches)
	}

	// Without IdleEvict the loop has nothing to wake for but a frame,
	// attached tenants or not.
	r = NewRouter(testFleet(opts), Config{})
	pumped = runPump(t, r)
	submitFrames(t, r, "cam-a", a, 0, 3)
	awaitPumped(t, pumped, "the frames", func() bool { return r.Stats().Processed == 3 })
	before := r.Stats().Pumps
	time.Sleep(quiet)
	if s := r.Stats(); s.Pumps != before || s.Active != 1 {
		t.Errorf("%d pumps in %v without traffic (%d active tenants), want none and 1", s.Pumps-before, quiet, s.Active)
	}
}

// warmRounds builds two fleets of the given tenants over the same
// streams, both past their first frames so queues, batcher and scratch
// have their steady-state capacity. routed submits one more frame per
// tenant to a router over the first and pumps; direct feeds the second
// the same frames, already decoded, through a Batcher of its own the way
// Pump does. The inspectors monitor every frame but at a significance
// they cannot reach, so no round pays for a false alarm's selection or
// training and every one costs the same.
func warmRounds(tb testing.TB, tenants, batch int) (routed, direct func()) {
	tb.Helper()
	_, opts := sharedModels()
	opts.Pipeline.DI.R = 1e-9
	r := NewRouter(testFleet(opts), Config{BatchSize: batch})
	bare := testFleet(opts)
	const frames = 512
	ids := make([]string, tenants)
	msgs := make([][]FrameMsg, tenants)
	for k := range ids {
		ids[k] = fmt.Sprintf("cam-%02d", k)
		for i, f := range testStream(frames, int64(40+k)) {
			msgs[k] = append(msgs[k], MsgFromFrame(ids[k], uint64(i), f))
		}
		if _, err := bare.Attach(nil); err != nil {
			tb.Fatal(err)
		}
	}
	// The streams loop; the sequence numbers do not.
	seq := uint64(0)
	routed = func() {
		for k := range ids {
			m := msgs[k][seq%frames]
			m.Seq = seq
			if v := r.Submit(m); !v.Ack || v.Dup {
				tb.Fatalf("tenant %s seq %d: verdict %+v", ids[k], seq, v)
			}
		}
		seq++
		if n, err := r.Pump(); err != nil || n != tenants {
			tb.Fatalf("Pump processed %d (%v), want %d", n, err, tenants)
		}
	}
	decoded := make([][]vidsim.Frame, tenants)
	for k := range decoded {
		for _, m := range msgs[k] {
			decoded[k] = append(decoded[k], FrameFromMsg(m))
		}
	}
	batcher := bare.NewBatcher(batch)
	at := 0
	direct = func() {
		for k := range decoded {
			if _, err := batcher.Add(k, decoded[k][at%frames]); err != nil {
				tb.Fatal(err)
			}
		}
		at++
		if _, err := batcher.Flush(); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < 4*batch; i++ {
		routed()
		direct()
	}
	return routed, direct
}

// TestPumpSteadyStateAllocs is the allocation gate on the per-arrival
// path: on top of what the Batcher and the fleet allocate for the same
// frames (the event slices, the supervisor's snapshot), a warm Submit+Pump
// allocates each frame's pixel buffer and nothing else — no id slice,
// no sort, no scratch, no queue re-growth — at any batch size and any
// number of tenants.
func TestPumpSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct{ tenants, batch int }{{1, 1}, {1, 8}, {4, 1}, {4, 8}} {
		routed, direct := warmRounds(t, tc.tenants, tc.batch)
		// Both fleets are at the same frame of the same streams, so they
		// allocate the same.
		fleet := testing.AllocsPerRun(200, direct)
		got := testing.AllocsPerRun(200, routed)
		if own := got - fleet; own > float64(tc.tenants) {
			t.Errorf("%d tenants, batch %d: a Submit+Pump round allocates %.0f, the fleet alone %.0f: %.0f from the router, want <= %d (the pixel buffers)",
				tc.tenants, tc.batch, got, fleet, own, tc.tenants)
		}
	}
}

// BenchmarkRouterSubmitPump is what one arrival costs the router and
// everything under it: Submit, the wake-up token, Pump, the Batcher and
// a supervised ProcessBatches at batch 1, per frame.
func BenchmarkRouterSubmitPump(b *testing.B) {
	for _, tenants := range []int{1, 8} {
		b.Run(fmt.Sprintf("tenants=%d", tenants), func(b *testing.B) {
			routed, _ := warmRounds(b, tenants, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += tenants {
				routed()
			}
		})
	}
}
