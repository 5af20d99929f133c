package ingest

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"videodrift"
	"videodrift/internal/faults"
	"videodrift/internal/telemetry"
	"videodrift/internal/vidsim"
)

// runPump starts the product's pump loop over r, as driftserve does, and
// stops it when the test ends. The returned channel is signalled after
// every Pump, so a test waits on the loop's own progress, never on a
// clock; a Pump error fails the test. It returns once Run owns draining,
// so the first frame a connection feeds is fed in place, not left for the
// loop.
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
	for {
		r.procMu.Lock()
		owned := r.loop != nil
		r.procMu.Unlock()
		if owned {
			return pumped
		}
		runtime.Gosched()
	}
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

// startServer serves r's wire protocol on a loopback port until the test
// ends and returns the address.
func startServer(tb testing.TB, r *Router) string {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	srv := NewServer(r, ServerConfig{})
	go srv.Serve(ln)
	tb.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// wireConn is a tenant connection driven by hand: the test decides when a
// round is written and when its answer is read, which ingest.Client — one
// blocking Send — does not let it. A round is one frame and the Sync that
// asks for it, in one write.
type wireConn struct {
	conn   net.Conn
	tenant string
}

func dialWire(tb testing.TB, addr, tenant string) *wireConn {
	tb.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { conn.Close() })
	return &wireConn{conn: conn, tenant: tenant}
}

// send writes frame seq of the tenant's stream with its ask behind it and
// returns without waiting for the answer.
func (c *wireConn) send(seq int, f vidsim.Frame) error {
	b := EncodeFrame(MsgFromFrame(c.tenant, uint64(seq), f))
	_, err := c.conn.Write(append(b, EncodeSync(Sync{Tenant: c.tenant, Seq: uint64(seq)})...))
	return err
}

// reply reads the answers to frame seq's round: 0 when the Sync's Ack
// confirms the frame, the code of the Nack that rejected it otherwise.
func (c *wireConn) reply(seq int) (uint8, error) {
	c.conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	code := uint8(0)
	for {
		typ, payload, err := ReadMsg(c.conn)
		if err != nil {
			return 0, err
		}
		switch typ {
		case MsgNack:
			n, _ := DecodeNack(payload)
			if n.Seq != uint64(seq) {
				return 0, fmt.Errorf("tenant %s: nack for seq %d, want %d", c.tenant, n.Seq, seq)
			}
			code = n.Code
		case MsgAck:
			a, _ := DecodeAck(payload)
			want := uint64(seq) + 1 // the position: every frame up to this one admitted
			if code != 0 {
				want-- // ... but this one
			}
			if a.Seq != want {
				return 0, fmt.Errorf("tenant %s: frame %d's ask answered %d, want %d", c.tenant, seq, a.Seq, want)
			}
			return code, nil
		default:
			return 0, fmt.Errorf("tenant %s: answer type %d", c.tenant, typ)
		}
	}
}

// deliver sends frame seq and reads its answer.
func (c *wireConn) deliver(seq int, f vidsim.Frame) (uint8, error) {
	if err := c.send(seq, f); err != nil {
		return 0, err
	}
	return c.reply(seq)
}

// mustAck delivers frame seq and requires a clean ack.
func (c *wireConn) mustAck(t *testing.T, seq int, f vidsim.Frame) {
	t.Helper()
	if code, err := c.deliver(seq, f); err != nil || code != 0 {
		t.Fatalf("tenant %s seq %d: nack code %d, err %v; want a clean ack", c.tenant, seq, code, err)
	}
}

// checkSerialReference holds every tenant's shard to a standalone serial
// Monitor fed the tenant's whole stream in order: same pipeline stats,
// same deployed model and, for a tenant with a tracer of its own (on
// fixedClock), the same telemetry events — each accepted frame was
// processed exactly once, in its tenant's order, whoever pumped it.
func checkSerialReference(t *testing.T, sm *videodrift.ShardedMonitor, r *Router, streams map[string][]vidsim.Frame) {
	t.Helper()
	models, opts := sharedModels()
	for _, ts := range r.Stats().Tenants {
		shardOpts := opts
		shardOpts.Pipeline.Seed += int64(ts.Slot)
		tr := r.Tracer(ts.Tenant)
		if tr != nil {
			shardOpts.Tracer = telemetry.New(telemetry.Config{Now: fixedClock})
		}
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
		if tr != nil && !reflect.DeepEqual(tr.Events(), shardOpts.Tracer.Events()) {
			t.Errorf("tenant %s: telemetry events diverged from the serial reference", ts.Tenant)
		}
	}
}

// settle returns once whoever was pumping has let go of the pump: a
// frame's counters move a moment before its feeder unlocks, and a test
// that wants the next frame fed in place must not send it into that
// moment.
func settle(r *Router) {
	r.procMu.Lock()
	r.procMu.Unlock() //lint:ignore SA2001 the critical section is the wait
}

// stalledFleet builds a dynamic fleet whose shard 0 worker blocks before
// its frame stallAt — inside ProcessBatches, so whoever is pumping is
// provably in there — until the test closes release; stalled closes when
// it got there.
func stalledFleet(stallAt int) (sm *videodrift.ShardedMonitor, inj *faults.Injector, stalled, release chan struct{}) {
	models, opts := sharedModels()
	inj = faults.NewInjector(faults.Schedule{Faults: []faults.Fault{
		{Shard: 0, Frame: stallAt, Kind: faults.KindWorkerStall},
	}})
	stalled, release = make(chan struct{}), make(chan struct{})
	inj.SetSleeper(func(time.Duration) {
		close(stalled)
		<-release
	})
	sm = videodrift.NewDynamicSharded(models, testLabeler, videodrift.ShardedOptions{
		Options: opts, Workers: 2, Faults: inj,
	})
	return sm, inj, stalled, release
}

// TestPumpWakesOnSubmit pins the wake-up protocol: with the loop
// running and nothing else driving Pump, every accepted frame is
// processed, exactly once and in its tenant's order — frames submitted
// while Pump is inside ProcessBatches included, which is where a token
// sent too early, or taken too late, would strand them.
func TestPumpWakesOnSubmit(t *testing.T) {
	const stallAt = 5
	streams := loopbackStreams(3)
	sm, inj, stalled, release := stalledFleet(stallAt)
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
	if s.Accepted != want || s.Processed != want || s.Dups != 0 {
		t.Fatalf("accepted %d processed %d dups %d, want %d/%d/0", s.Accepted, s.Processed, s.Dups, want, want)
	}
	// Every Pump took a token and every token was left by an accepted
	// frame: a loop that ran more often than that woke for nothing.
	if s.Pumps < 1 || s.Pumps > s.Accepted {
		t.Errorf("%d pumps for %d accepted frames", s.Pumps, s.Accepted)
	}
	if s.PumpsInline != 0 {
		t.Errorf("%d in-line pumps with no connection in the test: Submit must never feed", s.PumpsInline)
	}
	if fired := inj.Stats().Count(faults.KindWorkerStall); fired != 1 {
		t.Fatalf("the stall fired %d times, want 1", fired)
	}
	checkSerialReference(t, sm, r, streams)
}

// TestRouterAttachDuringPump is the race a fleet call's batch set used to
// lose to: tenants make first contact from several goroutines, staggered
// so their attaches land while Run is inside the fleet with the others'
// frames, at BatchSize 8. A slot appended between two of a Pump's fleet
// calls leaves its batch set valid, so no Pump errs, every frame is
// processed exactly once and in sequence, and each tenant's events are a
// serial Monitor's.
func TestRouterAttachDuringPump(t *testing.T) {
	streams := loopbackStreams(4)
	models, opts := sharedModels()
	sm := videodrift.NewDynamicSharded(models, testLabeler, videodrift.ShardedOptions{Options: opts, Workers: 2})
	r := NewRouter(sm, Config{
		BatchSize: 8,
		NewTracer: func(string) *telemetry.Tracer { return telemetry.New(telemetry.Config{Now: fixedClock}) },
	})
	pumped := runPump(t, r)
	var wg sync.WaitGroup
	k := 0
	for id, stream := range streams {
		wg.Add(1)
		go func(after int64) {
			defer wg.Done()
			for r.Stats().Processed < after {
				runtime.Gosched()
			}
			for i, f := range stream {
				if v := r.Submit(MsgFromFrame(id, uint64(i), f)); !v.Ack || v.Dup {
					t.Errorf("tenant %s seq %d: verdict %+v, want clean ack", id, i, v)
					return
				}
			}
		}(int64(30 * k))
		k++
	}
	wg.Wait()
	want := int64(0)
	for _, stream := range streams {
		want += int64(len(stream))
	}
	awaitPumped(t, pumped, "the queues to drain", func() bool { return r.Stats().Processed >= want })
	s := r.Stats()
	if s.Accepted != want || s.Processed != want || s.Dups != 0 || s.Attaches != int64(len(streams)) {
		t.Fatalf("accepted %d processed %d dups %d attaches %d, want %d/%d/0/%d",
			s.Accepted, s.Processed, s.Dups, s.Attaches, want, want, len(streams))
	}
	checkSerialReference(t, sm, r, streams)
}

// TestPumpReleasesFrames: once a Pump returns, nothing the router keeps —
// its batch scratch, its drain list, a tenant's queue or the spare one —
// holds a frame header, within its length or past it. One left there
// would pin its pixels and, once the free list has lent the buffer to the
// next frame decoded, alias another tenant's frame.
func TestPumpReleasesFrames(t *testing.T) {
	_, opts := sharedModels()
	r := NewRouter(testFleet(opts), Config{BatchSize: 4})
	a, b := testStream(10, 21), testStream(10, 22)
	submitFrames(t, r, "cam-a", a, 0, 6)
	submitFrames(t, r, "cam-b", b, 0, 9)
	if n, err := r.Pump(); err != nil || n != 15 {
		t.Fatalf("Pump processed %d (%v), want 15", n, err)
	}
	pinned := func(where string, frames []vidsim.Frame) {
		for i, f := range frames[:cap(frames)] {
			if f.Pixels != nil {
				t.Errorf("%s[%d] still holds frame %d's pixels", where, i, f.Index)
			}
		}
	}
	for i, batch := range r.batches[:cap(r.batches)] {
		pinned(fmt.Sprintf("batches[%d]", i), batch)
	}
	for i, w := range r.work[:cap(r.work)] {
		pinned(fmt.Sprintf("work[%d]", i), w.frames)
	}
	for _, tn := range r.order {
		pinned(tn.id+" queue", tn.queue)
		pinned(tn.id+" spare", tn.spare)
	}
}

// TestFeedInPlace pins the protocol between feeding connections and the
// loop, over real sockets against a running Run, one frame and its ask a
// round. With the wire quiet a frame is fed by the connection that read
// it and the loop never wakes. With shard 0 held inside ProcessBatches by
// tenant cam-a's connection — it was the one feeding — cam-a's next round
// waits for the release (the documented price: that connection is not
// reading its socket), while the other tenants' rounds are answered as
// ever, queue behind the pump, and past QueueCap wait for room unanswered.
// Released, then flat out from one goroutine per connection: every
// accepted frame is processed exactly once, in its tenant's order,
// whoever fed it.
func TestFeedInPlace(t *testing.T) {
	const stallAt, queueCap = 5, 8
	streams := loopbackStreams(3)
	sm, inj, stalled, release := stalledFleet(stallAt)
	r := NewRouter(sm, Config{QueueCap: queueCap, BatchSize: 8})
	addr := startServer(t, r)
	pumped := runPump(t, r)

	// One frame at a time, each processed before the next is sent: attach
	// every tenant (cam-a on slot 0), then bring cam-a up to the stall.
	tenants := []string{"cam-a", "cam-b", "cam-c"}
	conns := make(map[string]*wireConn)
	next := make(map[string]int) // the next frame each tenant has to deliver
	sent := int64(0)
	oneByOne := func(id string) {
		t.Helper()
		conns[id].mustAck(t, next[id], streams[id][next[id]])
		next[id]++
		sent++
		awaitPumped(t, pumped, "a frame sent alone", func() bool { return r.Stats().Processed == sent })
		settle(r)
	}
	for _, id := range tenants {
		conns[id] = dialWire(t, addr, id)
		oneByOne(id)
	}
	for next["cam-a"] < stallAt {
		oneByOne("cam-a")
	}
	if s := r.Stats(); s.Pumps != sent || s.PumpsInline != sent {
		t.Fatalf("%d frames sent one by one: %d pumps, %d of them in-line; want every frame fed by its own connection", sent, s.Pumps, s.PumpsInline)
	}

	// cam-a's frame stallAt is acknowledged, then fed in place — into the
	// stall.
	conns["cam-a"].mustAck(t, stallAt, streams["cam-a"][stallAt])
	next["cam-a"]++
	<-stalled
	// held sends a tenant's next round and reads its answer aside.
	answered := make(chan error, len(tenants))
	held := func(id string) {
		if err := conns[id].send(next[id], streams[id][next[id]]); err != nil {
			t.Fatal(err)
		}
		go func(seq int) {
			code, err := conns[id].reply(seq)
			if err == nil && code != 0 {
				err = fmt.Errorf("tenant %s seq %d: nack code %d", id, seq, code)
			}
			answered <- err
		}(next[id])
		next[id]++
	}
	held("cam-a") // it sits in the socket
	// The others meanwhile: QueueCap frames queue behind the pump, each
	// acknowledged at once; the round after that waits for room, its
	// connection not reading.
	for _, id := range tenants[1:] {
		for i := 0; i < queueCap; i++ {
			conns[id].mustAck(t, next[id], streams[id][next[id]])
			next[id]++
		}
		held(id)
	}
	select {
	case err := <-answered:
		t.Fatalf("a round was answered (%v) while the pump was held", err)
	default:
	}
	if s := r.Stats(); s.Processed != sent {
		t.Fatalf("while the pump was held: %d frames processed; want %d", s.Processed, sent)
	}
	close(release)
	for range tenants {
		if err := <-answered; err != nil {
			t.Fatalf("a round held behind the stall: %v", err)
		}
	}

	// The rest flat out, one goroutine per connection; a full queue holds
	// a round back, it is back-pressure, not a fault.
	var wg sync.WaitGroup
	for _, id := range tenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next[id]; i < len(streams[id]); i++ {
				if code, err := conns[id].deliver(i, streams[id][i]); err != nil || code != 0 {
					t.Errorf("tenant %s seq %d: code %d, err %v", id, i, code, err)
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
	if s.Accepted != want || s.Processed != want || s.Dups != 0 {
		t.Fatalf("accepted %d processed %d dups %d, want %d/%d/0", s.Accepted, s.Processed, s.Dups, want, want)
	}
	// An accepted frame is fed by its connection or leaves one token, and
	// a token buys one Pump: no more pumps than frames.
	if s.Pumps > s.Accepted || s.PumpsInline > s.Pumps {
		t.Errorf("%d pumps (%d in-line) for %d accepted frames", s.Pumps, s.PumpsInline, s.Accepted)
	}
	if s.Pumps == s.PumpsInline {
		t.Errorf("all %d pumps in-line: the frames queued behind the held pump were not the loop's", s.Pumps)
	}
	if fired := inj.Stats().Count(faults.KindWorkerStall); fired != 1 {
		t.Fatalf("the stall fired %d times, want 1", fired)
	}
	checkSerialReference(t, sm, r, streams)
}

// TestServerWithoutRunQueues pins the fallback's other half: over a
// router nobody Runs a connection never feeds — frames queue up to
// QueueCap, the round past it waits for room, and a bare Pump processes
// the queue and lets it in.
func TestServerWithoutRunQueues(t *testing.T) {
	const queueCap = 4
	_, opts := sharedModels()
	r := NewRouter(testFleet(opts), Config{QueueCap: queueCap})
	c := dialWire(t, startServer(t, r), "cam-a")
	stream := testStream(queueCap+1, 33)
	for i := 0; i < queueCap; i++ {
		c.mustAck(t, i, stream[i])
	}
	if err := c.send(queueCap, stream[queueCap]); err != nil {
		t.Fatal(err)
	}
	if s := r.Stats(); s.Pumps != 0 || s.Processed != 0 || s.Tenants[0].Queued != queueCap {
		t.Fatalf("no loop running: %d pumps, %d processed, %d queued; want 0, 0, %d", s.Pumps, s.Processed, s.Tenants[0].Queued, queueCap)
	}
	if n, err := r.Pump(); err != nil || n != queueCap {
		t.Fatalf("Pump processed %d (%v), want %d", n, err, queueCap)
	}
	if code, err := c.reply(queueCap); err != nil || code != 0 {
		t.Fatalf("the frame past QueueCap: code %d, err %v; want it admitted once the Pump made room", code, err)
	}
	if s := r.Stats(); s.PumpsInline != 0 || s.Tenants[0].Queued != 1 {
		t.Fatalf("%d in-line pumps, %d queued without a loop; want 0, 1", s.PumpsInline, s.Tenants[0].Queued)
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

// TestIdleEvictAfterInlinePumps is TestIdleEvictWithoutTraffic for a
// fleet fed entirely in place: the loop never pumped, so the eviction
// deadline it wakes for was armed by the connections' pumps or not at
// all.
func TestIdleEvictAfterInlinePumps(t *testing.T) {
	_, opts := sharedModels()
	sm := testFleet(opts)
	r := NewRouter(sm, Config{IdleEvict: 100 * time.Millisecond})
	addr := startServer(t, r)
	pumped := runPump(t, r)
	sent := int64(0)
	for k, id := range []string{"cam-a", "cam-b"} {
		c := dialWire(t, addr, id)
		for i, f := range testStream(3, int64(31+k)) {
			c.mustAck(t, i, f)
			sent++
			awaitPumped(t, pumped, "a frame sent alone", func() bool { return r.Stats().Processed == sent })
			settle(r)
		}
	}
	// A loop pump on top of these can only be the eviction timer's, which
	// only a connection's pump can have armed.
	if s := r.Stats(); s.PumpsInline != sent {
		t.Fatalf("%d frames sent one by one, %d fed in place (of %d pumps)", sent, s.PumpsInline, s.Pumps)
	}
	awaitPumped(t, pumped, "both quiet tenants to be evicted", func() bool {
		s := r.Stats()
		return s.Evictions >= 2 && s.Active == 0
	})
	if sm.Active() != 0 {
		t.Fatalf("%d shards attached after the idle window", sm.Active())
	}
}

// restamp gives an encoded frame message a new sequence number in place
// (and the CRC that goes with it): a warm sender's per-frame work without
// its allocations.
func restamp(wire []byte, tenant string, seq uint64) {
	binary.BigEndian.PutUint64(wire[HeaderSize+1+len(tenant):], seq)
	binary.BigEndian.PutUint32(wire[10:14], crc32.ChecksumIEEE(wire[HeaderSize:]))
}

// transport is how warmRounds delivers a round's frames to the router.
type transport int

const (
	viaSubmit transport = iota // Router.Submit, then Pump
	viaConn                    // a loopback connection: a frame and its ask
	viaWindow                  // a loopback connection: window frames, an ask behind the last
)

// warmRounds builds two fleets of the given tenants over the same
// streams, both past their first frames so queues, events and scratch
// have their steady-state capacity. routed submits one more frame per
// tenant to a router over the first and pumps — or, over a connection,
// sends it down the tenant's loopback connection to a Server over that
// router with the loop running, the Sync that asks for it behind it,
// reads the ACK, and waits for the round to be processed; windowed, a
// round is window frames a tenant and the ask behind the last. The
// sender restamps frames
// encoded up front and reads into a fixed buffer, so it allocates nothing
// of its own. direct feeds the second fleet the same frames, already
// decoded, into reused events the way Pump does — one ProcessBatchesInto
// call per round, or per frame over a connection. Both fleets run one
// worker: a fan-out allocates per fleet call, and which of a wire round's
// frames share a call is the scheduler's choice, so only at one worker do
// the two sides differ by exactly transport and router. The inspectors
// monitor every frame but at a significance they cannot reach, so no
// round pays for a false alarm's selection or training and every one
// costs the same.
func warmRounds(tb testing.TB, tenants, batch int, via transport) (routed, direct func()) {
	tb.Helper()
	models, opts := sharedModels()
	opts.Pipeline.DI.R = 1e-9
	fleet := func() *videodrift.ShardedMonitor {
		return videodrift.NewDynamicSharded(models, testLabeler, videodrift.ShardedOptions{Options: opts, Workers: 1})
	}
	r := NewRouter(fleet(), Config{BatchSize: batch})
	bare := fleet()
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
	per := uint64(1) // frames a tenant per round
	if via == viaWindow {
		per = window
	}
	// The streams loop; the sequence numbers do not.
	seq := uint64(0)
	deliver := func(k int) {
		m := msgs[k][seq%frames]
		m.Seq = seq
		if v := r.Submit(m); !v.Ack || v.Dup {
			tb.Fatalf("tenant %s seq %d: verdict %+v", ids[k], seq, v)
		}
	}
	processed := func() {
		if n, err := r.Pump(); err != nil || n != tenants {
			tb.Fatalf("Pump processed %d (%v), want %d", n, err, tenants)
		}
	}
	if via != viaSubmit {
		addr := startServer(tb, r)
		var fed atomic.Int64
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			r.Run(stop, func(n int, err error) {
				if err != nil {
					tb.Errorf("pump: %v", err)
				}
				fed.Add(int64(n))
			})
		}()
		tb.Cleanup(func() {
			close(stop)
			<-done
		})
		conns := make([]net.Conn, tenants)
		wires := make([][][]byte, tenants)
		syncs := make([][]byte, tenants)
		var ack [ackSize]byte
		answer := func(k int, want uint64) {
			if _, err := io.ReadFull(conns[k], ack[:]); err != nil || ack[5] != MsgAck || binary.BigEndian.Uint64(ack[HeaderSize:]) != want {
				tb.Fatalf("tenant %s: answer % x (%v), want an ack of %d", ids[k], ack, err, want)
			}
		}
		for k := range ids {
			conns[k] = dialWire(tb, addr, ids[k]).conn
			syncs[k] = EncodeSync(Sync{Tenant: ids[k]})
			for _, m := range msgs[k] {
				wires[k] = append(wires[k], append(make([]byte, 0, frameSize(len(m.Tenant), len(m.Pixels))+len(syncs[k])), EncodeFrame(m)...))
			}
		}
		deliver = func(k int) {
			for s := seq; s < seq+per; s++ {
				b := wires[k][s%frames]
				restamp(b, ids[k], s)
				if s == seq+per-1 {
					b = append(b, syncs[k]...) // the ask, in the frame's write
				}
				if _, err := conns[k].Write(b); err != nil {
					tb.Fatal(err)
				}
			}
			answer(k, seq+per) // the position: every frame below it admitted
		}
		processed = func() {
			for fed.Load() < int64(seq)*int64(tenants) {
				runtime.Gosched()
			}
		}
	}
	routed = func() {
		for k := range ids {
			deliver(k)
		}
		seq += per
		processed()
	}
	decoded := make([][]vidsim.Frame, tenants)
	for k := range decoded {
		for _, m := range msgs[k] {
			decoded[k] = append(decoded[k], FrameFromMsg(m))
		}
	}
	batches := make([][]vidsim.Frame, tenants)
	var events [][]videodrift.Event
	feed := func() {
		var err error
		if events, err = bare.ProcessBatchesInto(batches, events); err != nil {
			tb.Fatal(err)
		}
		clear(batches)
	}
	at := uint64(0)
	direct = func() {
		if via == viaSubmit {
			// One Pump: a round of every tenant's frame (per is 1, below any
			// batch size).
			for k := range decoded {
				batches[k] = decoded[k][at%frames : at%frames+1]
			}
			feed()
		} else {
			// A frame off the wire is mostly pumped alone, and a fleet call
			// has costs of its own: the fleet's share of a wire round is a
			// call per frame (at most — two frames that arrive together
			// share one).
			for k := range decoded {
				for s := at; s < at+per; s++ {
					batches[k] = decoded[k][s%frames : s%frames+1]
					feed()
				}
			}
		}
		at += per
	}
	for i := 0; i < 4*batch; i++ {
		routed()
		direct()
	}
	return routed, direct
}

// allocsPer is testing.AllocsPerRun that also reports bytes and leaves
// GOMAXPROCS alone: the objects and bytes the whole process allocated per
// call of f, every goroutine's included.
func allocsPer(runs int, f func()) (objs, bytes float64) {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestPumpSteadyStateAllocs is the allocation gate on the per-arrival
// path, end to end: on top of what the fleet allocates for
// the same frames, a warm frame allocates nothing — its pixels are
// decoded into a buffer off the router's free list, which the pump takes
// back once the fleet has processed the frame. That holds for
// Submit+Pump (no pixel slice, no id slice, no sort, no scratch, no queue
// re-growth) and for the whole connection loop over loopback, a frame
// and its ask a round or a window's worth (no read buffer, no payload
// copy, no float32 slice, no strings, no ACK), at any batch size and any
// number of tenants. A frame's own pixel slice would
// be one object and 8·W·H bytes a tenant.
func TestPumpSteadyStateAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates on its own")
	}
	for _, via := range []struct {
		name string
		transport
	}{{"wire=false", viaSubmit}, {"wire=true", viaConn}, {"window", viaWindow}} {
		for _, tc := range []struct{ tenants, batch int }{{1, 1}, {1, 8}, {4, 1}, {4, 8}} {
			t.Run(fmt.Sprintf("%s/tenants=%d/batch=%d", via.name, tc.tenants, tc.batch), func(t *testing.T) {
				routed, direct := warmRounds(t, tc.tenants, tc.batch, via.transport)
				// Both fleets are at the same frame of the same streams, so
				// they allocate the same.
				fleetObjs, fleetBytes := allocsPer(200, direct)
				objs, bytes := allocsPer(200, routed)
				t.Logf("per round: %.1f objects, %.0f B; the fleet alone %.1f, %.0f B", objs, bytes, fleetObjs, fleetBytes)
				if own := objs - fleetObjs; own >= 0.5 {
					t.Errorf("a round allocates %.1f objects, the fleet alone %.1f: %.1f from transport and router, want 0",
						objs, fleetObjs, own)
				}
				if own := bytes - fleetBytes; own >= 8*testDim {
					t.Errorf("a round allocates %.0f B, the fleet alone %.0f: %.0f from transport and router, want none (a pixel buffer is %d)",
						bytes, fleetBytes, own, 8*testDim)
				}
			})
		}
	}
}

// BenchmarkRouterSubmitPump is what one arrival costs the router and
// everything under it: Submit, the wake-up token, Pump and a supervised
// fleet call on one worker at batch 1, per frame.
func BenchmarkRouterSubmitPump(b *testing.B) {
	for _, tenants := range []int{1, 8} {
		b.Run(fmt.Sprintf("tenants=%d", tenants), func(b *testing.B) { benchRounds(b, tenants, viaSubmit) })
	}
}

// BenchmarkServeConnFrame is the same arrival through the front door:
// socket → buffered read → decode → queue → the ask's ACK → fed in place
// → processed, per frame, the sender's write, restamp and ACK read
// included; a round is one frame and its ask. Less
// BenchmarkRouterSubmitPump it is what transport costs. window is one
// tenant's full window: window frames and the ask behind the last, one
// answer, per frame.
func BenchmarkServeConnFrame(b *testing.B) {
	for _, tenants := range []int{1, 8} {
		b.Run(fmt.Sprintf("tenants=%d", tenants), func(b *testing.B) { benchRounds(b, tenants, viaConn) })
	}
	b.Run("window", func(b *testing.B) { benchRounds(b, 1, viaWindow) })
}

// benchRounds times warmRounds' routed rounds, per frame.
func benchRounds(b *testing.B, tenants int, via transport) {
	routed, _ := warmRounds(b, tenants, 1, via)
	per := tenants
	if via == viaWindow {
		per *= window
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += per {
		routed()
	}
}
