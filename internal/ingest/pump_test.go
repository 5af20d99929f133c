package ingest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"videodrift"
	"videodrift/internal/faults"
	"videodrift/internal/telemetry"
	"videodrift/internal/vidsim"
)

// await blocks until cond holds. Nothing runs a loop a test could wait
// on: whoever queued a frame feeds it, so a test polls the counters.
func await(t testing.TB, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
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
		ref := videodrift.NewMonitor(models, wireOracle(t, streams), shardOpts)
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

// settle returns once whoever was feeding has let go: a frame's counters
// move a moment before its feeder re-checks pending, and a test that
// wants the next frame fed by its own connection must not send it into
// that moment.
func settle(r *Router) {
	for {
		r.mu.Lock()
		feeding := r.feeding
		r.mu.Unlock()
		if !feeding {
			return
		}
		runtime.Gosched()
	}
}

// stalledFleet builds a dynamic fleet over streams whose shard 0 worker
// blocks before its frame stallAt — inside ProcessBatches, so whoever is
// pumping is provably in there — until the test closes release; stalled
// closes when it got there.
func stalledFleet(t testing.TB, stallAt int, streams map[string][]vidsim.Frame) (sm *videodrift.ShardedMonitor, inj *faults.Injector, stalled, release chan struct{}) {
	models, opts := sharedModels()
	inj = faults.NewInjector(faults.Schedule{Faults: []faults.Fault{
		{Shard: 0, Frame: stallAt, Kind: faults.KindWorkerStall},
	}})
	stalled, release = make(chan struct{}), make(chan struct{})
	inj.SetSleeper(func(time.Duration) {
		close(stalled)
		<-release
	})
	sm = videodrift.NewDynamicSharded(models, wireOracle(t, streams), videodrift.ShardedOptions{
		Options: opts, Workers: 2, BeforeProcess: inj.BeforeProcess, TrainFault: inj.TrainFault,
	})
	return sm, inj, stalled, release
}

// submitFed submits frames [from, to) of a tenant's stream as Submit's
// caller and feeds them as a connection does (Router.feed).
func submitFed(t *testing.T, r *Router, tenant string, stream []vidsim.Frame, from, to int) {
	t.Helper()
	submitFrames(t, r, tenant, stream, from, to)
	if err := r.feed(); err != nil {
		t.Errorf("feed: %v", err)
	}
}

// TestPumpWakesOnSubmit pins the one feed rule at the router, with
// nothing but feeders driving the pump: frames queued and fed while
// another feed is inside ProcessBatches find the pump held, leave pending
// set and return at once, and the holder pumps them before its own feed
// returns — no other goroutine pumps, and no frame is left waiting. Then
// flat out from one feeder per tenant: with no feed after the last, every
// accepted frame is processed — by a holder, or by the eviction timer a
// holder left pending work to — exactly once and in its tenant's order.
func TestPumpWakesOnSubmit(t *testing.T) {
	const stallAt = 5
	streams := loopbackStreams(3)
	sm, inj, stalled, release := stalledFleet(t, stallAt, streams)
	r := NewRouter(sm, Config{QueueCap: 256, BatchSize: 8})

	// Attach every tenant up front, cam-a on slot 0 (an Attach waits for the
	// batch in flight, so none may land inside the stall), each frame fed by
	// its own feeder.
	tenants := []string{"cam-a", "cam-b", "cam-c"}
	for _, id := range tenants {
		submitFed(t, r, id, streams[id], 0, 1)
	}
	submitFrames(t, r, "cam-a", streams["cam-a"], 1, stallAt+1)
	held := make(chan error, 1)
	go func() { held <- r.feed() }()
	<-stalled
	submitFed(t, r, "cam-a", streams["cam-a"], stallAt+1, stallAt+5)
	submitFed(t, r, "cam-b", streams["cam-b"], 1, 3)
	if s := r.Stats(); s.Pumps != 3 || s.Processed != 3 {
		t.Fatalf("behind the held pump: %d pumps, %d processed; want 3, 3 — a feeder pumped past the holder", s.Pumps, s.Processed)
	}
	close(release)
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	// The holder's feed returned: it has drained what queued behind it, in
	// one more pump.
	if s := r.Stats(); s.Pumps != 5 || s.Processed != int64(len(tenants)+stallAt+4+2) {
		t.Fatalf("once the holder returned: %d pumps, %d processed; want 5, %d", s.Pumps, s.Processed, len(tenants)+stallAt+4+2)
	}

	// The rest from one goroutine per tenant, flat out.
	next := map[string]int{"cam-a": stallAt + 5, "cam-b": 3, "cam-c": 1}
	var wg sync.WaitGroup
	for _, id := range tenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next[id]; i < len(streams[id]); i++ {
				submitFed(t, r, id, streams[id], i, i+1)
			}
		}()
	}
	wg.Wait()
	want := int64(0)
	for _, id := range tenants {
		want += int64(len(streams[id]))
	}
	await(t, "the last feeds' frames", func() bool { return r.Stats().Processed >= want })
	s := r.Stats()
	if s.Accepted != want || s.Processed != want || s.Dups != 0 {
		t.Fatalf("every feeder returned: accepted %d processed %d dups %d, want %d/%d/0", s.Accepted, s.Processed, s.Dups, want, want)
	}
	// Every pump answers a feed's pending: no more pumps than frames.
	if s.Pumps < 1 || s.Pumps > s.Accepted {
		t.Errorf("%d pumps for %d accepted frames", s.Pumps, s.Accepted)
	}
	if fired := inj.Stats().Count(faults.KindWorkerStall); fired != 1 {
		t.Fatalf("the stall fired %d times, want 1", fired)
	}
	checkSerialReference(t, sm, r, streams)
}

// TestHolderLeavesBacklogToTimer pins where a holder's drain ends, with
// three worker stalls in a row. cam-a's feed holds the pump in the first;
// cam-a's next frames, fed behind it, set pending, so once released the
// holder pumps once more — into the second stall, behind which cam-b's
// frames set pending again. That is the holder's last pump: released, its
// feed returns and leaves cam-b's frames to the eviction timer, whose pump
// is the one held in the third stall (on cam-b's shard) while the
// holder's feed has already returned. Nothing feeds after it, and every
// frame is processed, exactly once and in order.
func TestHolderLeavesBacklogToTimer(t *testing.T) {
	const s1, s2 = 3, 6
	streams := map[string][]vidsim.Frame{"cam-a": testStream(s2+1, 51), "cam-b": testStream(4, 52)}
	models, opts := sharedModels()
	inj := faults.NewInjector(faults.Schedule{Faults: []faults.Fault{
		{Shard: 0, Frame: s1, Kind: faults.KindWorkerStall},
		{Shard: 0, Frame: s2, Kind: faults.KindWorkerStall},
		{Shard: 1, Frame: 1, Kind: faults.KindWorkerStall},
	}})
	stalled, release := make(chan struct{}), make(chan struct{})
	inj.SetSleeper(func(time.Duration) {
		stalled <- struct{}{}
		<-release
	})
	sm := videodrift.NewDynamicSharded(models, wireOracle(t, streams), videodrift.ShardedOptions{
		Options: opts, Workers: 2, BeforeProcess: inj.BeforeProcess, TrainFault: inj.TrainFault,
	})
	r := NewRouter(sm, Config{BatchSize: 8})
	within := func(ch <-chan struct{}, what string) {
		t.Helper()
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Fatalf("no %s within 10s", what)
		}
	}

	submitFed(t, r, "cam-a", streams["cam-a"], 0, s1) // cam-a on slot 0
	submitFed(t, r, "cam-b", streams["cam-b"], 0, 1)  // cam-b on slot 1
	submitFrames(t, r, "cam-a", streams["cam-a"], s1, s1+1)
	held := make(chan struct{})
	go func() {
		defer close(held)
		if err := r.feed(); err != nil {
			t.Error(err)
		}
	}()
	within(stalled, "first stall")
	submitFed(t, r, "cam-a", streams["cam-a"], s1+1, s2+1)
	release <- struct{}{}
	within(stalled, "second stall: the holder's pump past its own")
	submitFed(t, r, "cam-b", streams["cam-b"], 1, 4)
	release <- struct{}{}
	within(stalled, "third stall: the timer's pump of what the holder left")
	within(held, "return of the holder's feed while the timer pumps")
	release <- struct{}{}
	want := int64(len(streams["cam-a"]) + len(streams["cam-b"]))
	await(t, "the timer's pump", func() bool { return r.Stats().Processed == want })
	settle(r)
	if s := r.Stats(); s.Pumps != 5 {
		t.Fatalf("%d pumps, want 5: two attaching, the holder's own and one more, the timer's", s.Pumps)
	}
	checkSerialReference(t, sm, r, streams)
}

// slowFleet builds a dynamic fleet whose shard 0 worker sleeps for stall
// before each of its first frames, so a pump lasts long enough for other
// feeds to land behind it. Its inspectors monitor every frame at a
// significance they cannot reach: no alarm, every frame costs the same.
func slowFleet(frames int, stall time.Duration) *videodrift.ShardedMonitor {
	models, opts := sharedModels()
	opts.Pipeline.DI.R = 1e-9
	var slow faults.Schedule
	for i := range frames {
		slow.Faults = append(slow.Faults, faults.Fault{Shard: 0, Frame: i, Kind: faults.KindWorkerStall, Stall: stall})
	}
	return videodrift.NewDynamicSharded(models, testLabeler, videodrift.ShardedOptions{
		Options: opts, Workers: 2, BeforeProcess: faults.NewInjector(slow).BeforeProcess,
	})
}

// TestFeedersLeaveNothingBehind pins the hand-off between a feed that
// finds someone feeding and the holder, many times over: one feeder a
// tenant submits and feeds a frame at a time, flat out, beside a bare
// Pump taking the queues from under them. Whenever every feeder has
// returned, a queued frame has pending set — under mu, where the holder
// re-checks it — and with no feed after the last and no Pump, every
// accepted frame is processed: by the holder's re-check, or by the
// eviction timer it left pending work to. Run it under -race -count=N.
func TestFeedersLeaveNothingBehind(t *testing.T) {
	const feeders, rounds, per = 4, 20, 8
	r := NewRouter(slowFleet(rounds*per, 100*time.Microsecond), Config{BatchSize: 4})
	streams := make([][]vidsim.Frame, feeders)
	for k := range streams {
		streams[k] = testStream(rounds*per, int64(70+k))
	}
	for round := range rounds {
		var wg sync.WaitGroup
		for k, stream := range streams {
			wg.Add(1)
			go func() {
				defer wg.Done()
				id := fmt.Sprintf("cam-%d", k)
				for i := round * per; i < (round+1)*per; i++ {
					if v := r.Submit(MsgFromFrame(id, uint64(i), stream[i])); !v.Ack || v.Dup {
						t.Errorf("tenant %s seq %d: verdict %+v, want clean ack", id, i, v)
						return
					}
					if err := r.feed(); err != nil {
						t.Errorf("tenant %s seq %d: %v", id, i, err)
						return
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range per {
				if _, err := r.Pump(); err != nil {
					t.Error(err)
				}
			}
		}()
		wg.Wait()
		r.mu.Lock()
		for _, tn := range r.order {
			if len(tn.queue) > 0 && !r.pending {
				t.Errorf("round %d: every feeder returned, %s has %d frames queued and pending is clear", round, tn.id, len(tn.queue))
			}
		}
		r.mu.Unlock()
		want := int64((round + 1) * per * feeders)
		await(t, "frames left behind the last feed", func() bool { return r.Stats().Processed == want })
	}
}

// TestHolderReturnsUnderLoad pins the bound on a holder's drain: three
// windowed clients send flat out while every frame of shard 0 stalls its
// worker for a millisecond, so each pump takes long enough for the other
// connections to set pending again. Whichever connection holds the pump
// pumps at most once past its own and leaves the rest to the eviction
// timer, so every ask is answered in a few pumps' time, not once the
// others go quiet.
func TestHolderReturnsUnderLoad(t *testing.T) {
	r := NewRouter(slowFleet(10000, time.Millisecond), Config{QueueCap: 16, BatchSize: 8})
	addr := startServer(t, r)
	const clients, load, bound = 3, 2 * time.Second, 500 * time.Millisecond
	stream := testStream(64, 80)
	stop := time.Now().Add(load)
	slowest := make(chan time.Duration, clients)
	for k := range clients {
		go func() {
			worst := time.Duration(0)
			defer func() { slowest <- worst }()
			c, err := Dial(ClientConfig{Addr: addr, Tenant: fmt.Sprintf("cam-%d", k)})
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; time.Now().Before(stop); i++ {
				start := time.Now()
				if err := c.Send(stream[i%len(stream)]); err != nil {
					t.Error(err)
					return
				}
				worst = max(worst, time.Since(start))
			}
		}()
	}
	for range clients {
		if worst := <-slowest; worst > bound {
			t.Errorf("a Send took %v under %v of flat-out load, want at most %v", worst, load, bound)
		}
	}
	await(t, "the queues to drain", func() bool {
		s := r.Stats()
		return s.Processed == s.Accepted
	})
}

// TestRouterAttachDuringPump is the race a fleet call's batch set used to
// lose to: tenants make first contact from several goroutines, each
// feeding what it queued, staggered so their attaches land while another
// feeder is inside the fleet with the others' frames, at BatchSize 8. A slot appended between two of a Pump's fleet
// calls leaves its batch set valid, so no Pump errs, every frame is
// processed exactly once and in sequence, and each tenant's events are a
// serial Monitor's.
func TestRouterAttachDuringPump(t *testing.T) {
	streams := loopbackStreams(4)
	models, opts := sharedModels()
	sm := videodrift.NewDynamicSharded(models, wireOracle(t, streams), videodrift.ShardedOptions{Options: opts, Workers: 2})
	r := NewRouter(sm, Config{
		BatchSize: 8,
		NewTracer: func(string) *telemetry.Tracer { return telemetry.New(telemetry.Config{Now: fixedClock}) },
	})
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
				if err := r.feed(); err != nil {
					t.Errorf("tenant %s seq %d: %v", id, i, err)
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
	await(t, "what the last feeds left to the timer", func() bool { return r.Stats().Processed >= want })
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

// TestFeedInPlace pins the protocol between feeding connections, over
// real sockets, one frame and its ask a round. With the wire quiet a frame
// is fed by the connection that read it, one pump a frame. With shard 0
// held inside ProcessBatches by tenant cam-a's connection — it was the one
// feeding — cam-a's next round waits for the release (the documented
// price: that connection is not reading its socket), while the other
// tenants' rounds are answered as ever, queue behind the pump, and past
// QueueCap wait for room unanswered. Released, then flat out from one
// goroutine per connection: every accepted frame is processed exactly
// once, in its tenant's order, whoever fed it.
func TestFeedInPlace(t *testing.T) {
	const stallAt, queueCap = 5, 8
	streams := loopbackStreams(3)
	sm, inj, stalled, release := stalledFleet(t, stallAt, streams)
	r := NewRouter(sm, Config{QueueCap: queueCap, BatchSize: 8})
	addr := startServer(t, r)

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
		await(t, "a frame sent alone", func() bool { return r.Stats().Processed == sent })
		settle(r)
	}
	for _, id := range tenants {
		conns[id] = dialWire(t, addr, id)
		oneByOne(id)
	}
	for next["cam-a"] < stallAt {
		oneByOne("cam-a")
	}
	if s := r.Stats(); s.Pumps != sent {
		t.Fatalf("%d frames sent one by one: %d pumps; want every frame fed by its own pump", sent, s.Pumps)
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
	await(t, "the queues to drain", func() bool { return r.Stats().Processed >= want })

	s := r.Stats()
	if s.Accepted != want || s.Processed != want || s.Dups != 0 {
		t.Fatalf("accepted %d processed %d dups %d, want %d/%d/0", s.Accepted, s.Processed, s.Dups, want, want)
	}
	// An accepted frame is fed by its connection or sets pending, which
	// buys one more pump of the holder's: no more pumps than frames.
	if s.Pumps > s.Accepted {
		t.Errorf("%d pumps for %d accepted frames", s.Pumps, s.Accepted)
	}
	if fired := inj.Stats().Count(faults.KindWorkerStall); fired != 1 {
		t.Fatalf("the stall fired %d times, want 1", fired)
	}
	checkSerialReference(t, sm, r, streams)
}

// TestHolderDrainsConnections pins the one feed rule over the wire: the
// frames cam-b's connection queues while cam-a's connection holds the
// pump inside ProcessBatches are answered at once and left pending, and
// cam-a's connection feeds them once it lets go, in one more pump. No
// other goroutine pumps: cam-b's connection, blocked reading its quiet
// socket, has nothing more to feed, and there is no loop.
func TestHolderDrainsConnections(t *testing.T) {
	const stallAt = 3
	streams := map[string][]vidsim.Frame{"cam-a": testStream(stallAt+1, 41), "cam-b": testStream(3, 42)}
	sm, inj, stalled, release := stalledFleet(t, stallAt, streams)
	r := NewRouter(sm, Config{BatchSize: 8})
	addr := startServer(t, r)
	a, b := dialWire(t, addr, "cam-a"), dialWire(t, addr, "cam-b")
	released := false
	t.Cleanup(func() { // a failure must not leave the pump held: the server's cleanup waits for it
		if !released {
			close(release)
		}
	})
	sent := int64(0)
	oneByOne := func(c *wireConn, seq int) {
		t.Helper()
		c.mustAck(t, seq, streams[c.tenant][seq])
		sent++
		await(t, "a frame sent alone", func() bool { return r.Stats().Processed == sent })
		settle(r)
	}
	// Both tenants attach before the stall, cam-a on slot 0; cam-a's frame
	// stallAt is answered, then fed by its connection into the stall.
	oneByOne(a, 0)
	oneByOne(b, 0)
	for i := 1; i < stallAt; i++ {
		oneByOne(a, i)
	}
	a.mustAck(t, stallAt, streams["cam-a"][stallAt])
	<-stalled
	b.mustAck(t, 1, streams["cam-b"][1])
	b.mustAck(t, 2, streams["cam-b"][2])
	if s := r.Stats(); s.Processed != sent || s.Pumps != sent || queued(r, "cam-b") != 2 {
		t.Fatalf("behind the held pump: %d processed, %d pumps, %d of cam-b's queued; want %d, %d, 2", s.Processed, s.Pumps, queued(r, "cam-b"), sent, sent)
	}
	close(release)
	released = true
	want := int64(len(streams["cam-a"]) + len(streams["cam-b"]))
	await(t, "the holder to drain", func() bool { return r.Stats().Processed == want })
	settle(r)
	r.mu.Lock()
	pending := r.pending
	r.mu.Unlock()
	if s := r.Stats(); s.Pumps != sent+2 || pending {
		t.Fatalf("%d pumps (pending %v), want %d: the held one and one drain behind it", s.Pumps, pending, sent+2)
	}
	if fired := inj.Stats().Count(faults.KindWorkerStall); fired != 1 {
		t.Fatalf("the stall fired %d times, want 1", fired)
	}
	checkSerialReference(t, sm, r, streams)
}

// TestIdleEvictWithoutTraffic pins that eviction needs no traffic:
// tenants that simply stop sending are detached once their idle window is
// over, with no later frame to trigger it — the pump that fed their last
// frames armed the eviction timer, which feeds the fleet in its turn —
// and with nothing left to evict, or no IdleEvict at all, nothing pumps.
func TestIdleEvictWithoutTraffic(t *testing.T) {
	_, opts := sharedModels()
	a, b := testStream(6, 31), testStream(6, 32)
	const quiet = 200 * time.Millisecond

	sm := testFleet(opts)
	r := NewRouter(sm, Config{IdleEvict: 30 * time.Millisecond})
	submitFrames(t, r, "cam-a", a, 0, 3)
	submitFed(t, r, "cam-b", b, 0, 3) // one feed takes both tenants' frames
	await(t, "both quiet tenants to be evicted", func() bool { return r.Stats().Evictions == 2 })
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
	submitFed(t, r, "cam-a", a, 3, 6)
	if s := r.Stats(); s.Processed != 9 || s.Attaches != 3 {
		t.Fatalf("processed %d, %d attaches; want 9, and 3 (two first contacts and one return)", s.Processed, s.Attaches)
	}

	// Without IdleEvict nothing pumps but a feeder, attached tenants or
	// not.
	r = NewRouter(testFleet(opts), Config{})
	submitFed(t, r, "cam-a", a, 0, 3)
	before := r.Stats().Pumps
	time.Sleep(quiet)
	if s := r.Stats(); s.Processed != 3 || s.Pumps != before || s.Active != 1 {
		t.Errorf("%d processed, %d pumps in %v without traffic (%d active tenants), want 3, none and 1", s.Processed, s.Pumps-before, quiet, s.Active)
	}
}

// TestIdleEvictAfterInlinePumps is TestIdleEvictWithoutTraffic for a
// fleet fed entirely over the wire: every pump was a connection's, so the
// eviction deadline was armed by the connections' pumps or not at all.
func TestIdleEvictAfterInlinePumps(t *testing.T) {
	_, opts := sharedModels()
	sm := testFleet(opts)
	r := NewRouter(sm, Config{IdleEvict: 100 * time.Millisecond})
	addr := startServer(t, r)
	sent := int64(0)
	for k, id := range []string{"cam-a", "cam-b"} {
		c := dialWire(t, addr, id)
		for i, f := range testStream(3, int64(31+k)) {
			c.mustAck(t, i, f)
			sent++
			await(t, "a frame sent alone", func() bool { return r.Stats().Processed == sent })
			settle(r)
		}
	}
	// A pump on top of these can only be the eviction timer's, which only a
	// connection's pump can have armed.
	if s := r.Stats(); s.Pumps != sent {
		t.Fatalf("%d frames sent one by one, %d pumps", sent, s.Pumps)
	}
	await(t, "both quiet tenants to be evicted", func() bool {
		s := r.Stats()
		return s.Evictions >= 2 && s.Active == 0
	})
	if sm.Active() != 0 {
		t.Fatalf("%d shards attached after the idle window", sm.Active())
	}
}

// TestTimerPumpErrorReachesNextCaller pins that a pump error the
// eviction timer meets is not dropped: nobody called the timer, so the
// next caller to pump or feed gets it — a connection logs it, Shutdown's
// final Pump logs it — once. The error is a slot detached behind the
// router's back while frames for it were queued.
func TestTimerPumpErrorReachesNextCaller(t *testing.T) {
	_, opts := sharedModels()
	sm := testFleet(opts)
	r := NewRouter(sm, Config{IdleEvict: 30 * time.Millisecond})
	stream := testStream(3, 33)
	submitFed(t, r, "cam-a", stream, 0, 1) // arms the timer
	submitFrames(t, r, "cam-a", stream, 1, 3)
	if err := sm.Detach(0); err != nil {
		t.Fatal(err)
	}
	await(t, "the timer's pump to fail", func() bool {
		r.mu.Lock()
		defer r.mu.Unlock()
		return r.lost != nil
	})
	var detached *videodrift.DetachedSlotError
	if _, err := r.Pump(); !errors.As(err, &detached) {
		t.Fatalf("the Pump after the timer's: %v, want the timer's DetachedSlotError", err)
	}
	if _, err := r.Pump(); err != nil {
		t.Fatalf("a second Pump: %v, want the error reported once", err)
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
// router, the Sync that asks for it behind it,
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
			// The counter itself: Stats allocates.
			for {
				r.mu.Lock()
				n := r.processed
				r.mu.Unlock()
				if n >= int64(seq)*int64(tenants) {
					return
				}
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
// everything under it: Submit, Pump and a supervised
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
