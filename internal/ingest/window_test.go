package ingest

import (
	"sync/atomic"
	"testing"
	"time"

	"videodrift/internal/faults"
	"videodrift/internal/vidsim"
)

// TestWindowedBackpressure pins the fourth admission outcome: a frame
// arriving at a full queue on a windowed connection is neither queued nor
// NACKed — the connection stops reading until the queue has room. With
// the pump held inside ProcessBatches by cam-a's connection, cam-b's
// windowed client gets QueueCap frames queued, the rest of its window
// written, and then blocks on its ask; released, every frame is delivered
// exactly once, in order, with no NACK, no retry and no duplicate.
func TestWindowedBackpressure(t *testing.T) {
	const stallAt, queueCap = 5, 4
	streams := map[string][]vidsim.Frame{"cam-a": testStream(stallAt+1, 36), "cam-b": testStream(3*window, 37)}
	sm, inj, stalled, release := stalledFleet(t, stallAt, streams)
	r := NewRouter(sm, Config{QueueCap: queueCap, BatchSize: 8})
	addr := startServer(t, r)

	// Both tenants attach before the stall (an Attach waits for the batch
	// in flight), cam-a on slot 0; then cam-a one frame at a time up to the
	// stall, the last fed in place into it.
	a := dialWire(t, addr, "cam-a")
	c, err := Dial(ClientConfig{Addr: addr, Tenant: "cam-b"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	processed := int64(0)
	for i, f := range streams["cam-a"] {
		a.mustAck(t, i, f)
		if i == 0 {
			// A stream's first frame asks: Send returns with the tenant
			// admitted, which is what lets a caller attach tenants in order.
			if err := c.Send(streams["cam-b"][0]); err != nil {
				t.Fatal(err)
			}
			if s := r.Stats(); s.Accepted != 2 || c.Stats().Acked != 1 {
				t.Fatalf("the first frame's Send returned with %d frames accepted, %d confirmed; want 2, 1", s.Accepted, c.Stats().Acked)
			}
			processed++
		}
		if i < stallAt {
			processed++
			await(t, "a frame sent alone", func() bool { return r.Stats().Processed == processed })
			settle(r)
		}
	}
	<-stalled

	var sent atomic.Int64
	sent.Store(1)
	done := make(chan error, 1)
	go func() {
		for _, f := range streams["cam-b"][1:] {
			if err := c.Send(f); err != nil {
				done <- err
				return
			}
			sent.Add(1)
		}
		done <- c.Flush()
	}()
	// queueCap frames are queued, the rest of the window written; its ask
	// waits on a connection that is not reading.
	for deadline := time.Now().Add(30 * time.Second); sent.Load() < window || queued(r, "cam-b") < queueCap; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("cam-b: %d sends returned, %d queued", sent.Load(), queued(r, "cam-b"))
		}
	}
	time.Sleep(50 * time.Millisecond)
	if n := sent.Load(); n != window {
		t.Fatalf("cam-b: %d sends returned behind a full queue, want %d (the window's ask blocks)", n, window)
	}
	if s := r.Stats(); s.Processed != processed || queued(r, "cam-b") != queueCap {
		t.Fatalf("behind the held pump: %d processed, %d queued; want %d, %d", s.Processed, queued(r, "cam-b"), processed, queueCap)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("cam-b: %v", err)
	}
	want := int64(len(streams["cam-a"]) + len(streams["cam-b"]))
	await(t, "the queues to drain", func() bool { return r.Stats().Processed >= want })
	s := r.Stats()
	if s.Accepted != want || s.Processed != want || s.Dups != 0 {
		t.Fatalf("accepted %d processed %d dups %d, want %d/%d/0", s.Accepted, s.Processed, s.Dups, want, want)
	}
	if st := c.Stats(); st.Nacks != 0 || st.Retries != 0 || st.Reconnects != 0 || st.Acked != int64(len(streams["cam-b"])) {
		t.Fatalf("cam-b's client: %+v; want every frame confirmed, sent once", st)
	}
	if fired := inj.Stats().Count(faults.KindWorkerStall); fired != 1 {
		t.Fatalf("the stall fired %d times, want 1", fired)
	}
	checkSerialReference(t, sm, r, streams)
}

// TestWindowedWaitEndsOnClose pins the other way out of the windowed
// wait: with the pump held and never let go, a windowed connection whose
// queue is full waits for room that never comes — until the server
// closes, which must not hang on it. The client's Send then fails;
// nothing was NACKed for a full queue, nothing queued was lost.
func TestWindowedWaitEndsOnClose(t *testing.T) {
	const queueCap = 3
	_, opts := sharedModels()
	r := NewRouter(testFleet(opts), Config{QueueCap: queueCap})
	r.mu.Lock()
	r.feeding = true // a holder that never pumps: every feed leaves pending
	r.mu.Unlock()
	srv := NewServer(r, ServerConfig{})
	go srv.ListenAndServe("127.0.0.1:0")
	for srv.Addr() == nil {
		time.Sleep(time.Millisecond)
	}
	c, err := Dial(ClientConfig{Addr: srv.Addr().String(), Tenant: "cam-a", MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		var err error
		for _, f := range testStream(window+1, 40) { // the last asks
			if err = c.Send(f); err != nil {
				break
			}
		}
		done <- err
	}()
	for deadline := time.Now().Add(30 * time.Second); queued(r, "cam-a") < queueCap; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d queued, want %d", queued(r, "cam-a"), queueCap)
		}
	}
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("Close hangs on a connection waiting for room")
	}
	if err := <-done; err == nil {
		t.Fatal("the client's window was confirmed by a server that never took its frames")
	}
	if s := r.Stats(); s.Accepted != queueCap || queued(r, "cam-a") != queueCap {
		t.Fatalf("accepted %d, queued %d; want %d, %d", s.Accepted, queued(r, "cam-a"), queueCap, queueCap)
	}
	c.Close()
}

// TestSyncAnsweredBeforeFeed pins the order a windowed connection keeps
// when a Sync arrives in the same write as the frame it asks for: the
// answer goes out first, then the connection feeds the frame. Here the
// frame is the one that holds shard 0 inside ProcessBatches, so an
// answer written after the feed would not come until the release.
func TestSyncAnsweredBeforeFeed(t *testing.T) {
	const stallAt = 3
	stream := testStream(stallAt+1, 39)
	sm, _, stalled, release := stalledFleet(t, stallAt, map[string][]vidsim.Frame{"cam-a": stream})
	r := NewRouter(sm, Config{})
	c := dialWire(t, startServer(t, r), "cam-a")
	released := false
	t.Cleanup(func() { // a failure must not leave the pump held: the server's cleanup waits for it
		if !released {
			close(release)
		}
	})
	for i, f := range stream {
		c.mustAck(t, i, f) // frame stallAt's answer comes while its feed is still to come
		if i < stallAt {
			await(t, "a frame sent alone", func() bool { return r.Stats().Processed == int64(i+1) })
		}
	}
	<-stalled
	close(release)
	released = true
	await(t, "the stalled frame", func() bool { return r.Stats().Processed == stallAt+1 })
}

// queued is a tenant's queue depth.
func queued(r *Router, tenant string) int {
	for _, ts := range r.Stats().Tenants {
		if ts.Tenant == tenant {
			return ts.Queued
		}
	}
	return 0
}

// TestClientSendAllocs holds a warm Send to no allocation, asks included:
// the client seals every frame into its window's slot, appends the ask's
// Sync to the slot's spare capacity and reads the answer through the
// connection's buffer — and the server under it allocates nothing either.
func TestClientSendAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates on its own")
	}
	_, opts := sharedModels()
	opts.Pipeline.DI.R = 1e-9 // no false alarm, so no selection, in the measured rounds
	r := NewRouter(testFleet(opts), Config{})
	c, err := Dial(ClientConfig{Addr: startServer(t, r), Tenant: "cam-a"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stream := testStream(64, 38)
	send := func() {
		if err := c.Send(stream[c.Seq()%uint64(len(stream))]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4*window; i++ {
		send()
	}
	if n := testing.AllocsPerRun(20*window, send); n != 0 {
		t.Errorf("a warm Send allocates %v objects, want 0", n)
	}
	if c.Stats().Retries != 0 {
		t.Fatalf("stats %+v: the measured sends were not the window's", c.Stats())
	}
}
