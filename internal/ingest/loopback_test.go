package ingest

import (
	"net"
	"sync"
	"testing"
	"time"

	"videodrift"
	"videodrift/internal/faults"
	"videodrift/internal/vidsim"
)

// loopbackStreams builds per-tenant drifting streams (day → night at
// tenant-specific offsets), the multi-tenant sibling of the root
// package's batching fixture.
func loopbackStreams(n int) map[string][]vidsim.Frame {
	streams := make(map[string][]vidsim.Frame, n)
	tenants := []string{"cam-a", "cam-b", "cam-c", "cam-d"}
	for i := 0; i < n; i++ {
		seed := int64(60 + 2*i)
		cut := 70 + 25*i
		streams[tenants[i]] = append(
			vidsim.GenerateTrainingStride(testCond(vidsim.Day()), 16, 16, cut, 1, seed),
			vidsim.GenerateTrainingStride(testCond(vidsim.Night()), 16, 16, 200-cut, 1, seed+1)...)
	}
	return streams
}

// dialRaw opens a plain TCP connection for hand-rolled wire traffic.
func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

// fixedClock is the telemetry clock for bit-identical event
// comparison: wire and reference tracers stamp every event the same.
func fixedClock() time.Time { return time.Unix(0, 0) }

// runLoopback drives the full network path — ingest.Client over real
// TCP, Server, Router, dynamic fleet — for every tenant stream at once,
// with optional injected wire faults, and asserts every frame was
// delivered exactly once. It returns the clients' aggregate stats. That a
// tenant's outcome over the wire is in-process serial feeding's, the root
// package's fleet equivalence holds (its w op).
func runLoopback(t *testing.T, streams map[string][]vidsim.Frame, faultSeed int64) ClientStats {
	t.Helper()
	models, opts := sharedModels()
	sm := videodrift.NewDynamicSharded(models, wireOracle(t, streams), videodrift.ShardedOptions{
		Options: opts, Workers: 4,
	})
	router := NewRouter(sm, Config{QueueCap: 64, BatchSize: 8})
	srv := NewServer(router, ServerConfig{Logf: t.Logf})
	go srv.ListenAndServe("127.0.0.1:0")
	defer srv.Close()
	for srv.Addr() == nil {
		time.Sleep(time.Millisecond)
	}

	var mu sync.Mutex
	total := ClientStats{}
	var wg sync.WaitGroup
	for tenant, stream := range streams {
		wg.Add(1)
		go func(tenant string, stream []vidsim.Frame) {
			defer wg.Done()
			cfg := ClientConfig{Addr: srv.Addr().String(), Tenant: tenant}
			if faultSeed != 0 {
				sched := faults.GenerateNet(faultSeed+int64(len(tenant))+int64(tenant[4]), 3*len(stream), 0.05, 0.02)
				if len(sched.Faults) == 0 {
					t.Errorf("tenant %s: fault schedule is empty, the fault run would test nothing", tenant)
				}
				cfg.TxFault = faults.NewNetInjector(sched).Tx
			}
			c, err := Dial(cfg)
			if err != nil {
				t.Errorf("tenant %s: %v", tenant, err)
				return
			}
			defer c.Close()
			for i, f := range stream {
				if err := c.Send(f); err != nil {
					t.Errorf("tenant %s frame %d: %v", tenant, i, err)
					return
				}
			}
			if err := c.Flush(); err != nil {
				t.Errorf("tenant %s: %v", tenant, err)
				return
			}
			mu.Lock()
			s := c.Stats()
			total.Sent += s.Sent
			total.Acked += s.Acked
			total.Nacks += s.Nacks
			total.Retries += s.Retries
			total.Reconnects += s.Reconnects
			mu.Unlock()
		}(tenant, stream)
	}
	wg.Wait()

	// Drain: every accepted frame must reach the fleet.
	want := int64(0)
	for _, stream := range streams {
		want += int64(len(stream))
	}
	await(t, "the queues to drain", func() bool { return router.Stats().Processed >= want })

	rs := router.Stats()
	if rs.Accepted != want || rs.Processed != want || total.Acked != want {
		t.Fatalf("accepted %d processed %d confirmed %d, want %d — frames lost or duplicated", rs.Accepted, rs.Processed, total.Acked, want)
	}
	if faultSeed == 0 && rs.Dups != 0 {
		t.Fatalf("%d duplicates on a clean wire: a frame the server held was resent", rs.Dups)
	}
	return total
}

// TestLoopbackBitIdentical is the tier-0 acceptance test for the
// ingestion tier: three tenants' frames delivered over real TCP at once,
// each exactly once.
func TestLoopbackBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("E2E loopback in -short mode")
	}
	// runLoopback has already held the run to the contract: accepted ==
	// processed == sent. A clean wire adds: no connection was lost and
	// nothing was delivered twice (runLoopback counts the router's
	// duplicates), and nothing was
	// rejected or resent: a full queue holds a connection back, it does
	// not NACK.
	s := runLoopback(t, loopbackStreams(3), 0)
	if s.Reconnects != 0 || s.Nacks != 0 || s.Retries != 0 {
		t.Errorf("clean run had reconnects %d, nacks %d, retries %d", s.Reconnects, s.Nacks, s.Retries)
	}
}

// TestLoopbackBitIdenticalUnderFaults replays the same contract with
// injected wire faults — corrupted bytes and torn writes. The faults
// must actually fire (retries, reconnects) and must cost nothing:
// delivery is exactly-once.
func TestLoopbackBitIdenticalUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("E2E loopback in -short mode")
	}
	s := runLoopback(t, loopbackStreams(3), 97)
	if s.Retries == 0 {
		t.Error("fault run never retried — injector did not engage")
	}
	if s.Reconnects == 0 {
		t.Error("fault run never reconnected — no torn write fired")
	}
	if s.Nacks == 0 {
		t.Error("fault run saw no NACKs — no corruption was rejected")
	}
}

// TestServerSlowLoris pins the slow-client guard: a connection that
// sends half a header and stalls is cut after the read timeout instead
// of pinning its handler goroutine forever.
func TestServerSlowLoris(t *testing.T) {
	_, opts := sharedModels()
	router := NewRouter(testFleet(opts), Config{})
	srv := NewServer(router, ServerConfig{ReadTimeout: 50 * time.Millisecond})
	go srv.ListenAndServe("127.0.0.1:0")
	defer srv.Close()
	for srv.Addr() == nil {
		time.Sleep(time.Millisecond)
	}
	// A partial header, then silence.
	wire := EncodeFrame(MsgFromFrame("cam-slow", 0, testStream(1, 79)[0]))
	raw := dialRaw(t, srv.Addr().String())
	defer raw.Close()
	if _, err := raw.Write(wire[:HeaderSize/2]); err != nil {
		t.Fatal(err)
	}
	// The server must come back with a NACK and close, within the
	// timeout order of magnitude — not the 30s default.
	raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	typ, payload, err := ReadMsg(raw)
	if err != nil {
		t.Fatalf("expected a best-effort NACK before the cut: %v", err)
	}
	if typ != MsgNack {
		t.Fatalf("reply type %d, want NACK", typ)
	}
	if n, _ := DecodeNack(payload); n.Code != NackMalformed {
		t.Fatalf("nack code %d, want malformed", n.Code)
	}
	// The server stays healthy: a prompt client on the same server is
	// served normally after the slow one was cut.
	c, err := Dial(ClientConfig{
		Addr: srv.Addr().String(), Tenant: "cam-slow",
		ReplyTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(testStream(1, 80)[0]); err != nil {
		t.Fatalf("healthy client starved by the slow one: %v", err)
	}
}
