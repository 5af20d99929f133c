package ingest

import (
	"strings"
	"testing"
	"time"

	"videodrift"
	"videodrift/internal/vidsim"
)

// TestRouterResumeStreams pins the promoted-standby admission rule: a
// brand-new tenant's first frame defines its stream position instead of
// being forced to seq 0, but only at tenant creation — a returning
// evicted tenant still resumes the position the router retained.
func TestRouterResumeStreams(t *testing.T) {
	_, opts := sharedModels()
	now := time.Unix(3000, 0)
	r := NewRouter(testFleet(opts), Config{
		ResumeStreams: true, IdleEvict: time.Minute,
		Now: func() time.Time { return now },
	})
	stream := testStream(12, 21)

	// A failed-over client arrives mid-stream at seq 7.
	if v := r.Submit(MsgFromFrame("cam-a", 7, stream[7])); !v.Ack || v.Dup {
		t.Fatalf("mid-stream first contact: verdict %+v, want clean ack", v)
	}
	submitFrames(t, r, "cam-a", stream, 8, 10)
	// Behind the adopted position is a dup, ahead is still a gap.
	if v := r.Submit(MsgFromFrame("cam-a", 7, stream[7])); !v.Ack || !v.Dup {
		t.Fatalf("replay below adopted seq: verdict %+v, want dup ack", v)
	}
	if v := r.Submit(MsgFromFrame("cam-a", 11, stream[11])); v.Ack || v.Code != NackBadSeq ||
		!strings.Contains(v.Reason, "want seq 10, got 11") {
		t.Fatalf("gap above adopted seq: verdict %+v, want NackBadSeq naming seq 10", v)
	}

	// Evict the tenant; its return must NOT re-adopt an arbitrary seq —
	// the retained position still governs.
	if _, err := r.Pump(); err != nil {
		t.Fatal(err)
	}
	now = now.Add(2 * time.Minute)
	if _, err := r.Pump(); err != nil {
		t.Fatal(err)
	}
	if s := r.Stats(); s.Evictions != 1 || s.Active != 0 {
		t.Fatalf("eviction setup failed: %+v", s)
	}
	if v := r.Submit(MsgFromFrame("cam-a", 11, stream[11])); v.Ack || v.Code != NackBadSeq {
		t.Fatalf("returning evicted tenant adopted a gap: verdict %+v", v)
	}
	submitFrames(t, r, "cam-a", stream, 10, 12)

	// Without ResumeStreams, mid-stream first contact is still a gap.
	strict := NewRouter(testFleet(opts), Config{})
	if v := strict.Submit(MsgFromFrame("cam-b", 7, stream[7])); v.Ack || v.Code != NackBadSeq ||
		!strings.Contains(v.Reason, "want seq 0, got 7") {
		t.Fatalf("strict router accepted mid-stream first contact: %+v", v)
	}
}

// TestClientFailover drives the wire-level failover path: a client
// configured with two addresses streams to the primary, the primary is
// killed mid-stream with frames of the client's window in flight —
// written, not yet confirmed — and the client rotates to the standby and
// resumes its sequence there from the first frame the primary had not
// confirmed: no frame lost, no sequence disruption, because the standby's
// router runs with ResumeStreams and answers the opening Sync with the
// client's own position.
func TestClientFailover(t *testing.T) {
	_, opts := sharedModels()

	primary := NewServer(NewRouter(testFleet(opts), Config{}), ServerConfig{Logf: t.Logf})
	go primary.ListenAndServe("127.0.0.1:0")
	for primary.Addr() == nil {
		time.Sleep(time.Millisecond)
	}
	standbyRouter := NewRouter(testFleet(opts), Config{ResumeStreams: true})
	standbySrv := NewServer(standbyRouter, ServerConfig{Logf: t.Logf})
	go standbySrv.ListenAndServe("127.0.0.1:0")
	defer standbySrv.Close()
	for standbySrv.Addr() == nil {
		time.Sleep(time.Millisecond)
	}

	stream := testStream(20, 22)
	c, err := Dial(ClientConfig{
		Addr:   primary.Addr().String() + "," + standbySrv.Addr().String(),
		Tenant: "cam-a",
		Sleep:  func(time.Duration) {}, // no wall-clock waits in tests
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 8; i++ {
		if err := c.Send(stream[i]); err != nil {
			t.Fatalf("frame %d (primary): %v", i, err)
		}
	}
	st := c.Stats()
	if st.Failovers != 0 {
		t.Fatalf("healthy primary: %d failovers, want 0", st.Failovers)
	}
	// The first frame asked; the seven behind it are in flight.
	if inFlight := int64(8) - st.Acked; inFlight != window-1 {
		t.Fatalf("%d of 8 frames unconfirmed before the kill, want %d", inFlight, window-1)
	}

	// kill -9 the primary: every connection drops, new dials are refused.
	primary.Close()

	for i := 8; i < 20; i++ {
		if err := c.Send(stream[i]); err != nil {
			t.Fatalf("frame %d (after failover): %v", i, err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Failovers < 1 || st.Acked != 20 {
		t.Fatalf("stats %+v, want at least one failover and all 20 frames acked", st)
	}

	// The standby adopted the stream mid-sequence: the frames in flight at
	// the kill and every one after, from the first the primary had not
	// confirmed.
	ss := standbyRouter.Stats()
	if want := 20 - st.Acked; ss.Accepted != want || len(ss.Tenants) != 1 || ss.Tenants[0].Tenant != "cam-a" {
		t.Fatalf("standby accepted %d frames from %d tenants, want %d from cam-a", ss.Accepted, len(ss.Tenants), want)
	}
	if ss.Dups != 0 {
		t.Fatalf("standby saw %d duplicates: a frame was resent that it already held", ss.Dups)
	}
	if v := standbyRouter.Submit(MsgFromFrame("cam-a", 19, stream[19])); !v.Ack || !v.Dup {
		t.Fatalf("standby lost the adopted sequence position: %+v", v)
	}
}

// TestClientFailoverCorruptFirstFrame: the first frame a failed-over
// client sends the standby arrives corrupted. The stream stays aligned,
// so the frames behind it reach the router first — and must not define
// the tenant's position there: the client's opening Sync already did, so
// they are gaps, and the resend delivers every frame exactly once.
func TestClientFailoverCorruptFirstFrame(t *testing.T) {
	_, opts := sharedModels()

	primary := NewServer(NewRouter(testFleet(opts), Config{}), ServerConfig{Logf: t.Logf})
	go primary.ListenAndServe("127.0.0.1:0")
	for primary.Addr() == nil {
		time.Sleep(time.Millisecond)
	}
	standbyRouter := NewRouter(testFleet(opts), Config{ResumeStreams: true})
	standbySrv := NewServer(standbyRouter, ServerConfig{Logf: t.Logf})
	go standbySrv.ListenAndServe("127.0.0.1:0")
	defer standbySrv.Close()
	for standbySrv.Addr() == nil {
		time.Sleep(time.Millisecond)
	}

	const confirmed, frames = 5, 10
	stream := testStream(frames, 25)
	var c *Client
	corrupted := false
	c, err := Dial(ClientConfig{
		Addr:   primary.Addr().String() + "," + standbySrv.Addr().String(),
		Tenant: "cam-a",
		Sleep:  func(time.Duration) {},
		TxFault: func(_ int, b []byte) ([]byte, bool) {
			// The first transmission of frame 5 after the failover: its
			// payload's last byte flipped, the checksum no longer matching.
			if corrupted || c.Stats().Failovers == 0 {
				return b, false
			}
			_, payload, err := DecodeMsg(b)
			if err != nil {
				t.Errorf("a frame the client sealed: %v", err)
				return b, false
			}
			if m, err := DecodeFrameMsg(payload); err != nil || m.Seq != confirmed {
				return b, false
			}
			corrupted = true
			bad := append([]byte(nil), b...)
			bad[len(bad)-1] ^= 0xff
			return bad, false
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < confirmed; i++ {
		if err := c.Send(stream[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	primary.Close()
	for i := confirmed; i < frames; i++ {
		if err := c.Send(stream[i]); err != nil {
			t.Fatalf("frame %d (after failover): %v", i, err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if !corrupted {
		t.Fatal("no frame was corrupted: the test exercised nothing")
	}
	if st := c.Stats(); st.Failovers < 1 || st.Acked != frames || st.Nacks == 0 {
		t.Fatalf("client stats %+v, want a failover, a nack and all %d frames acked", st, frames)
	}
	if _, err := standbyRouter.Pump(); err != nil {
		t.Fatal(err)
	}
	ss := standbyRouter.Stats()
	if ss.Accepted != frames-confirmed || ss.Processed != frames-confirmed || ss.Dups != 0 {
		t.Fatalf("standby accepted %d, processed %d (%d dups), want every one of frames %d..%d once",
			ss.Accepted, ss.Processed, ss.Dups, confirmed, frames-1)
	}
	if at := standbyRouter.Position("cam-a"); at != frames {
		t.Fatalf("standby holds cam-a at %d, want %d", at, frames)
	}
}

// TestRouterRestoresTenants: a router over a fleet resumed from a
// checkpoint takes over the tenants the checkpoint names, at the stream
// position each had reached, and a client ahead of the checkpoint moves
// the position once, on first contact: its Sync, or an HTTP client's first
// frame. Shards without a name are nobody's: a tenant the checkpoint lacks
// attaches a fresh slot, as every failed-over tenant did before shards
// recorded their tenant. That a restored stream continues exactly once, as
// if nothing had happened, the root package's fleet equivalence holds.
func TestRouterRestoresTenants(t *testing.T) {
	_, opts := sharedModels()
	sm := testFleet(opts)
	if _, err := sm.Attach(nil); err != nil { // an unnamed slot: a library fleet's
		t.Fatal(err)
	}
	r := NewRouter(sm, Config{})
	streams := map[string][]vidsim.Frame{"cam-a": testStream(30, 23), "cam-b": testStream(20, 24)}
	submitFrames(t, r, "cam-a", streams["cam-a"], 0, 20)
	submitFrames(t, r, "cam-b", streams["cam-b"], 0, 10)
	if _, err := r.Pump(); err != nil {
		t.Fatal(err)
	}

	resumed, err := videodrift.ResumeSharded(sm.Checkpoint(), testLabeler, videodrift.ShardedOptions{Options: opts, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rr := NewRouter(resumed, Config{ResumeStreams: true})
	if got := rr.Stats(); got.Known != 2 || got.Active != 2 || got.Tenants[0].Slot != 1 || got.Tenants[1].Slot != 2 {
		t.Fatalf("restored router: %+v, want cam-a and cam-b attached in slots 1 and 2", got)
	}
	if a, b := rr.Position("cam-a"), rr.Position("cam-b"); a != 20 || b != 10 {
		t.Fatalf("restored positions %d and %d, want 20 and 10", a, b)
	}
	// A Sync from behind is told the restored position; one from ahead is
	// told its own.
	if p, _ := rr.position([]byte("cam-a"), 16, true); p != 20 {
		t.Errorf("Sync at 16: answered %d, want the restored 20", p)
	}
	if v := rr.Submit(MsgFromFrame("cam-a", 21, streams["cam-a"][21])); v.Ack || v.Code != NackBadSeq {
		t.Errorf("a frame past a lost one after the Sync: %+v, want NackBadSeq", v)
	}
	if p, _ := rr.position([]byte("cam-b"), 12, true); p != 12 {
		t.Errorf("Sync at 12 past a checkpoint at 10: answered %d, want 12", p)
	}

	if v := rr.Submit(MsgFromFrame("cam-a", 19, streams["cam-a"][19])); !v.Ack || !v.Dup {
		t.Fatalf("a frame the checkpoint holds: %+v, want a dup ack", v)
	}
	submitFrames(t, rr, "cam-a", streams["cam-a"], 20, 30)
	submitFrames(t, rr, "cam-b", streams["cam-b"], 12, 14)
	if v := rr.Submit(MsgFromFrame("cam-b", 16, streams["cam-b"][16])); v.Ack || v.Code != NackBadSeq {
		t.Errorf("a gap after the first frame: %+v, want NackBadSeq", v)
	}
	if v := rr.Submit(MsgFromFrame("cam-c", 7, streams["cam-b"][7])); !v.Ack {
		t.Fatalf("a tenant the checkpoint lacks, mid-stream: %+v", v)
	}
	if _, err := rr.Pump(); err != nil {
		t.Fatal(err)
	}
	for slot, want := range []struct {
		tenant string
		next   uint64
	}{{"", 0}, {"cam-a", 30}, {"cam-b", 14}, {"cam-c", 8}} {
		if id, next := resumed.Tenant(slot); id != want.tenant || next != want.next {
			t.Errorf("slot %d serves %q at %d, want %q at %d", slot, id, next, want.tenant, want.next)
		}
	}

}
