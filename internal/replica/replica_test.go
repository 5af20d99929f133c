package replica

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"

	"videodrift/internal/conformal"
	"videodrift/internal/core"
	"videodrift/internal/store"
	"videodrift/internal/telemetry"
	"videodrift/internal/tensor"
)

func testEntry(name string) *core.ModelEntry {
	calib := []float64{0.5, 0.25, 0.75}
	return &core.ModelEntry{
		Name:        name,
		W:           2,
		H:           2,
		SampleFeats: []tensor.Vector{{0.1, 0.2, 0.3, 0.4}},
		CalibRaw:    calib,
		Calib:       conformal.NewSortedCalib(calib),
	}
}

// testCheckpoint builds a checkpoint over the given (shared-pointer)
// entry table, so consecutive captures diff to pure-runtime deltas.
func testCheckpoint(t testing.TB, entries []*core.ModelEntry, frames int64) *store.Checkpoint {
	t.Helper()
	cfg := core.DefaultPipelineConfig(4, 2)
	cfg.Selector = core.SelectorMSBI
	pipe := core.NewPipeline(core.NewRegistry(entries...), nil, cfg)
	reg := make([]int, len(entries))
	for i := range reg {
		reg[i] = i
	}
	return &store.Checkpoint{
		CreatedUnixNano: 1700000000000000000,
		Frames:          frames,
		Entries:         entries,
		Shards:          []store.ShardState{{Registry: reg, Pipeline: pipe.Snapshot()}},
	}
}

// startStandby serves a standby on a loopback listener and returns it
// with its address. Cleanup closes the listener and waits for Serve.
func startStandby(t *testing.T, cfg StandbyConfig) (*Standby, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	sb := NewStandby(cfg)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := sb.Serve(ln); err != nil {
			t.Errorf("standby serve: %v", err)
		}
	}()
	t.Cleanup(func() {
		sb.Close()
		ln.Close()
		<-done
	})
	return sb, ln.Addr().String()
}

// TestReplicationStream drives a primary through several capture
// cycles against a live standby: one full snapshot to establish the
// base, deltas afterwards, a model-add carried inside a delta, and a
// torn write that resumes from the standby's Hello generation instead
// of re-shipping a full.
func TestReplicationStream(t *testing.T) {
	tr := telemetry.New(telemetry.Config{})
	sb, addr := startStandby(t, StandbyConfig{Tracer: tr})

	var (
		mu      sync.Mutex
		entries = []*core.ModelEntry{testEntry("m0")}
		frames  int64
		tearAt  = -1
	)
	prim := NewPrimary(PrimaryConfig{
		Addrs: []string{addr},
		Capture: func() *store.Checkpoint {
			mu.Lock()
			defer mu.Unlock()
			frames += 100
			return testCheckpoint(t, entries, frames)
		},
		TxFault: func(msg int, b []byte) ([]byte, bool) {
			mu.Lock()
			defer mu.Unlock()
			if msg == tearAt {
				return b[:10], true
			}
			return b, false
		},
		Logf: t.Logf,
	})
	defer prim.Close()

	for i := 0; i < 5; i++ {
		if err := prim.Cycle(); err != nil {
			t.Fatalf("cycle %d: %v", i+1, err)
		}
	}
	if got := sb.Gen(); got != 5 {
		t.Fatalf("standby at gen %d, want 5", got)
	}
	if got := sb.Applied(); got != 5 {
		t.Fatalf("standby applied %d generations, want 5", got)
	}
	if lag := prim.Lag(); lag != 0 {
		t.Fatalf("primary lag %d, want 0", lag)
	}

	// A torn write mid-stream: the primary reconnects within the same
	// cycle and resumes from the standby's Hello generation — the
	// retry is still a delta, not a full restart.
	mu.Lock()
	tearAt = 5 // the 6th message, i.e. cycle 6's first send
	mu.Unlock()
	if err := prim.Cycle(); err != nil {
		t.Fatalf("cycle after torn write: %v", err)
	}
	if got := sb.Gen(); got != 6 {
		t.Fatalf("standby at gen %d after torn write, want 6", got)
	}

	// A new model entry rides inside a delta.
	mu.Lock()
	entries = append(entries, testEntry("m1"))
	mu.Unlock()
	if err := prim.Cycle(); err != nil {
		t.Fatalf("cycle with new entry: %v", err)
	}
	cp := sb.Latest()
	if cp == nil || len(cp.Entries) != 2 {
		t.Fatalf("standby checkpoint entries = %v, want 2", cp)
	}
	if cp.Entries[0].Name != "m0" || cp.Entries[1].Name != "m1" {
		t.Fatalf("standby entries %q, %q", cp.Entries[0].Name, cp.Entries[1].Name)
	}
	if cp.Gen != 7 || cp.Epoch != 1 {
		t.Fatalf("standby checkpoint gen %d epoch %d, want 7, 1", cp.Gen, cp.Epoch)
	}

	snap := tr.Snapshot()
	if snap.ReplicaDeltasApplied != 7 {
		t.Fatalf("replica_deltas_applied = %d, want 7", snap.ReplicaDeltasApplied)
	}
}

// TestStandbyChainsGenerations: a full and the deltas after it leave
// the standby holding exactly the primary's last capture.
func TestStandbyChainsGenerations(t *testing.T) {
	sb, addr := startStandby(t, StandbyConfig{})

	entries := []*core.ModelEntry{testEntry("m0")}
	var frames int64
	var last *store.Checkpoint
	prim := NewPrimary(PrimaryConfig{
		Addrs: []string{addr},
		Capture: func() *store.Checkpoint {
			frames += 100
			last = testCheckpoint(t, entries, frames)
			return last
		},
	})
	defer prim.Close()
	for i := 0; i < 4; i++ {
		if err := prim.Cycle(); err != nil {
			t.Fatalf("cycle %d: %v", i+1, err)
		}
	}
	if got := sb.Gen(); got != 4 {
		t.Fatalf("standby at gen %d, want 4", got)
	}
	cp := sb.Latest()
	if cp.Gen != 4 || cp.Frames != 400 {
		t.Fatalf("standby checkpoint gen %d frames %d, want 4, 400", cp.Gen, cp.Frames)
	}
	want, err := store.Encode(last)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := store.Encode(cp); err != nil || !bytes.Equal(got, want) {
		t.Errorf("the standby's generation 4 differs from the primary's capture (%v)", err)
	}
}

// TestDeltaBaseRenegotiation hand-speaks the protocol to a standby:
// after a delta whose base digest does not match, the standby must
// keep its state, close the connection, and ask for a full snapshot on
// the next Hello.
func TestDeltaBaseRenegotiation(t *testing.T) {
	sb, addr := startStandby(t, StandbyConfig{Logf: t.Logf})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	msgType, payload, err := ReadMsg(conn)
	if err != nil || msgType != MsgHello {
		t.Fatalf("hello: type %d, %v", msgType, err)
	}
	h, err := DecodeHello(payload)
	if err != nil || h.Gen != 0 {
		t.Fatalf("hello %+v, %v (want gen 0)", h, err)
	}

	entries := []*core.ModelEntry{testEntry("m0")}
	cp := testCheckpoint(t, entries, 100)
	cp.Gen, cp.Epoch = 5, 1
	full, _, err := store.EncodeWithCRCs(cp)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if _, err := conn.Write(EncodeState(MsgFull, State{Epoch: 1, Seq: 1, Gen: 5, Payload: full})); err != nil {
		t.Fatalf("send full: %v", err)
	}
	msgType, payload, err = ReadMsg(conn)
	if err != nil || msgType != MsgApplied {
		t.Fatalf("ack: type %d, %v", msgType, err)
	}
	if a, _ := DecodeApplied(payload); a.Gen != 5 {
		t.Fatalf("applied gen %d, want 5", a.Gen)
	}

	// A delta claiming base gen 5 with a wrong base digest: the chain
	// is broken, the standby must not apply it.
	bad := &store.Delta{
		BaseGen: 5, Gen: 6, Epoch: 1,
		CreatedUnixNano: cp.CreatedUnixNano,
		Frames:          200,
		BaseEntries:     1,
		BaseDigest:      0xdeadbeef,
		Shards:          cp.Shards,
	}
	badBytes, err := store.EncodeDelta(bad)
	if err != nil {
		t.Fatalf("encode bad delta: %v", err)
	}
	if _, err := conn.Write(EncodeState(MsgDelta, State{Epoch: 1, Seq: 2, Gen: 6, BaseGen: 5, Payload: badBytes})); err != nil {
		t.Fatalf("send bad delta: %v", err)
	}
	msgType, payload, err = ReadMsg(conn)
	if err != nil || msgType != MsgApplied {
		t.Fatalf("reply to bad delta: type %d, %v", msgType, err)
	}
	if a, _ := DecodeApplied(payload); a.Gen != 5 {
		t.Fatalf("standby reports gen %d after rejected delta, want 5", a.Gen)
	}
	if _, _, err := ReadMsg(conn); err == nil {
		t.Fatal("standby kept the connection open after a chain break")
	}
	if got := sb.Gen(); got != 5 {
		t.Fatalf("standby state advanced to gen %d on a bad delta", got)
	}

	// The reconnect Hello asks for a full (gen 0), not a delta resume.
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("redial: %v", err)
	}
	defer conn2.Close()
	msgType, payload, err = ReadMsg(conn2)
	if err != nil || msgType != MsgHello {
		t.Fatalf("second hello: type %d, %v", msgType, err)
	}
	if h, _ := DecodeHello(payload); h.Gen != 0 {
		t.Fatalf("second hello gen %d, want 0 (force full)", h.Gen)
	}
}

// TestUnbuildableGenerationDoesNotFence: a generation the standby cannot
// apply — here a model entry with no reference features, which encodes
// but does not rebuild — is answered like a broken chain, not with a
// fence. The primary's cycle fails, it stays unfenced, and the next good
// capture is applied from a full.
func TestUnbuildableGenerationDoesNotFence(t *testing.T) {
	sb, addr := startStandby(t, StandbyConfig{Logf: t.Logf})

	good, broken := testEntry("m0"), testEntry("broken")
	broken.SampleFeats = nil
	entries := []*core.ModelEntry{good}
	var frames int64
	var fencedBy uint64
	prim := NewPrimary(PrimaryConfig{
		Addrs: []string{addr},
		Epoch: 5,
		Capture: func() *store.Checkpoint {
			frames += 100
			return testCheckpoint(t, entries, frames)
		},
		OnFenced: func(epoch uint64) { fencedBy = epoch },
		Logf:     t.Logf,
	})
	defer prim.Close()
	if err := prim.Cycle(); err != nil {
		t.Fatalf("first cycle: %v", err)
	}

	entries = []*core.ModelEntry{good, broken}
	if err := prim.Cycle(); err == nil || errors.Is(err, ErrFenced) {
		t.Fatalf("cycle carrying an unbuildable entry = %v, want an error other than ErrFenced", err)
	}
	if prim.Fenced() || fencedBy != 0 {
		t.Fatalf("primary fenced=%v (OnFenced epoch %d) by a generation its standby could not build", prim.Fenced(), fencedBy)
	}
	if got := sb.Gen(); got != 1 {
		t.Fatalf("standby at gen %d, want it to keep gen 1", got)
	}

	entries = []*core.ModelEntry{good, testEntry("m1")}
	if err := prim.Cycle(); err != nil {
		t.Fatalf("cycle after the unbuildable one: %v", err)
	}
	cp := sb.Latest()
	if cp.Gen != 3 || len(cp.Entries) != 2 || cp.Entries[1].Name != "m1" {
		t.Fatalf("standby holds gen %d with %d entries, want gen 3 ending in m1", cp.Gen, len(cp.Entries))
	}
	if prim.Fenced() || sb.Epoch() != 5 {
		t.Fatalf("primary fenced=%v, standby epoch %d; want false, 5", prim.Fenced(), sb.Epoch())
	}
}

// TestFencingEpochs proves the no-split-brain property: a standby that
// has seen a newer epoch rejects a staler primary's stream with a
// Fenced reply, the stale primary demotes itself permanently, and a
// promoted standby fences even the epoch it replicated from.
func TestFencingEpochs(t *testing.T) {
	tr := telemetry.New(telemetry.Config{})
	sb, addr := startStandby(t, StandbyConfig{Tracer: tr, Logf: t.Logf})

	newPrimary := func(epoch uint64, onFenced func(uint64)) *Primary {
		entries := []*core.ModelEntry{testEntry("m0")}
		var frames int64
		return NewPrimary(PrimaryConfig{
			Addrs: []string{addr},
			Epoch: epoch,
			Capture: func() *store.Checkpoint {
				frames += 100
				return testCheckpoint(t, entries, frames)
			},
			OnFenced: onFenced,
			Logf:     t.Logf,
		})
	}

	var fencedBy uint64
	stale := newPrimary(1, func(epoch uint64) { fencedBy = epoch })
	defer stale.Close()
	if err := stale.Cycle(); err != nil {
		t.Fatalf("stale primary first cycle: %v", err)
	}

	// A newer primary takes over the standby; the standby adopts its
	// epoch.
	newer := newPrimary(2, nil)
	defer newer.Close()
	if err := newer.Cycle(); err != nil {
		t.Fatalf("newer primary cycle: %v", err)
	}
	if got := sb.Epoch(); got != 2 {
		t.Fatalf("standby epoch %d, want 2", got)
	}

	// The stale primary's still-open connection streams epoch 1 and is
	// rejected in-band with a Fenced message.
	if err := stale.Cycle(); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale primary cycle = %v, want ErrFenced", err)
	}
	if !stale.Fenced() || fencedBy != 2 {
		t.Fatalf("stale primary fenced=%v by epoch %d, want true, 2", stale.Fenced(), fencedBy)
	}
	// Fencing is terminal: no capture, no dial, just ErrFenced.
	if err := stale.Cycle(); !errors.Is(err, ErrFenced) {
		t.Fatalf("fenced primary cycle = %v, want ErrFenced", err)
	}

	// Promotion bumps past everything seen and severs the stream; the
	// ex-primary is fenced at reconnect, before any state flows.
	cp, epoch, err := sb.Promote("probe failures")
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if epoch != 3 || cp.Epoch != 3 {
		t.Fatalf("promoted epoch %d, checkpoint epoch %d, want 3, 3", epoch, cp.Epoch)
	}
	var newerFenced uint64
	newer.cfg.OnFenced = func(e uint64) { newerFenced = e }
	if err := newer.Cycle(); !errors.Is(err, ErrFenced) {
		t.Fatalf("ex-primary cycle after promotion = %v, want ErrFenced", err)
	}
	if newerFenced != 3 {
		t.Fatalf("ex-primary fenced by epoch %d, want 3", newerFenced)
	}

	// Promote is idempotent and keeps the epoch.
	if _, again, err := sb.Promote("again"); err != nil || again != 3 {
		t.Fatalf("second promote = epoch %d, %v; want 3, nil", again, err)
	}
	if got := tr.Snapshot().Promotions; got != 2 {
		t.Fatalf("promotions counter %d, want 2", got)
	}
}

// TestPromoteWithoutState rejects promotion before any replication.
func TestPromoteWithoutState(t *testing.T) {
	sb := NewStandby(StandbyConfig{})
	if _, _, err := sb.Promote("too early"); !errors.Is(err, ErrNoState) {
		t.Fatalf("promote with no state = %v, want ErrNoState", err)
	}
}

// TestSeedResumesFromGeneration checks a warm-restarted standby greets
// with its loaded generation, so the primary resumes with a delta.
func TestSeedResumesFromGeneration(t *testing.T) {
	entries := []*core.ModelEntry{testEntry("m0")}
	cp := testCheckpoint(t, entries, 100)
	cp.Gen, cp.Epoch = 3, 2

	sb := NewStandby(StandbyConfig{})
	if err := sb.Seed(cp, nil); err != nil {
		t.Fatalf("seed: %v", err)
	}
	if sb.Gen() != 3 || sb.Epoch() != 2 {
		t.Fatalf("seeded standby gen %d epoch %d, want 3, 2", sb.Gen(), sb.Epoch())
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	go sb.Serve(ln)
	defer sb.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	msgType, payload, err := ReadMsg(conn)
	if err != nil || msgType != MsgHello {
		t.Fatalf("hello: type %d, %v", msgType, err)
	}
	h, err := DecodeHello(payload)
	if err != nil {
		t.Fatalf("decode hello: %v", err)
	}
	if h.Gen != 3 || h.Epoch != 2 {
		t.Fatalf("seeded hello %+v, want gen 3 epoch 2", h)
	}
}
