package ingest

import (
	"encoding/binary"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"videodrift"
	"videodrift/internal/telemetry"
	"videodrift/internal/vidsim"
)

// Fleet fixtures: the root facade's 16x16 test scene, built once —
// model entries are immutable after provisioning, so every test can
// share them across fleets and reference monitors.
const (
	testDim     = 16 * 16
	testClasses = 8
)

func testLabeler(f vidsim.Frame) int {
	c := f.CountClass(vidsim.Car)
	if c >= testClasses {
		c = testClasses - 1
	}
	return c
}

// wireOracle is testLabeler for the frames a fleet fed through the router
// keeps, which carry position and the wire's pixels only: it recognises
// each frame of the given streams by its pixels, quantized as the wire
// delivers them, and answers with the label its ground truth gives. A
// kept frame no stream holds fails the test instead of being labelled 0.
func wireOracle(t testing.TB, streams map[string][]vidsim.Frame) videodrift.Labeler {
	labels := map[string]int{}
	for _, s := range streams {
		for _, f := range s {
			labels[pixelKey(FrameFromMsg(MsgFromFrame("", 0, f)).Pixels)] = testLabeler(f)
		}
	}
	return func(f vidsim.Frame) int {
		l, ok := labels[pixelKey(f.Pixels)]
		if !ok {
			t.Errorf("labeler asked for frame %d, which no stream of the test holds", f.Index)
		}
		return l
	}
}

// pixelKey is a frame's pixels, bit for bit, as a map key.
func pixelKey(px []float64) string {
	b := make([]byte, 0, 8*len(px))
	for _, v := range px {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return string(b)
}

func testCond(base vidsim.Condition) vidsim.Condition {
	base.CarRate, base.BusRate = 5.5, 0
	return base
}

var (
	modelsOnce sync.Once
	testModels []*videodrift.Model
	testOpts   videodrift.Options
)

func sharedModels() ([]*videodrift.Model, videodrift.Options) {
	modelsOnce.Do(func() {
		testOpts = videodrift.Defaults(testDim, testClasses)
		day := videodrift.BuildModel("day",
			vidsim.GenerateTraining(testCond(vidsim.Day()), 16, 16, 200, 1), testLabeler, testOpts)
		night := videodrift.BuildModel("night",
			vidsim.GenerateTraining(testCond(vidsim.Night()), 16, 16, 200, 2), testLabeler, testOpts)
		testModels = []*videodrift.Model{day, night}
	})
	return testModels, testOpts
}

// testFleet builds an empty dynamic fleet over the shared models.
func testFleet(opts videodrift.Options) *videodrift.ShardedMonitor {
	return videodrift.NewDynamicSharded(testModels, testLabeler, videodrift.ShardedOptions{
		Options: opts, Workers: 2,
	})
}

// testStream generates a tenant's day-scene frames.
func testStream(n int, seed int64) []vidsim.Frame {
	return vidsim.GenerateTrainingStride(testCond(vidsim.Day()), 16, 16, n, 1, seed)
}

// submitFrames pushes frames [from, to) of a stream as one tenant's
// next sequence numbers, requiring every verdict to be a plain accept.
func submitFrames(t *testing.T, r *Router, tenant string, stream []vidsim.Frame, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		v := r.Submit(MsgFromFrame(tenant, uint64(i), stream[i]))
		if !v.Ack || v.Dup {
			t.Fatalf("tenant %s seq %d: verdict %+v, want clean ack", tenant, i, v)
		}
	}
}

// TestRouterAttachOnFirstFrame pins the dynamic tenant lifecycle's
// front half: an unknown tenant's first frame attaches a shard over the
// shared models; distinct tenants get distinct slots.
func TestRouterAttachOnFirstFrame(t *testing.T) {
	_, opts := sharedModels()
	sm := testFleet(opts)
	r := NewRouter(sm, Config{})
	if sm.Active() != 0 {
		t.Fatalf("fresh dynamic fleet has %d active shards", sm.Active())
	}
	a, b := testStream(4, 11), testStream(4, 12)
	submitFrames(t, r, "cam-a", a, 0, 1)
	if sm.Active() != 1 {
		t.Fatalf("after first tenant: %d active shards, want 1", sm.Active())
	}
	submitFrames(t, r, "cam-b", b, 0, 1)
	s := r.Stats()
	if s.Known != 2 || s.Active != 2 || s.Attaches != 2 || s.Accepted != 2 {
		t.Fatalf("stats %+v, want 2 known/active/attached/accepted", s)
	}
	if s.Tenants[0].Slot == s.Tenants[1].Slot {
		t.Fatalf("tenants share slot %d", s.Tenants[0].Slot)
	}
	if n, err := r.Pump(); err != nil || n != 2 {
		t.Fatalf("Pump processed %d (%v), want 2", n, err)
	}
	if s := r.Stats(); s.Processed != 2 || s.Tenants[0].Processed != 1 {
		t.Fatalf("after pump: %+v", s)
	}
}

// TestRouterSeqContract pins the exactly-once sequencing: a replayed
// seq is acked idempotently as a duplicate, a gap is rejected with the
// expected seq in the reason, and the in-order frame then proceeds.
func TestRouterSeqContract(t *testing.T) {
	_, opts := sharedModels()
	r := NewRouter(testFleet(opts), Config{})
	stream := testStream(4, 13)
	submitFrames(t, r, "cam-a", stream, 0, 1)

	if v := r.Submit(MsgFromFrame("cam-a", 0, stream[0])); !v.Ack || !v.Dup {
		t.Fatalf("resend of seq 0: verdict %+v, want dup ack", v)
	}
	v := r.Submit(MsgFromFrame("cam-a", 2, stream[2]))
	if v.Ack || v.Code != NackBadSeq || !strings.Contains(v.Reason, "want seq 1, got 2") {
		t.Fatalf("gap: verdict %+v, want NackBadSeq naming seq 1", v)
	}
	submitFrames(t, r, "cam-a", stream, 1, 2)
	s := r.Stats()
	if s.Accepted != 2 || s.Dups != 1 || s.NackedSeq != 1 {
		t.Fatalf("stats %+v, want accepted 2, dups 1, nacked_seq 1", s)
	}
}

// submitBlocked submits frame seq of tenant's stream on a goroutine of
// its own and returns once that Submit waits for room in the full queue,
// with the channel its verdict arrives on.
func submitBlocked(t *testing.T, r *Router, tenant string, stream []vidsim.Frame, seq int) <-chan Verdict {
	t.Helper()
	res := make(chan Verdict, 1)
	go func() { res <- r.Submit(MsgFromFrame(tenant, uint64(seq), stream[seq])) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		select {
		case v := <-res:
			t.Fatalf("Submit past QueueCap answered %+v at once, want it to wait for room", v)
		default:
		}
		r.mu.Lock()
		waiting := r.room != nil
		r.mu.Unlock()
		if waiting {
			return res
		}
		if time.Now().After(deadline) {
			t.Fatal("Submit past QueueCap neither answered nor waited for room")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRouterBackpressure pins the no-silent-drop contract: a Submit
// past QueueCap is neither rejected nor queued — it waits until a Pump
// on another goroutine makes room, and is then admitted exactly once;
// every accepted frame reaches the fleet.
func TestRouterBackpressure(t *testing.T) {
	_, opts := sharedModels()
	r := NewRouter(testFleet(opts), Config{QueueCap: 4, BatchSize: 2})
	stream := testStream(6, 14)
	submitFrames(t, r, "cam-a", stream, 0, 4)

	res := submitBlocked(t, r, "cam-a", stream, 4)
	if s := r.Stats(); s.Accepted != 4 || s.Tenants[0].Queued != 4 {
		t.Fatalf("while the frame waits: %d accepted, %d queued; want 4, 4", s.Accepted, s.Tenants[0].Queued)
	}
	if n, err := r.Pump(); err != nil || n != 4 {
		t.Fatalf("Pump processed %d (%v), want 4", n, err)
	}
	if v := <-res; !v.Ack || v.Dup {
		t.Fatalf("the frame that waited: verdict %+v, want a clean ack", v)
	}
	submitFrames(t, r, "cam-a", stream, 5, 6)
	if _, err := r.Pump(); err != nil {
		t.Fatal(err)
	}
	s := r.Stats()
	if s.Accepted != 6 || s.Processed != 6 || s.Dups != 0 {
		t.Fatalf("stats %+v: accepted %d processed %d dups %d, want 6/6/0 — a frame was lost or admitted twice", s, s.Accepted, s.Processed, s.Dups)
	}
}

// TestRouterStopAdmissionReleasesSubmit pins the waiting Submit's one
// other way out: StopAdmission rejects it as an internal fault ("server
// closing", which a client resends elsewhere), and the frames already
// queued stay for the last Pump.
func TestRouterStopAdmissionReleasesSubmit(t *testing.T) {
	_, opts := sharedModels()
	r := NewRouter(testFleet(opts), Config{QueueCap: 2})
	stream := testStream(3, 17)
	submitFrames(t, r, "cam-a", stream, 0, 2)

	res := submitBlocked(t, r, "cam-a", stream, 2)
	r.StopAdmission()
	if v := <-res; v.Ack || v.Code != NackInternal || v.Reason != "server closing" {
		t.Fatalf("the waiting frame after StopAdmission: verdict %+v, want NackInternal \"server closing\"", v)
	}
	if n, err := r.Pump(); err != nil || n != 2 {
		t.Fatalf("the last Pump processed %d (%v), want the 2 queued", n, err)
	}
	if s := r.Stats(); s.Accepted != 2 || s.Processed != 2 {
		t.Fatalf("accepted %d processed %d, want 2/2", s.Accepted, s.Processed)
	}
}

// TestRouterTenantLimit pins the admission bound: beyond MaxTenants an
// unknown tenant is rejected with a retryable NackTenantLimit, and a
// slot freed by eviction admits it.
func TestRouterTenantLimit(t *testing.T) {
	_, opts := sharedModels()
	now := time.Unix(1000, 0)
	r := NewRouter(testFleet(opts), Config{
		MaxTenants: 1, IdleEvict: time.Minute,
		Now: func() time.Time { return now },
	})
	a, b := testStream(2, 15), testStream(2, 16)
	submitFrames(t, r, "cam-a", a, 0, 1)
	if v := r.Submit(MsgFromFrame("cam-b", 0, b[0])); v.Ack || v.Code != NackTenantLimit {
		t.Fatalf("over limit: verdict %+v, want NackTenantLimit", v)
	}
	if _, err := r.Pump(); err != nil {
		t.Fatal(err)
	}
	now = now.Add(2 * time.Minute)
	if _, err := r.Pump(); err != nil { // evicts idle cam-a
		t.Fatal(err)
	}
	submitFrames(t, r, "cam-b", b, 0, 1)
	s := r.Stats()
	if s.NackedLimit != 1 || s.Evictions != 1 || s.Active != 1 {
		t.Fatalf("stats %+v, want 1 nacked_limit, 1 eviction, 1 active", s)
	}
}

// TestRouterIdleEvictAndReattach pins the lifecycle's back half: an
// idle tenant detaches (freeing its shard slot), its sequence position
// survives, and its next frame reattaches — on the reused slot — with
// the stream continuing exactly where it left off.
func TestRouterIdleEvictAndReattach(t *testing.T) {
	_, opts := sharedModels()
	now := time.Unix(2000, 0)
	sm := testFleet(opts)
	r := NewRouter(sm, Config{
		IdleEvict: time.Minute, BatchSize: 2,
		Now: func() time.Time { return now },
	})
	stream := testStream(8, 17)
	submitFrames(t, r, "cam-a", stream, 0, 3)
	if _, err := r.Pump(); err != nil {
		t.Fatal(err)
	}
	if s := r.Stats(); s.Evictions != 0 || s.Active != 1 {
		t.Fatalf("fresh tenant already evicted: %+v", s)
	}
	now = now.Add(2 * time.Minute)
	if _, err := r.Pump(); err != nil {
		t.Fatal(err)
	}
	s := r.Stats()
	if s.Evictions != 1 || s.Active != 0 || s.Known != 1 || s.Tenants[0].Slot != -1 {
		t.Fatalf("after idle window: %+v, want 1 known evicted tenant", s)
	}
	if sm.Active() != 0 {
		t.Fatalf("fleet still has %d attached shards after eviction", sm.Active())
	}

	// The returning tenant must continue its sequence: a replay of an
	// old seq is still a dup, the next expected seq is still honored.
	if v := r.Submit(MsgFromFrame("cam-a", 1, stream[1])); !v.Ack || !v.Dup {
		t.Fatalf("replay across eviction: verdict %+v, want dup ack", v)
	}
	submitFrames(t, r, "cam-a", stream, 3, 5)
	s = r.Stats()
	if s.Attaches != 2 || s.Active != 1 || s.Tenants[0].Slot != 0 {
		t.Fatalf("reattach: %+v, want second attach on reused slot 0", s)
	}
	if _, err := r.Pump(); err != nil {
		t.Fatal(err)
	}
	if s := r.Stats(); s.Processed != 5 {
		t.Fatalf("processed %d, want all 5 accepted frames", s.Processed)
	}
}

// TestRouterPrometheus smoke-checks the metrics surface.
func TestRouterPrometheus(t *testing.T) {
	_, opts := sharedModels()
	r := NewRouter(testFleet(opts), Config{})
	r.CountMalformed()
	stream := testStream(2, 18)
	submitFrames(t, r, "cam-a", stream, 0, 1)
	if _, err := r.Pump(); err != nil { // a bare Pump counts with the connections'
		t.Fatal(err)
	}
	submitFrames(t, r, "cam-a", stream, 1, 2)
	var sb strings.Builder
	if err := telemetry.WriteFamilies(&sb, r.Stats().Families()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"ingest_tenants_active 1",
		"ingest_frames_accepted_total 2",
		"ingest_nack_total{code=\"malformed\"} 1",
		"ingest_pump_runs_total 1",
		"ingest_frames_processed_total 1",
		"ingest_tenant_queue_depth{tenant=\"cam-a\"} 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
	if r.Stats().NackedMalformed != 1 {
		t.Fatal("CountMalformed not reflected in stats")
	}
}

// TestRouterPrometheusTenantLabel holds a wire tenant id to the text
// format's label escaping: the id may be any string, and the page carries
// it raw but for backslash, double quote and newline, with invalid UTF-8
// as U+FFFD. Go's %q escapes (\t, \xff, \u200b) are not in the format, and
// a parser that meets one rejects the whole page.
func TestRouterPrometheusTenantLabel(t *testing.T) {
	_, opts := sharedModels()
	r := NewRouter(testFleet(opts), Config{})
	submitFrames(t, r, "cam\t\xff\u200b", testStream(2, 19), 0, 2)
	var sb strings.Builder
	if err := telemetry.WriteFamilies(&sb, r.Stats().Families()); err != nil {
		t.Fatal(err)
	}
	if want := "\ningest_tenant_queue_depth{tenant=\"cam\t\uFFFD\u200b\"} 2\n"; !strings.Contains(sb.String(), want) {
		t.Errorf("metrics lack %q:\n%s", want, sb.String())
	}
}
