package ingest

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"videodrift"
	"videodrift/internal/telemetry"
	"videodrift/internal/tensor"
	"videodrift/internal/vidsim"
)

// Router defaults.
const (
	DefaultMaxTenants = 64
	DefaultQueueCap   = 256
	DefaultBatchSize  = 8
	DefaultRetryAfter = 50 * time.Millisecond
)

// Config parameterizes a Router.
type Config struct {
	// MaxTenants bounds concurrently attached tenants (<= 0 means
	// DefaultMaxTenants). A frame from an unknown tenant beyond the
	// limit is NACKed with NackTenantLimit — never queued unboundedly.
	MaxTenants int
	// QueueCap bounds each tenant's frame queue (<= 0 means
	// DefaultQueueCap). A frame arriving at a full queue is NACKed with
	// NackQueueFull and a retry-after hint: explicit backpressure, no
	// silent drop, no unbounded buffering.
	QueueCap int
	// BatchSize is the per-shard micro-batch size Pump feeds the fleet
	// with (<= 0 means DefaultBatchSize).
	BatchSize int
	// IdleEvict detaches a tenant whose queue has been empty and whose
	// last frame is older than this (0 disables eviction). An evicted
	// tenant's sequence position is retained, so a returning tenant
	// resumes its stream on a fresh shard without seq disruption.
	IdleEvict time.Duration
	// RetryAfter is the backoff hint attached to queue-full and
	// tenant-limit NACKs (<= 0 means DefaultRetryAfter).
	RetryAfter time.Duration
	// Now is the router's clock, used only for idle-eviction and
	// retry-after bookkeeping — never for admission or drift decisions,
	// which keeps replay deterministic. Nil means time.Now.
	Now func() time.Time
	// NewTracer optionally builds a per-tenant telemetry tracer,
	// attached to the tenant's shard for its lifetime (re-used across
	// evict/reattach so the tenant's history survives). Nil shares the
	// fleet's base tracer.
	NewTracer func(tenant string) *telemetry.Tracer
	// ResumeStreams makes a brand-new tenant's first frame define its
	// stream position instead of requiring seq 0 — the promoted-standby
	// and warm-restart case, where clients arrive mid-stream at a server
	// that has not seen them. Only tenant creation adopts the sequence; a
	// returning evicted tenant still resumes its retained position, so
	// the exactly-once contract within one server's lifetime holds.
	ResumeStreams bool
}

// Router owns the tenant↔shard mapping over a dynamic ShardedMonitor:
// per-tenant bounded queues, drained by Pump straight into the fleet in
// BatchSize micro-batches. Submit, Pump, Run and a Server's
// connections are safe to use concurrently: admission is serialized by
// one lock, pumping — by Run, by a connection feeding the frame it has
// just read, by a bare Pump — by another.
//
// The backpressure contract: a submitted frame is either queued (and
// eventually processed, exactly once, in sequence order) or rejected
// with a typed verdict the sender sees. Nothing in the router drops a
// frame silently, and no queue grows without bound.
type Router struct {
	sm  *videodrift.ShardedMonitor
	cfg Config

	// mu guards the tenant table and queues (Submit side). order holds
	// the same tenants sorted by id — the order Pump feeds and Stats
	// reports them in, kept at insert so neither sorts.
	mu      sync.Mutex
	tenants map[string]*tenant
	order   []*tenant

	// wake holds at most one token: "a frame was queued that nobody has
	// fed". Whoever queued a frame and does not feed it leaves the token
	// after appending the frame, so a frame racing a drain costs Run one
	// empty Pump, never a frame left waiting.
	wake chan struct{}
	// room, while a windowed connection waits on a full queue, is closed
	// by the next Pump to take the queues (under mu; nil otherwise).
	room chan struct{}
	// evict fires when the first attached tenant's idle window runs out.
	// Whoever pumped last re-arms it (under procMu); only Run listens.
	evict *time.Timer

	// procMu serializes pumping: queue drain, batch feed, idle eviction.
	// work, batches and events are pump's scratch, reused across calls.
	procMu  sync.Mutex
	work    []drained
	batches [][]vidsim.Frame
	events  [][]videodrift.Event

	// free holds the pixel buffers of frames the fleet has processed, for
	// the next frames decoded to take (see freeList).
	free freeList
	// loop is the running Run's pumped callback, nil while no Run owns
	// draining (under procMu). Connections feed in place only while it is
	// set, and account their pumps through it.
	loop func(n int, err error)

	// Aggregate counters (under mu).
	accepted, processed      int64
	dups                     int64
	nackFull, nackSeq        int64
	nackLimit, nackMalformed int64
	evictions, attaches      int64
	pumps, pumpsInline       int64
}

// freeListBytes bounds what the free list keeps: 64 frames of the
// benchmark's 32×32 pixels, whatever backlog a stall drained into it.
const freeListBytes = 512 << 10

// freeList is the router's bounded stack of pixel buffers (DESIGN.md §14).
// A frame borrows one from decode to the end of the Pump that feeds it to
// the fleet — the pipeline and the forensics recorder copy the frames
// they keep — and the buffer then comes back here for the next frame
// decoded, so a warm frame allocates nothing. Past freeListBytes a
// returned buffer is left to the collector. It is not a sync.Pool: a pool
// keeps what a drained backlog returned alive until two collections
// pass, which on a quiet heap is a stall's worth of frames in the
// resident set. Safe for concurrent use; the zero value is ready.
type freeList struct {
	mu    sync.Mutex
	bufs  []tensor.Vector
	bytes int
}

// get returns a buffer of n pixels, recycled when the top of the stack is
// large enough.
func (l *freeList) get(n int) tensor.Vector {
	l.mu.Lock()
	if k := len(l.bufs) - 1; k >= 0 && cap(l.bufs[k]) >= n {
		px := l.bufs[k][:n]
		l.bufs[k] = nil
		l.bufs = l.bufs[:k]
		l.bytes -= 8 * cap(px)
		l.mu.Unlock()
		return px
	}
	l.mu.Unlock()
	return make(tensor.Vector, n)
}

// put returns a processed frame's buffer, which nothing reads any more.
func (l *freeList) put(px tensor.Vector) {
	if poisonFreed.Load() {
		for i := range px {
			px[i] = math.NaN()
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if size := 8 * cap(px); size > 0 && l.bytes+size <= freeListBytes {
		l.bufs = append(l.bufs, px)
		l.bytes += size
	}
}

// poisonFreed, set by tests, fills every buffer with NaN as it is freed:
// a frame read after its Pump — a holder that kept it without a copy —
// then shows up as a different run, not a silent alias.
var poisonFreed atomic.Bool

// drained is one tenant's share of a Pump: the frames moved out of its
// queue and the slot they go to.
type drained struct {
	t      *tenant
	slot   int
	frames []vidsim.Frame
}

// tenant is one stream's routing state. slot == -1 while detached
// (idle-evicted); nextSeq persists across evictions so the stream's
// exactly-once contract survives reattachment. resumed marks a tenant
// restored from a checkpoint that has queued no frame since.
type tenant struct {
	id      string
	slot    int
	nextSeq uint64
	resumed bool
	// queue fills while Pump feeds the frames it swapped out; spare is
	// the emptied buffer of the drain before, which the next drain swaps
	// back in, so a warm tenant's queue never re-grows.
	queue, spare []vidsim.Frame
	lastSeen     time.Time
	tracer       *telemetry.Tracer

	accepted, processed int64
	dups                int64
	nackFull, nackSeq   int64
}

// NewRouter builds a router over a fleet. The fleet should be a
// dynamic one (videodrift.NewDynamicSharded); attaching tenants to a
// fixed fleet works but competes with its preallocated slots. A slot
// the fleet holds under a tenant's name — a fleet resumed from a
// checkpoint — stays that tenant's: its stream continues at the
// position the slot recorded, with the shard's tracer.
func NewRouter(sm *videodrift.ShardedMonitor, cfg Config) *Router {
	if cfg.MaxTenants <= 0 {
		cfg.MaxTenants = DefaultMaxTenants
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = DefaultQueueCap
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = DefaultBatchSize
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = DefaultRetryAfter
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	evict := time.NewTimer(0)
	evict.Stop() // armed by pump, and only while a tenant's idle window runs
	r := &Router{
		sm:      sm,
		cfg:     cfg,
		tenants: make(map[string]*tenant),
		wake:    make(chan struct{}, 1),
		evict:   evict,
	}
	for slot := range sm.Shards() {
		if id, next := sm.Tenant(slot); id != "" {
			r.insert(&tenant{id: id, slot: slot, nextSeq: next, resumed: true,
				tracer: sm.Shard(slot).Telemetry(), lastSeen: cfg.Now()})
		}
	}
	return r
}

// insert adds a tenant to the table and to order. Callers hold r.mu, or
// own the router alone.
func (r *Router) insert(t *tenant) {
	r.tenants[t.id] = t
	at, _ := slices.BinarySearchFunc(r.order, t.id, func(o *tenant, id string) int { return cmp.Compare(o.id, id) })
	r.order = slices.Insert(r.order, at, t)
}

// Verdict is the router's decision on one submitted frame — what the
// server turns into an Ack or Nack on the wire.
type Verdict struct {
	// Ack reports the frame was queued (or, with Dup, already
	// processed — the idempotent accept for a resend after a lost ack).
	Ack bool
	Dup bool
	// Code, RetryAfter and Reason describe the rejection when !Ack.
	Code       uint8
	RetryAfter time.Duration
	Reason     string
}

// queued reports whether the verdict put a frame on a tenant's queue (a
// duplicate is acknowledged, not queued).
func (v Verdict) queued() bool { return v.Ack && !v.Dup }

// Submit routes one decoded frame and, when it was queued, leaves the
// wake-up token for Run — it never feeds the fleet itself. First contact
// with an unknown tenant attaches a shard over the shared models (the
// dynamic-fleet lifecycle); a returning evicted tenant reattaches. Safe
// for concurrent use by connection handlers. The pixels widen into a
// buffer of the router's own; m is not retained.
func (r *Router) Submit(m FrameMsg) Verdict {
	v := r.admit(m.Tenant, frameOver(r.free.get(len(m.Pixels)), m))
	if v.queued() {
		r.signal()
	}
	return v
}

// admit is enqueue for a frame whose pixels the free list lent: a frame
// that was not queued gives its buffer straight back.
func (r *Router) admit(tenant string, f vidsim.Frame) Verdict {
	v, _ := r.enqueue(tenant, f, false)
	if !v.queued() {
		r.free.put(f.Pixels)
	}
	return v
}

// Offer admits a frame of an in-process tenant, one fed from inside the
// server with no socket: f.Index is its sequence number, and its pixels
// are copied, unquantised, into a buffer of the router's own, so the
// caller keeps f. Like a windowed connection's frame it is not rejected
// for a full queue — Offer waits for room, or for done to close. What it
// queued waits for the caller's Feed.
func (r *Router) Offer(tenant string, f vidsim.Frame, done <-chan struct{}) Verdict {
	px := r.free.get(len(f.Pixels))
	copy(px, f.Pixels)
	f.Pixels = px
	return r.admitWindowed(tenant, f, done)
}

// admitWindowed is admit for a windowed connection's frame, which a full
// queue does not reject: nothing answers a windowed frame unless it is
// rejected, so a NACK among the last frames of a stream would never be
// resent. Instead the connection stops reading until the tenant's queue
// has room — TCP carries the backpressure to the client, whose next ask
// waits — or until done closes (the server is closing: the frame is
// rejected as an internal fault, which a client resends elsewhere).
// Before it waits it feeds, since the frames filling the queue may be
// this connection's own, read and not yet fed.
func (r *Router) admitWindowed(tenant string, f vidsim.Frame, done <-chan struct{}) Verdict {
	for {
		v, room := r.enqueue(tenant, f, true)
		if room == nil {
			if !v.queued() {
				r.free.put(f.Pixels)
			}
			return v
		}
		r.Feed()
		select {
		case <-room:
		case <-done:
			r.free.put(f.Pixels)
			return Verdict{Code: NackInternal, Reason: "server closing"}
		}
	}
}

// Position is where an in-process tenant's stream resumes: the sequence
// number the router expects from it next, 0 for a tenant it does not
// know.
func (r *Router) Position(tenant string) uint64 { return r.position([]byte(tenant), 0) }

// position is the answer to a Sync: the tenant's next expected sequence
// number — or, for a tenant the router does not know, 0, or with
// ResumeStreams seq, the client's own, since its first frame will define
// the position. A restored tenant's client may be ahead of the
// checkpoint; its own position is then the answer, as enqueue will adopt
// it. It attaches nothing and moves no counter.
func (r *Router) position(tenant []byte, seq uint64) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t := r.tenants[string(tenant)]; t != nil {
		if t.resumed {
			return max(t.nextSeq, seq)
		}
		return t.nextSeq
	}
	if r.cfg.ResumeStreams {
		return seq
	}
	return 0
}

// signal leaves the wake-up token.
func (r *Router) signal() {
	select {
	case r.wake <- struct{}{}:
	default: // a token is already waiting; that Pump will take this frame too
	}
}

// Feed is what a connection does for the frames it has just queued and
// acknowledged, and an in-process tenant for the frames it offered: when
// the pump is free and a Run loop owns draining, it pumps right here, on
// the goroutine that queued the frame — no hand-off, no wake-up. Otherwise — another connection is feeding, a training holds
// the pump, or nobody runs a loop — it leaves the token, and the frame
// waits in its queue for Run (or a bare Pump) as it always did. Either
// way the wake-up invariant holds: a queued frame implies a token in the
// channel, a Pump that has not yet taken its queues, or a connection
// between its enqueue and its feed.
func (r *Router) Feed() {
	if !r.feedInPlace() {
		r.signal()
	}
}

func (r *Router) feedInPlace() bool {
	if !r.procMu.TryLock() {
		return false
	}
	defer r.procMu.Unlock()
	if r.loop == nil {
		return false
	}
	r.loop(r.pump(true))
	return true
}

// enqueue is the admission half of Submit: tenant lookup and attach,
// the sequence contract, the queue bound. f.Index carries the wire
// sequence number. A queued frame must then be fed or signalled by the
// caller. With wait a full queue is not a rejection: the frame is left
// out and enqueue returns the channel the next Pump to take the queues
// closes (nil otherwise).
func (r *Router) enqueue(id string, f vidsim.Frame, wait bool) (Verdict, <-chan struct{}) {
	seq := uint64(f.Index)
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.tenants[id]
	if t == nil || t.slot < 0 {
		if r.activeLocked() >= r.cfg.MaxTenants {
			r.nackLimit++
			return Verdict{
				Code:       NackTenantLimit,
				RetryAfter: r.cfg.RetryAfter,
				Reason:     fmt.Sprintf("fleet at max tenants (%d)", r.cfg.MaxTenants),
			}, nil
		}
		if t == nil {
			t = &tenant{id: id, slot: -1}
			if r.cfg.ResumeStreams {
				// A failed-over client arrives mid-stream; its first frame's
				// sequence number becomes this tenant's stream position.
				t.nextSeq = seq
			}
			if r.cfg.NewTracer != nil {
				t.tracer = r.cfg.NewTracer(id)
			}
			r.insert(t)
		}
		slot, err := r.sm.AttachTenant(id, t.nextSeq, t.tracer)
		if err != nil {
			return Verdict{Code: NackInternal, Reason: err.Error()}, nil
		}
		t.slot = slot
		r.attaches++
	}
	t.lastSeen = r.cfg.Now()
	if t.resumed && seq > t.nextSeq {
		// The client is ahead of the checkpoint the tenant was restored
		// from: the frames between were confirmed by a process that died
		// before its next capture, and no resend brings them back. Its
		// first frame moves the position, as a new tenant's does under
		// ResumeStreams.
		t.nextSeq = seq
	}
	switch {
	case seq < t.nextSeq:
		// A resend of a frame we already accepted (its ack was lost):
		// acknowledge idempotently so the sender advances.
		t.dups++
		r.dups++
		return Verdict{Ack: true, Dup: true}, nil
	case seq > t.nextSeq:
		t.nackSeq++
		r.nackSeq++
		return Verdict{
			Code:   NackBadSeq,
			Reason: fmt.Sprintf("want seq %d, got %d", t.nextSeq, seq),
		}, nil
	}
	if len(t.queue) >= r.cfg.QueueCap {
		if wait {
			if r.room == nil {
				r.room = make(chan struct{})
			}
			return Verdict{}, r.room
		}
		t.nackFull++
		r.nackFull++
		return Verdict{
			Code:       NackQueueFull,
			RetryAfter: r.cfg.RetryAfter,
			Reason:     fmt.Sprintf("tenant queue full (%d)", r.cfg.QueueCap),
		}, nil
	}
	t.queue = append(t.queue, f)
	t.nextSeq++
	t.resumed = false
	t.accepted++
	r.accepted++
	return Verdict{Ack: true}, nil
}

// activeLocked counts attached tenants. Callers hold r.mu.
func (r *Router) activeLocked() int {
	n := 0
	for _, t := range r.order {
		if t.slot >= 0 {
			n++
		}
	}
	return n
}

// CountMalformed records a frame the server rejected before it reached
// the router (decode failure), so drop accounting stays complete.
func (r *Router) CountMalformed() {
	r.mu.Lock()
	r.nackMalformed++
	r.mu.Unlock()
}

// Run is the pump loop a server runs on one goroutine — since
// connections feed in place, the drainer of last resort: it sleeps until
// a frame was queued that nobody fed (the pump was busy), or — only with
// IdleEvict set — until the next attached tenant is due for eviction,
// calls Pump, hands pumped what Pump returned, and returns when stop
// closes. pumped (not nil) also accounts for the pumps connections run
// while the loop does, from their own goroutines. Every pump is accounted
// before the next begins — pumped is called holding the pump, so it must
// not pump itself — and none once Run has returned, which waits for a
// feed in flight. Nothing is timed: a frame that arrives alone is fed
// alone, frames that arrive while a Pump is busy (a training, a burst)
// are fed together by the next one, BatchSize at a time, and a fleet with
// no traffic and no tenant to evict makes no Pump call at all.
func (r *Router) Run(stop <-chan struct{}, pumped func(n int, err error)) {
	r.procMu.Lock()
	r.loop = pumped
	r.procMu.Unlock()
	defer func() {
		r.procMu.Lock() // waits out a connection's feed in flight
		r.loop = nil
		r.procMu.Unlock()
	}()
	for {
		select {
		case <-stop:
			return
		case <-r.wake:
		case <-r.evict.C:
		}
		r.procMu.Lock()
		pumped(r.pump(false))
		r.procMu.Unlock()
	}
}

// Pump drains every tenant queue through the fleet in tenant-id order
// (deterministic for any map layout), cut into micro-batches of at most
// BatchSize frames a tenant, and detaches idle tenants. It is what Run
// and feeding connections call, and safe beside them; it returns the
// number of frames processed this call.
func (r *Router) Pump() (int, error) {
	r.procMu.Lock()
	defer r.procMu.Unlock()
	return r.pump(false)
}

// pump is Pump under procMu; inline marks a connection's feed. With
// IdleEvict it leaves the eviction timer set for the first still-attached
// tenant's idle window to run out (stopped when there is none), which is
// all that Run need wake for without traffic — whoever pumped.
func (r *Router) pump(inline bool) (total int, err error) {
	// Move queued frames out under mu, then feed without holding it so
	// Submit never blocks on the fleet.
	r.mu.Lock()
	work := r.work[:0]
	for _, t := range r.order {
		if len(t.queue) == 0 || t.slot < 0 {
			continue
		}
		work = append(work, drained{t: t, slot: t.slot, frames: t.queue})
		t.queue, t.spare = t.spare, nil
	}
	r.work = work[:0]
	if r.room != nil {
		close(r.room) // every queue has room now
		r.room = nil
	}
	r.mu.Unlock()

	// Round k gives every drained slot its frames [k·BatchSize,
	// (k+1)·BatchSize): each shard's batches are cut where they would be
	// were it fed alone, so only which shards share a fleet call depends
	// on who else had frames.
	slots := 0
	for _, w := range work {
		slots = max(slots, w.slot+1)
	}
	r.batches = slices.Grow(r.batches[:0], slots)[:slots]
	for at := 0; ; at += r.cfg.BatchSize {
		fed := 0
		for _, w := range work {
			if at < len(w.frames) {
				r.batches[w.slot] = w.frames[at:min(at+r.cfg.BatchSize, len(w.frames))]
				fed += len(r.batches[w.slot])
			}
		}
		if fed == 0 {
			break
		}
		r.events, err = r.sm.ProcessBatchesInto(r.batches, r.events)
		clear(r.batches) // the frames go back to the free list: pin none
		if err != nil {
			return total, err
		}
		total += fed
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	r.pumps++
	if inline {
		r.pumpsInline++
	}
	r.processed += int64(total)
	for _, w := range work {
		w.t.processed += int64(len(w.frames))
		// The fleet is done with the frames: what it keeps it copied, so
		// their buffers go back to the free list, and the queue that held
		// them pins nothing.
		for _, f := range w.frames {
			r.free.put(f.Pixels)
		}
		clear(w.frames)
		w.t.spare = w.frames[:0]
	}
	if r.cfg.IdleEvict <= 0 {
		return total, nil
	}
	var evictDue time.Time
	now := r.cfg.Now()
	for _, t := range r.order {
		if t.slot < 0 {
			continue
		}
		due := t.lastSeen.Add(r.cfg.IdleEvict)
		if len(t.queue) == 0 && !now.Before(due) {
			if err := r.sm.Detach(t.slot); err == nil {
				t.slot = -1
				r.evictions++
			}
		} else if now.Before(due) && (evictDue.IsZero() || due.Before(evictDue)) {
			evictDue = due
		}
	}
	if evictDue.IsZero() {
		r.evict.Stop()
	} else {
		r.evict.Reset(evictDue.Sub(now))
	}
	return total, nil
}

// TenantStats is one tenant's ingestion counters.
type TenantStats struct {
	Tenant string `json:"tenant"`
	// Slot is the tenant's shard slot, -1 while idle-evicted.
	Slot int `json:"slot"`
	// Queued is the current queue depth; QueueCap its bound.
	Queued   int `json:"queued"`
	QueueCap int `json:"queue_cap"`
	// Accepted counts frames queued; Processed frames that reached the
	// fleet; Dups idempotent re-acks; NackedFull backpressure
	// rejections; NackedSeq sequence-gap rejections.
	Accepted   int64 `json:"accepted"`
	Processed  int64 `json:"processed"`
	Dups       int64 `json:"dups"`
	NackedFull int64 `json:"nacked_full"`
	NackedSeq  int64 `json:"nacked_seq"`
}

// Stats is the router's aggregate view, for /healthz and /metrics.
type Stats struct {
	// Known is every tenant ever seen; Active the currently attached.
	Known  int `json:"known_tenants"`
	Active int `json:"active_tenants"`
	// Aggregate counters across tenants.
	Accepted        int64 `json:"accepted"`
	Processed       int64 `json:"processed"`
	Dups            int64 `json:"dups"`
	NackedFull      int64 `json:"nacked_full"`
	NackedSeq       int64 `json:"nacked_seq"`
	NackedLimit     int64 `json:"nacked_limit"`
	NackedMalformed int64 `json:"nacked_malformed"`
	Attaches        int64 `json:"attaches"`
	Evictions       int64 `json:"evictions"`
	// Pumps counts completed Pump calls and PumpedFrames the frames they
	// fed the fleet (it is Processed under the name the pair is read by):
	// their ratio is the mean frames per wake-up — 1 on an idle wire, up
	// to the queue depth behind a training.
	Pumps        int64 `json:"pumps"`
	PumpedFrames int64 `json:"pumped_frames"`
	// PumpsInline counts the Pumps a connection ran in place for the frame
	// it had just read; the rest are Run's (and bare Pump calls). Its share
	// of Pumps is the share of arrivals that paid no goroutine hand-off.
	PumpsInline int64 `json:"pumps_inline"`
	// Tenants holds the per-tenant detail, sorted by tenant id.
	Tenants []TenantStats `json:"tenants"`
}

// Stats snapshots the router's counters.
func (r *Router) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Stats{
		Known:           len(r.tenants),
		Active:          r.activeLocked(),
		Accepted:        r.accepted,
		Processed:       r.processed,
		Dups:            r.dups,
		NackedFull:      r.nackFull,
		NackedSeq:       r.nackSeq,
		NackedLimit:     r.nackLimit,
		NackedMalformed: r.nackMalformed,
		Attaches:        r.attaches,
		Evictions:       r.evictions,
		Pumps:           r.pumps,
		PumpedFrames:    r.processed,
		PumpsInline:     r.pumpsInline,
		Tenants:         make([]TenantStats, 0, len(r.order)),
	}
	for _, t := range r.order {
		s.Tenants = append(s.Tenants, TenantStats{
			Tenant:     t.id,
			Slot:       t.slot,
			Queued:     len(t.queue),
			QueueCap:   r.cfg.QueueCap,
			Accepted:   t.accepted,
			Processed:  t.processed,
			Dups:       t.dups,
			NackedFull: t.nackFull,
			NackedSeq:  t.nackSeq,
		})
	}
	return s
}

// Tracer returns the tenant's telemetry tracer (nil when unknown or
// when the router shares the fleet's base tracer).
func (r *Router) Tracer(tenant string) *telemetry.Tracer {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t := r.tenants[tenant]; t != nil {
		return t.tracer
	}
	return nil
}

// WritePrometheus emits the router's counters in Prometheus
// text-exposition format, prefixed ingest_.
func (r *Router) WritePrometheus(w io.Writer) error {
	s := r.Stats()
	var err error
	p := func(format string, args ...interface{}) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	p("# TYPE ingest_tenants_known gauge\ningest_tenants_known %d\n", s.Known)
	p("# TYPE ingest_tenants_active gauge\ningest_tenants_active %d\n", s.Active)
	p("# TYPE ingest_frames_accepted_total counter\ningest_frames_accepted_total %d\n", s.Accepted)
	p("# TYPE ingest_frames_processed_total counter\ningest_frames_processed_total %d\n", s.Processed)
	p("# TYPE ingest_frames_dup_total counter\ningest_frames_dup_total %d\n", s.Dups)
	p("# TYPE ingest_nack_total counter\n")
	p("ingest_nack_total{code=\"queue_full\"} %d\n", s.NackedFull)
	p("ingest_nack_total{code=\"bad_seq\"} %d\n", s.NackedSeq)
	p("ingest_nack_total{code=\"tenant_limit\"} %d\n", s.NackedLimit)
	p("ingest_nack_total{code=\"malformed\"} %d\n", s.NackedMalformed)
	p("# TYPE ingest_tenant_attach_total counter\ningest_tenant_attach_total %d\n", s.Attaches)
	p("# TYPE ingest_tenant_evict_total counter\ningest_tenant_evict_total %d\n", s.Evictions)
	p("# TYPE ingest_pump_runs_total counter\n")
	p("ingest_pump_runs_total{by=\"conn\"} %d\n", s.PumpsInline)
	p("ingest_pump_runs_total{by=\"loop\"} %d\n", s.Pumps-s.PumpsInline)
	p("# TYPE ingest_pump_frames_total counter\ningest_pump_frames_total %d\n", s.PumpedFrames)
	p("# TYPE ingest_tenant_queue_depth gauge\n")
	for _, t := range s.Tenants {
		p("ingest_tenant_queue_depth{tenant=%q} %d\n", t.Tenant, t.Queued)
	}
	return err
}
