package ingest

import (
	"cmp"
	"fmt"
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
)

// Config parameterizes a Router.
type Config struct {
	// MaxTenants bounds concurrently attached tenants (<= 0 means
	// DefaultMaxTenants). A frame from an unknown tenant beyond the
	// limit is NACKed with NackTenantLimit — never queued unboundedly.
	MaxTenants int
	// QueueCap bounds each tenant's frame queue (<= 0 means
	// DefaultQueueCap). A frame arriving at a full queue waits for the
	// next Pump to make room, holding its sender back: no silent drop,
	// no unbounded buffering.
	QueueCap int
	// BatchSize is the per-shard micro-batch size Pump feeds the fleet
	// with (<= 0 means DefaultBatchSize).
	BatchSize int
	// IdleEvict detaches a tenant whose queue has been empty and whose
	// last frame is older than this (0 disables eviction). An evicted
	// tenant's sequence position is retained, so a returning tenant
	// resumes its stream on a fresh shard without seq disruption.
	IdleEvict time.Duration
	// Now is the router's clock, used only for idle-eviction
	// bookkeeping — never for admission or drift decisions, which keeps
	// replay deterministic. Nil means time.Now.
	Now func() time.Time
	// NewTracer optionally builds a per-tenant telemetry tracer,
	// attached to the tenant's shard for its lifetime (re-used across
	// evict/reattach so the tenant's history survives). Nil shares the
	// fleet's base tracer.
	NewTracer func(tenant string) *telemetry.Tracer
	// ResumeStreams makes a brand-new tenant's first contact define its
	// stream position instead of requiring seq 0 — the promoted-standby
	// and warm-restart case, where clients arrive mid-stream at a server
	// that has not seen them. First contact is a client's opening Sync,
	// which attaches the tenant as a frame would. Only tenant creation
	// adopts the sequence; a returning evicted tenant still resumes its
	// retained position, so the exactly-once contract within one
	// server's lifetime holds.
	ResumeStreams bool
}

// Router owns the tenant↔shard mapping over a dynamic ShardedMonitor:
// per-tenant bounded queues, drained by Pump straight into the fleet in
// BatchSize micro-batches. Submit, Pump and a Server's connections are
// safe to use concurrently: admission is serialized by one lock, pumping
// — by a connection feeding the frame it has just read, by the eviction
// timer, by a bare Pump — by another.
//
// The backpressure contract: a submitted frame is either queued (and
// eventually processed, exactly once, in sequence order) or rejected
// with a typed verdict the sender sees; a frame that finds its queue
// full waits for room. Nothing in the router drops a frame silently,
// and no queue grows without bound.
type Router struct {
	sm  *videodrift.ShardedMonitor
	cfg Config

	// mu guards the tenant table and queues (Submit side). order holds
	// the same tenants sorted by id — the order Pump feeds and Stats
	// reports them in, kept at insert so neither sorts.
	mu      sync.Mutex
	tenants map[string]*tenant
	order   []*tenant
	// stopped is set by StopAdmission: no frame is queued after it, and
	// nobody feeds in place.
	stopped atomic.Bool

	// feeding is held by the one caller of feed that pumps (under mu);
	// pending is set by every feed and cleared by the pump that takes the
	// queues after it, so a feed that finds feeding held leaves its frames
	// to the holder's re-check (drain). lost is a pump error the eviction
	// timer met, for the next feed or Pump to return.
	feeding, pending bool
	lost             error
	// room, while a frame waits on a full queue, is closed by the next
	// Pump to take the queues (under mu; nil otherwise).
	room chan struct{}
	// evict feeds the fleet when the first attached tenant's idle window
	// runs out, or at once when a holder left pending work behind (under
	// mu).
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

	// Aggregate counters (under mu).
	accepted, processed      int64
	dups, nackSeq            int64
	nackLimit, nackMalformed int64
	evictions, attaches      int64
	pumps                    int64
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
// restored from a checkpoint that has queued no frame, answered no Sync.
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
	dups, nackSeq       int64
}

// NewRouter builds a router over a dynamic fleet
// (videodrift.NewDynamicSharded). A slot the fleet holds under a
// tenant's name — a fleet resumed from a checkpoint — stays that
// tenant's: its stream continues at the position the slot recorded,
// with the shard's tracer.
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
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	r := &Router{sm: sm, cfg: cfg, tenants: make(map[string]*tenant)}
	// Armed by pump while a tenant's idle window runs, and by drain. It
	// drains with no bound — no connection waits on it — and keeps a pump
	// error for the next feed or Pump to return, since nobody called it.
	r.evict = time.AfterFunc(time.Hour, func() {
		if err := r.drain(-1); err != nil {
			r.mu.Lock()
			r.lost = cmp.Or(r.lost, err)
			r.mu.Unlock()
		}
	})
	r.evict.Stop()
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
// server turns into a Nack on the wire.
type Verdict struct {
	// Ack reports the frame was queued (or, with Dup, already
	// processed — the idempotent accept for a resend after a lost answer).
	Ack bool
	Dup bool
	// Code and Reason describe the rejection when !Ack.
	Code   uint8
	Reason string
}

// queued reports whether the verdict put a frame on a tenant's queue (a
// duplicate is acknowledged, not queued).
func (v Verdict) queued() bool { return v.Ack && !v.Dup }

// Submit routes one decoded frame through admit and only queues it: the
// caller feeds the fleet with Pump. First contact with an unknown tenant
// attaches a shard over the shared models (the dynamic-fleet lifecycle);
// a returning evicted tenant reattaches. A full queue holds the caller
// until a Pump on another goroutine makes room, or until StopAdmission
// rejects the frame. Safe for concurrent use. The pixels widen into a
// buffer of the router's own, which a frame that was not queued gives
// straight back; m is not retained.
func (r *Router) Submit(m FrameMsg) Verdict {
	return r.admit(m.Tenant, frameOver(r.free.get(len(m.Pixels)), m), nil, nil)
}

// admit queues a frame whose pixels the free list lent, giving them
// back when it is not queued. A full queue does not reject it: nothing
// answers a frame on a connection unless it is rejected, so a NACK
// among the last frames of a stream would never be resent. Instead the
// caller waits until the tenant's queue has room — a connection stops
// reading, and TCP carries the backpressure to the client, whose next
// ask waits — or until StopAdmission or done (nil never closes; a
// Server's Close) rejects the frame as an internal fault, which a
// client resends elsewhere. Before it waits it calls feed (a
// connection's; nil for Submit), since the frames filling the queue may
// be the caller's own, read and not yet fed.
func (r *Router) admit(tenant string, f vidsim.Frame, done <-chan struct{}, feed func()) Verdict {
	for {
		v, room := r.enqueue(tenant, f)
		if room == nil {
			if !v.queued() {
				r.free.put(f.Pixels)
			}
			return v
		}
		if feed != nil {
			feed()
		}
		select {
		case <-room:
		case <-done:
			r.free.put(f.Pixels)
			return Verdict{Code: NackInternal, Reason: "server closing"}
		}
	}
}

// Position is the sequence number the router expects next from a
// tenant's client — for a tenant restored from a checkpoint, until its
// client first syncs or sends, the position the checkpoint held — and 0
// for a tenant it does not know.
func (r *Router) Position(tenant string) uint64 {
	next, _ := r.position([]byte(tenant), 0, false)
	return next
}

// position is the answer to a Sync: the tenant's next expected sequence
// number, or 0 for a tenant the router does not know. A Sync sets the
// position where the client is ahead of what the router holds — a frame
// after a lost one is then a gap, not the stream's new start: from a
// restored tenant's client, which may be ahead of the checkpoint, and
// under ResumeStreams from the client of a tenant the router does not
// know, which it attaches at seq as that client's first frame would have
// (the tenant limit holds it as it holds a frame; at the limit, or once
// admission stopped, the answer is seq and nothing is attached; attached
// reports the attach, after which the caller feeds: the pump arms the
// tenant's idle eviction). Otherwise a Sync attaches nothing and moves no
// counter.
func (r *Router) position(tenant []byte, seq uint64, sync bool) (next uint64, attached bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.tenants[string(tenant)]
	if t == nil && sync && r.cfg.ResumeStreams {
		if r.stopped.Load() {
			return seq, false
		}
		if t, _ = r.attachLocked(string(tenant), seq); t == nil {
			return seq, false
		}
		t.lastSeen = r.cfg.Now()
		attached = true
	}
	if t == nil {
		return 0, false
	}
	if t.resumed && sync {
		t.nextSeq, t.resumed = max(t.nextSeq, seq), false
	}
	return t.nextSeq, attached
}

// StopAdmission closes the router to frames: once it returns, no frame
// joins a queue — each is rejected as an internal fault, which a client
// resends elsewhere — a frame waiting for room in a queue gives up, and
// neither a connection nor the eviction timer feeds the fleet any more.
// What is queued stays for the next Pump, which drains it; a server
// shutting down calls it before its last one.
func (r *Router) StopAdmission() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stopped.Store(true)
	r.evict.Stop()
	if r.room != nil {
		close(r.room)
		r.room = nil
	}
}

// feed is what whoever queued a frame does for it — a connection for the
// frames it has just queued and acknowledged, or while it waits for room:
// drain with at most one pump past its own. It returns the first error of
// the pumps it ran, or one the eviction timer left.
func (r *Router) feed() error { return r.drain(1) }

// drain sets pending and, when no one else is feeding, pumps right here,
// on the calling goroutine, with no hand-off and no wake-up. When someone
// is — another connection, a training, the timer — it returns at once:
// the holder re-checks pending under mu after each pump and pumps again,
// up to repumps times (negative: until nothing is pending). What is
// pending after that, it leaves to the eviction timer, armed to fire at
// once, so a connection that holds the pump under other tenants' load
// gets back to its socket after at most 1+repumps pumps. So the wake-up
// invariant holds: a queued frame implies a caller between its enqueue
// and its feed (a Submit's caller owes a Pump), or pending set under mu
// with a holder yet to re-check it or the timer due, or admission stopped,
// which leaves it to the final Pump. Once admission has stopped drain
// pumps nothing.
func (r *Router) drain(repumps int) (err error) {
	r.mu.Lock()
	r.pending = true
	if r.feeding || r.stopped.Load() {
		err, r.lost = r.lost, nil
		r.mu.Unlock()
		return err
	}
	r.feeding = true
	for ; ; repumps-- {
		r.mu.Unlock()
		r.procMu.Lock()
		_, perr := r.pump()
		r.procMu.Unlock()
		r.mu.Lock()
		err = cmp.Or(err, perr)
		if !r.pending || r.stopped.Load() || repumps == 0 {
			break
		}
	}
	r.feeding = false
	if r.pending && !r.stopped.Load() {
		r.evict.Reset(0)
	}
	err, r.lost = cmp.Or(err, r.lost), nil
	r.mu.Unlock()
	return err
}

// enqueue is one try of admit: tenant lookup and attach, the sequence
// contract, the queue bound. f.Index carries the wire sequence number.
// It has three outcomes: the frame is queued (and must then be fed by
// the caller), answered without queueing (a duplicate's
// Ack, or a rejection), or — its queue full — left out, and enqueue
// returns the channel the next Pump to take the queues closes (nil
// otherwise).
func (r *Router) enqueue(id string, f vidsim.Frame) (Verdict, <-chan struct{}) {
	seq := uint64(f.Index)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped.Load() {
		return Verdict{Code: NackInternal, Reason: "server closing"}, nil
	}
	t, v := r.attachLocked(id, seq)
	if t == nil {
		if v.Code == NackTenantLimit {
			r.nackLimit++
		}
		return v, nil
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
		if r.room == nil {
			r.room = make(chan struct{})
		}
		return Verdict{}, r.room
	}
	t.queue = append(t.queue, f)
	t.nextSeq++
	t.resumed = false
	t.accepted++
	r.accepted++
	return Verdict{Ack: true}, nil
}

// attachLocked returns tenant id attached to a shard — first contact
// with an unknown tenant creates it, at seq under ResumeStreams (a
// failed-over client arrives mid-stream) and at 0 otherwise, and a
// returning evicted tenant reattaches at its retained position — or nil
// and the rejection: the fleet is at MaxTenants, or the attach failed.
// Callers hold r.mu.
func (r *Router) attachLocked(id string, seq uint64) (*tenant, Verdict) {
	t := r.tenants[id]
	if t != nil && t.slot >= 0 {
		return t, Verdict{}
	}
	if r.activeLocked() >= r.cfg.MaxTenants {
		return nil, Verdict{
			Code:   NackTenantLimit,
			Reason: fmt.Sprintf("fleet at max tenants (%d)", r.cfg.MaxTenants),
		}
	}
	if t == nil {
		t = &tenant{id: id, slot: -1}
		if r.cfg.ResumeStreams {
			t.nextSeq = seq
		}
		if r.cfg.NewTracer != nil {
			t.tracer = r.cfg.NewTracer(id)
		}
		r.insert(t)
	}
	slot, err := r.sm.AttachTenant(id, t.nextSeq, t.tracer)
	if err != nil {
		return nil, Verdict{Code: NackInternal, Reason: err.Error()}
	}
	t.slot = slot
	r.attaches++
	return t, Verdict{}
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

// Pump drains every tenant queue through the fleet in tenant-id order
// (deterministic for any map layout), cut into micro-batches of at most
// BatchSize frames a tenant, and detaches idle tenants. It waits for a
// pump in flight; safe beside feeding connections, which feed what queues
// behind it themselves. It returns the number of frames it processed,
// and the first error — its own, or one the eviction timer left.
func (r *Router) Pump() (int, error) {
	r.procMu.Lock()
	n, err := r.pump()
	r.procMu.Unlock()
	r.mu.Lock()
	err, r.lost = cmp.Or(err, r.lost), nil
	r.mu.Unlock()
	return n, err
}

// pump is Pump under procMu. It clears pending as it takes the queues,
// under mu: a frame queued before a feed set it is in them. With
// IdleEvict it leaves the eviction timer set for the first
// still-attached tenant's idle window to run out — stopped when there is
// none, or once admission has stopped — but never moves it off a hand-off
// (drain) still due.
func (r *Router) pump() (total int, err error) {
	// Move queued frames out under mu, then feed without holding it so
	// Submit never blocks on the fleet.
	r.mu.Lock()
	r.pending = false
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
	switch {
	case r.stopped.Load():
		r.evict.Stop()
	case r.pending && !r.feeding:
		// A holder let go with frames pending, which queued after this
		// pump took the queues, and left the timer due at once.
	case evictDue.IsZero():
		r.evict.Stop()
	default:
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
	// fleet; Dups idempotent re-acks; NackedSeq sequence-gap
	// rejections.
	Accepted  int64 `json:"accepted"`
	Processed int64 `json:"processed"`
	Dups      int64 `json:"dups"`
	NackedSeq int64 `json:"nacked_seq"`
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
	NackedSeq       int64 `json:"nacked_seq"`
	NackedLimit     int64 `json:"nacked_limit"`
	NackedMalformed int64 `json:"nacked_malformed"`
	Attaches        int64 `json:"attaches"`
	Evictions       int64 `json:"evictions"`
	// Pumps counts completed pumps, whoever ran them: Processed / Pumps is
	// the mean frames per pump — 1 on an idle wire, up to the queue depth
	// behind a training.
	Pumps int64 `json:"pumps"`
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
		NackedSeq:       r.nackSeq,
		NackedLimit:     r.nackLimit,
		NackedMalformed: r.nackMalformed,
		Attaches:        r.attaches,
		Evictions:       r.evictions,
		Pumps:           r.pumps,
		Tenants:         make([]TenantStats, 0, len(r.order)),
	}
	for _, t := range r.order {
		s.Tenants = append(s.Tenants, TenantStats{
			Tenant:    t.id,
			Slot:      t.slot,
			Queued:    len(t.queue),
			QueueCap:  r.cfg.QueueCap,
			Accepted:  t.accepted,
			Processed: t.processed,
			Dups:      t.dups,
			NackedSeq: t.nackSeq,
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

// Families is the router's counters as metric families, prefixed
// ingest_, for the server's exposition.
func (s Stats) Families() []telemetry.Family {
	depth := make([]telemetry.Sample, len(s.Tenants))
	for i, t := range s.Tenants {
		depth[i] = telemetry.Int(t.Queued, "tenant", t.Tenant)
	}
	return []telemetry.Family{
		telemetry.Gauge("ingest_tenants_known", "", telemetry.Int(s.Known)),
		telemetry.Gauge("ingest_tenants_active", "", telemetry.Int(s.Active)),
		telemetry.Counter("ingest_frames_accepted_total", "", telemetry.Int(s.Accepted)),
		telemetry.Counter("ingest_frames_processed_total", "", telemetry.Int(s.Processed)),
		telemetry.Counter("ingest_frames_dup_total", "", telemetry.Int(s.Dups)),
		telemetry.Counter("ingest_nack_total", "",
			telemetry.Int(s.NackedSeq, "code", "bad_seq"),
			telemetry.Int(s.NackedLimit, "code", "tenant_limit"),
			telemetry.Int(s.NackedMalformed, "code", "malformed")),
		telemetry.Counter("ingest_tenant_attach_total", "", telemetry.Int(s.Attaches)),
		telemetry.Counter("ingest_tenant_evict_total", "", telemetry.Int(s.Evictions)),
		telemetry.Counter("ingest_pump_runs_total", "", telemetry.Int(s.Pumps)),
		telemetry.Gauge("ingest_tenant_queue_depth", "", depth...),
	}
}
