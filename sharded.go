package videodrift

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"videodrift/internal/core"
	"videodrift/internal/faults"
	"videodrift/internal/forensics"
	"videodrift/internal/parallel"
)

// DefaultMaxRestarts is the crash-loop budget: how many consecutive
// panic-restarts the supervisor grants one shard on a single frame
// before its circuit breaker trips and the shard is declared failed.
const DefaultMaxRestarts = 3

// DetachedSlotError reports frames addressed to a shard slot that is
// currently detached (no tenant owns it).
type DetachedSlotError struct{ Slot int }

func (e *DetachedSlotError) Error() string {
	return fmt.Sprintf("videodrift: frames addressed to detached shard slot %d", e.Slot)
}

// ShardedOptions configures a ShardedMonitor: the per-shard monitor
// options plus the fan-out shape and the supervisor's fault policy.
type ShardedOptions struct {
	Options
	// Shards is the number of independent streams (camera feeds) driven
	// over the shared model registry. Must be >= 1.
	Shards int
	// Workers bounds the goroutines ProcessBatches fans out on (<= 0 uses
	// GOMAXPROCS). Shard decisions are independent of the worker count:
	// each shard owns its pipeline, RNG stream and martingale state.
	Workers int
	// Tracers optionally attaches one telemetry tracer per shard
	// (len(Tracers) must be >= Shards when set), so per-stream drift
	// events and stage latencies stay separable. When nil (or for a shard
	// whose element is nil), the embedded Options.Tracer — which is safe
	// for concurrent use — is shared, or tracing is off if that is nil too.
	Tracers []*Tracer
	// Faults optionally attaches a deterministic fault injector (chaos
	// testing): its worker faults fire before each shard's Process call
	// and its per-shard training hooks are wired into every pipeline.
	// Frame-level corruption is applied by the test harness via
	// faults.Injector.Apply before frames reach ProcessBatches.
	Faults *faults.Injector
	// MaxRestarts bounds consecutive panic-restarts of one shard worker
	// on the same frame before the crash-loop breaker trips (<= 0 means
	// DefaultMaxRestarts). A successful frame resets the count.
	MaxRestarts int
	// StallTimeout is how long a worker may stay on one in-flight frame
	// before Health reports the shard stalled. Zero disables the stall
	// watchdog.
	StallTimeout time.Duration
	// Clock is the stall watchdog's time source (nil means time.Now).
	// Injectable so chaos tests drive stall detection deterministically;
	// it never influences frame processing or drift decisions.
	Clock func() time.Time
}

// ShardedMonitor drives N independent video streams over one shared set
// of provisioned models — the multi-camera deployment shape of the
// paper's setting (one registry of per-condition models, many feeds
// hitting it). Each shard is a full Monitor: its own deployed model,
// Drift Inspector, martingale and selection state, seeded independently
// (base seed + shard index) so runs are reproducible per shard. Shards
// share the read-only expensive state — reference feature matrices,
// calibration scores, classifier weights — so memory and provisioning
// cost stay O(models), not O(models × shards).
//
// ProcessBatches supervises the shard workers: a panic inside Process
// is recovered, the shard is restored from its last batch-boundary
// snapshot and the batch is re-fed, so a transient crash is invisible in
// the shard's event stream. Supervision is batch-granular — one snapshot
// per micro-batch, not per frame — which is what makes batching pay: the
// per-frame snapshot cost of the supervisor is amortized over the batch.
// A crash loop (more than MaxRestarts consecutive panics on one batch)
// trips a circuit breaker: the shard is declared failed and later frames
// for it are dropped and counted, while the remaining shards keep
// serving.
type ShardedMonitor struct {
	// batchMu is held for the whole of a ProcessBatches call and of a
	// Checkpoint, so a capture requested at any time waits for the batch
	// in flight and lands on a batch boundary. It is taken before mu and
	// is a plain mutex on purpose: observers (Health, Stats, Shards,
	// Active) only read-lock mu, and a capture that waited for a batch
	// as a pending writer on mu would park every one of them behind it
	// for the rest of the batch — a 300 ms training (DESIGN.md §17).
	batchMu sync.Mutex
	// mu guards the shards/states slice headers against dynamic
	// Attach/Detach. Batch processing and Health hold the read lock (slot
	// contents are still single-writer per slot: one worker per shard plus
	// per-field atomics); Attach and Detach take the write lock, so the
	// slot set never moves under a running batch.
	mu      sync.RWMutex
	shards  []*Monitor
	states  []*shardState
	pool    *parallel.Pool
	labeler Labeler

	// baseModels and baseOpts are the shared provisioned entries and the
	// per-shard option template dynamic Attach builds new slots from.
	baseModels []*Model
	baseOpts   Options

	// tableMu guards table, the model table of the last Checkpoint. The
	// next capture numbers its entries in that order and appends the ones
	// it has not seen, so consecutive checkpoints' tables extend each other
	// whichever shard trained a model — what lets replication ship a
	// training as one new entry instead of a full snapshot.
	tableMu sync.Mutex
	table   []*Model

	faults       *faults.Injector
	maxRestarts  int
	stallTimeout time.Duration
	clock        func() time.Time

	// runBatches and runEvents are the ProcessBatches call in flight
	// (under batchMu) and runSlots the shards it has frames for; runShard
	// — built once, so that a call allocates no closure for the fan-out —
	// feeds the k-th of them.
	runBatches [][]Frame
	runEvents  [][]Event
	runSlots   []int
	runShard   func(k int)
}

// shardState is the supervisor's bookkeeping for one shard. The atomic
// fields are read by Health from other goroutines while a batch runs;
// the rest is touched only by the shard's worker slot inside
// ProcessBatches (at most one goroutine per shard at a time).
type shardState struct {
	opts Options // per-shard options (seed-shifted, tracer and fault hooks wired)
	// tenant names the stream the slot serves ("" if unnamed) and next is
	// the stream index of the frame fed next; a named stream's frames
	// carry their index, so its position follows them.
	tenant   string
	next     int
	streak   int // consecutive restarts on the current batch
	snap     core.PipelineSnapshot
	rewind   forensics.RecorderState // the recorder at the batch start, for a restore
	entries  []*core.ModelEntry
	regEpoch uint64 // registry epoch entries was cached at

	restarts  atomic.Int64 // total worker restarts
	dropped   atomic.Int64 // frames discarded after the breaker tripped
	failed    atomic.Bool  // crash-loop breaker tripped
	busySince atomic.Int64 // unix-nanos the in-flight batch started; 0 when idle

	// statsMu guards stats, the post-batch metrics mirror observers
	// (Stats, ShardStats — e.g. a /healthz handler) read instead of the
	// live pipeline, which only the shard's worker may touch mid-batch.
	statsMu sync.Mutex
	stats   core.Metrics
}

// setStats publishes the shard's post-batch metrics for observers.
func (st *shardState) setStats(m core.Metrics) {
	st.statsMu.Lock()
	st.stats = m
	st.statsMu.Unlock()
}

// loadStats reads the shard's last published metrics.
func (st *shardState) loadStats() core.Metrics {
	st.statsMu.Lock()
	defer st.statsMu.Unlock()
	return st.stats
}

// save records the shard's post-batch state: the pipeline snapshot plus
// the registry's entry list. The snapshot is written into the storage of
// the previous one (restore copies what it reads), so a warm save
// allocates nothing. The entry list is refreshed only when the
// registry's epoch moved (a new model was trained); the common batch
// grows no models, so a save is one pipeline snapshot plus an atomic
// load — not a per-batch slice copy. Snapshot entry lists are immutable
// once published, so holding the slice without copying is safe.
func (st *shardState) save(m *Monitor) {
	m.pipe.SnapshotInto(&st.snap)
	if snap := m.pipe.Registry().Snapshot(); st.entries == nil || snap.Epoch() != st.regEpoch {
		st.entries = snap.Entries()
		st.regEpoch = snap.Epoch()
	}
	st.setStats(m.pipe.Metrics())
}

// ShardHealth is the supervisor's live view of one shard; the JSON form
// is what driftserve's /healthz reports per shard.
type ShardHealth struct {
	// State is the worst of the shard's pipeline health (training
	// retries, degraded serving) and the supervisor's view (breaker
	// tripped → HealthFailed, wedged → at least HealthDegraded).
	State Health `json:"state"`
	// Stalled reports a frame in flight longer than StallTimeout.
	Stalled bool `json:"stalled"`
	// Detached reports an unoccupied dynamic slot (no tenant attached);
	// a detached slot is healthy and never stalled.
	Detached bool `json:"detached,omitempty"`
	// Restarts is the total number of supervised worker restarts.
	Restarts int `json:"restarts"`
	// DroppedFrames counts frames discarded after the breaker tripped.
	DroppedFrames int `json:"dropped"`
}

// ShardedHealth aggregates shard health for readiness checks.
type ShardedHealth struct {
	// State is the worst state across shards.
	State Health
	// Stalled reports whether any shard is currently wedged.
	Stalled bool
	// Shards holds the per-shard detail, indexed by shard.
	Shards []ShardHealth
}

// Serving reports whether the fleet should keep receiving traffic:
// false once any shard has failed or is wedged past the stall timeout.
// Degraded-but-serving shards (training retries after a drift) do not
// clear it — the deployed model still answers queries.
func (h ShardedHealth) Serving() bool {
	return h.State != HealthFailed && !h.Stalled
}

// NewShardedMonitor builds one monitor per shard over the shared models:
// a dynamic fleet with Shards streams attached. Every shard starts with
// the registry's first model deployed, exactly like NewMonitor; shard i's
// pipeline runs on seed Options.Pipeline.Seed + i.
func NewShardedMonitor(models []*Model, labeler Labeler, opts ShardedOptions) *ShardedMonitor {
	if opts.Shards < 1 {
		panic("videodrift: NewShardedMonitor needs Shards >= 1")
	}
	if opts.Tracers != nil && len(opts.Tracers) < opts.Shards {
		panic(fmt.Sprintf("videodrift: %d tracers for %d shards", len(opts.Tracers), opts.Shards))
	}
	sm := NewDynamicSharded(models, labeler, opts)
	for i := 0; i < opts.Shards; i++ {
		var tr *Tracer
		if opts.Tracers != nil {
			tr = opts.Tracers[i]
		}
		if _, err := sm.Attach(tr); err != nil {
			panic(err)
		}
	}
	return sm
}

// NewDynamicSharded builds a fleet with zero initial shards over the
// shared models: slots are claimed with Attach as tenants appear and
// released with Detach as they go idle — the multi-tenant ingestion
// shape, where the network tier owns the tenant↔slot mapping. The
// expensive read-only state (feature matrices, calibration, classifier
// weights) is shared exactly as in NewShardedMonitor, so serving N
// tenants costs O(models) provisioned state, not O(models × tenants).
func NewDynamicSharded(models []*Model, labeler Labeler, opts ShardedOptions) *ShardedMonitor {
	sm := newSharded(0, labeler, opts)
	sm.baseModels = models
	for _, m := range models {
		m.FeatMatrix()
	}
	return sm
}

// newSharded allocates the supervisor shell shared by NewDynamicSharded
// and ResumeSharded.
func newSharded(n int, labeler Labeler, opts ShardedOptions) *ShardedMonitor {
	sm := &ShardedMonitor{
		shards:       make([]*Monitor, n),
		states:       make([]*shardState, n),
		pool:         parallel.New(opts.Workers),
		labeler:      labeler,
		baseOpts:     opts.Options,
		faults:       opts.Faults,
		maxRestarts:  opts.MaxRestarts,
		stallTimeout: opts.StallTimeout,
		clock:        opts.Clock,
	}
	if sm.maxRestarts <= 0 {
		sm.maxRestarts = DefaultMaxRestarts
	}
	if sm.clock == nil {
		sm.clock = time.Now
	}
	sm.runShard = func(k int) {
		i := sm.runSlots[k]
		sm.processShardBatch(i, sm.runBatches[i], sm.runEvents[i])
	}
	return sm
}

// Shards returns the number of shard slots (attached or detached).
func (sm *ShardedMonitor) Shards() int {
	sm.mu.RLock()
	defer sm.mu.RUnlock()
	return len(sm.shards)
}

// Active returns the number of attached (occupied) shard slots.
func (sm *ShardedMonitor) Active() int {
	sm.mu.RLock()
	defer sm.mu.RUnlock()
	n := 0
	for _, m := range sm.shards {
		if m != nil {
			n++
		}
	}
	return n
}

// Shard returns the monitor driving stream i (nil for a detached slot) —
// use it for per-shard queries (Current, Models, Telemetry). The
// returned Monitor must not be fed frames concurrently with
// ProcessBatches; feeding it directly also bypasses the supervisor (no
// fault injection, panic recovery or snapshotting).
func (sm *ShardedMonitor) Shard(i int) *Monitor {
	sm.mu.RLock()
	defer sm.mu.RUnlock()
	return sm.shards[i]
}

// Attach claims a shard slot for a new stream: the lowest detached slot
// is reused, or a fresh one is appended. The new shard is a full
// Monitor over the shared model entries (deduped exactly as
// checkpointing shares them), seeded by slot index — so a stream
// attached to slot i behaves bit-identically to shard i of a fixed
// fleet. tr optionally attaches a per-stream telemetry tracer (nil
// shares the fleet's base tracer). Safe to call while batches run;
// Attach briefly blocks new ProcessBatches calls, never in-flight frames.
func (sm *ShardedMonitor) Attach(tr *Tracer) (int, error) { return sm.AttachTenant("", 0, tr) }

// AttachTenant is Attach for a named stream whose next frame has stream
// index next; its frames carry their index in Frame.Index (a router's
// sequence number). A Checkpoint records name and position per shard, so
// ResumeSharded brings the stream back where it was (Tenant).
func (sm *ShardedMonitor) AttachTenant(tenant string, next uint64, tr *Tracer) (int, error) {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	if len(sm.baseModels) == 0 {
		return 0, fmt.Errorf("videodrift: Attach on a fleet with no base models")
	}
	slot := -1
	for i, m := range sm.shards {
		if m == nil {
			slot = i
			break
		}
	}
	if slot == -1 {
		slot = len(sm.shards)
		sm.shards = append(sm.shards, nil)
		sm.states = append(sm.states, nil)
	}
	shardOpts := sm.baseOpts
	if tr != nil {
		shardOpts.Tracer = tr
	}
	if sm.faults != nil {
		shardOpts.Pipeline.TrainFault = sm.faults.TrainFault(slot)
	}
	shardOpts.Pipeline.Seed += int64(slot)
	m := NewMonitor(sm.baseModels, sm.labeler, shardOpts)
	st := &shardState{opts: shardOpts, tenant: tenant, next: int(next)}
	st.save(m)
	sm.shards[slot] = m
	sm.states[slot] = st
	return slot, nil
}

// Tenant reports the stream slot i serves ("" for an unnamed or detached
// slot) and the stream index of the frame it is fed next. It waits for
// the batch in flight.
func (sm *ShardedMonitor) Tenant(i int) (string, uint64) {
	sm.batchMu.Lock()
	defer sm.batchMu.Unlock()
	sm.mu.RLock()
	defer sm.mu.RUnlock()
	if st := sm.states[i]; st != nil {
		return st.tenant, uint64(st.next)
	}
	return "", 0
}

// Detach releases slot i: the shard's monitor (its private drift state,
// RNG streams and any breaker bookkeeping) is dropped and the slot
// becomes reusable by the next Attach. The shared model entries are
// untouched. It is an error to detach a slot that is not attached.
func (sm *ShardedMonitor) Detach(i int) error {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	if i < 0 || i >= len(sm.shards) || sm.shards[i] == nil {
		return &DetachedSlotError{Slot: i}
	}
	sm.shards[i] = nil
	sm.states[i] = nil
	return nil
}

// ProcessBatches runs a micro-batch of consecutive frames per shard
// concurrently: batches[i] goes to shard i in order, and events[i][j]
// reports what shard i did with batches[i][j]. batches may be shorter
// than Shards — slots only ever append, so a batch set assembled before
// a concurrent Attach still lines up — but not longer, and a non-empty
// batch for a detached slot is a *DetachedSlotError; batches may be
// ragged or empty (shards need not advance in lockstep within one call).
// Each shard's event stream is bit-identical to feeding its Monitor
// serially, under any batch size and worker count — batching only
// amortizes the supervisor's per-call snapshot over the batch. A panic
// anywhere in a shard's batch restores the shard to the batch start
// (pipeline snapshot plus forensics rewind) and re-runs the whole batch;
// a crash loop trips the breaker and drops the batch. The frames are
// borrowed, as by Monitor.Process: the caller may reuse their arrays
// once ProcessBatches returns.
func (sm *ShardedMonitor) ProcessBatches(batches [][]Frame) ([][]Event, error) {
	return sm.ProcessBatchesInto(batches, nil)
}

// ProcessBatchesInto is ProcessBatches into events' storage, grown as
// needed and returned, so a caller feeding the fleet call after call —
// the ingestion router — reuses one set of event slices.
func (sm *ShardedMonitor) ProcessBatchesInto(batches [][]Frame, events [][]Event) ([][]Event, error) {
	sm.batchMu.Lock()
	defer sm.batchMu.Unlock()
	sm.mu.RLock()
	defer sm.mu.RUnlock()
	if len(batches) > len(sm.shards) {
		return nil, fmt.Errorf("videodrift: %d batches for %d shard slots", len(batches), len(sm.shards))
	}
	events = slices.Grow(events[:0], len(batches))[:len(batches)]
	slots := sm.runSlots[:0]
	for i, b := range batches {
		if len(b) > 0 && sm.shards[i] == nil {
			return nil, &DetachedSlotError{Slot: i}
		}
		events[i] = slices.Grow(events[i][:0], len(b))[:len(b)]
		if len(b) > 0 {
			slots = append(slots, i)
		}
	}
	sm.runBatches, sm.runEvents, sm.runSlots = batches, events, slots
	sm.pool.ForEach(len(slots), sm.runShard)
	sm.runBatches, sm.runEvents = nil, nil
	return events, nil
}

// processShardBatch feeds one shard a run of consecutive frames under
// supervision: injected worker faults fire before each frame, a panic
// is recovered and the shard restored to the batch start (re-running
// the batch), and a crash loop trips the breaker. events is filled
// frame by frame; on failure it is zeroed so partial results never
// leak.
func (sm *ShardedMonitor) processShardBatch(i int, frames []Frame, events []Event) {
	st := sm.states[i]
	start := st.next
	if st.tenant != "" {
		start = frames[0].Index
	}
	st.next = start + len(frames)
	if st.failed.Load() {
		st.dropped.Add(int64(len(frames)))
		clear(events)
		return
	}
	// A mid-batch panic rolls the pipeline back to the batch start, so
	// the forensics recorder must rewind with it or the re-run would
	// duplicate pre-roll frames. At batch size 1 the panicking frame was
	// never recorded (Record runs after Process returns), so there is
	// nothing to rewind — and nothing to pay for on the per-frame path.
	if len(frames) > 1 {
		sm.shards[i].rec.StateInto(&st.rewind)
	}
	st.busySince.Store(sm.clock().UnixNano())
	defer st.busySince.Store(0)
	for {
		panicked, reason := sm.attemptBatch(i, start, frames, events)
		if !panicked {
			st.streak = 0
			st.save(sm.shards[i])
			return
		}
		tr := sm.shards[i].Telemetry()
		st.streak++
		if st.streak > sm.maxRestarts {
			st.failed.Store(true)
			st.dropped.Add(int64(len(frames)))
			tr.HealthChanged(HealthFailed,
				fmt.Sprintf("shard %d crash loop: %d consecutive panics (%s)", i, st.streak, reason))
			clear(events)
			return
		}
		st.restarts.Add(1)
		tr.WorkerRestarted(i, st.streak, reason)
		if err := sm.restore(i); err != nil {
			st.failed.Store(true)
			st.dropped.Add(int64(len(frames)))
			tr.HealthChanged(HealthFailed, fmt.Sprintf("shard %d restore failed: %v", i, err))
			clear(events)
			return
		}
		if len(frames) > 1 {
			sm.shards[i].rec.Rewind(st.rewind)
		}
	}
}

// attemptBatch runs one supervised pass over a shard's batch,
// converting any panic — injected or real — into a recoverable verdict.
// Worker faults are keyed by absolute stream index (start+j), so a
// deterministic fault schedule lands on the same frames regardless of
// how the stream is batched.
func (sm *ShardedMonitor) attemptBatch(shard, start int, frames []Frame, events []Event) (panicked bool, reason string) {
	defer func() {
		if r := recover(); r != nil {
			panicked = true
			reason = fmt.Sprint(r)
		}
	}()
	for j := range frames {
		sm.faults.BeforeProcess(shard, start+j)
		events[j] = sm.shards[shard].Process(frames[j])
	}
	return false, ""
}

// restore rebuilds shard i's pipeline from its last snapshot, exactly as
// a checkpoint resume would: same registry entries, same configuration,
// bit-identical runtime state. The Monitor pointer is preserved so
// Shard(i) handles stay valid across restarts.
func (sm *ShardedMonitor) restore(i int) error {
	st := sm.states[i]
	cfg := st.opts.Pipeline
	cfg.Provision = st.opts.Provision
	if st.opts.Tracer != nil {
		cfg.Tracer = st.opts.Tracer
	}
	reg := core.NewRegistry(st.entries...) // NewRegistry copies the slice
	pipe, err := core.RestorePipeline(reg, sm.labeler, cfg, st.snap)
	if err != nil {
		return err
	}
	sm.shards[i].pipe = pipe
	// The rebuilt registry restarts its epoch counter with st.entries as
	// its epoch-0 snapshot; re-sync the cache so a later Add on the new
	// registry is not masked by an epoch collision with the old one.
	st.regEpoch = 0
	return nil
}

// Health reports the supervisor's live view of every shard: pipeline
// degradation (training retries), tripped breakers, stall-watchdog
// verdicts and drop/restart counts. Safe to call from other goroutines
// (e.g. an HTTP health handler) while ProcessBatches runs.
func (sm *ShardedMonitor) Health() ShardedHealth {
	now := sm.clock()
	sm.mu.RLock()
	defer sm.mu.RUnlock()
	h := ShardedHealth{Shards: make([]ShardHealth, len(sm.shards))}
	for i, st := range sm.states {
		if st == nil {
			h.Shards[i] = ShardHealth{Detached: true}
			continue
		}
		sh := ShardHealth{
			State:         sm.shards[i].Health(),
			Restarts:      int(st.restarts.Load()),
			DroppedFrames: int(st.dropped.Load()),
		}
		if st.failed.Load() {
			sh.State = HealthFailed
		}
		if busy := st.busySince.Load(); busy != 0 && sm.stallTimeout > 0 &&
			now.Sub(time.Unix(0, busy)) > sm.stallTimeout {
			sh.Stalled = true
			if sh.State == HealthOK {
				sh.State = HealthDegraded
			}
		}
		h.Shards[i] = sh
		if sh.State > h.State {
			h.State = sh.State
		}
		h.Stalled = h.Stalled || sh.Stalled
	}
	return h
}

// ShardStats returns shard i's metrics (zero for a detached slot).
// Like Stats it reads the post-batch mirror, so it is safe to call
// while the shard is processing.
func (sm *ShardedMonitor) ShardStats(i int) Metrics {
	sm.mu.RLock()
	defer sm.mu.RUnlock()
	if sm.shards[i] == nil {
		return Metrics{}
	}
	return sm.states[i].loadStats()
}

// Stats aggregates metrics across all attached shards. Safe to call
// while batches are in flight: it reads each shard's post-batch
// metrics mirror, so a concurrent observer sees the state as of the
// last completed batch, never a torn mid-batch view.
func (sm *ShardedMonitor) Stats() Metrics {
	sm.mu.RLock()
	defer sm.mu.RUnlock()
	var total core.Metrics
	for i, m := range sm.shards {
		if m == nil {
			continue
		}
		s := sm.states[i].loadStats()
		total.Frames += s.Frames
		total.ModelInvocations += s.ModelInvocations
		total.DriftsDetected += s.DriftsDetected
		total.ModelsSelected += s.ModelsSelected
		total.ModelsTrained += s.ModelsTrained
		total.SelectingFrames += s.SelectingFrames
		total.TrainingFrames += s.TrainingFrames
		total.QuarantinedFrames += s.QuarantinedFrames
		total.TrainingFailures += s.TrainingFailures
	}
	return total
}
