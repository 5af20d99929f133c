// Package parallel provides the bounded fan-out primitives the selection
// engine and the sharded monitor run on: a persistent worker pool with
// chunked work-stealing and deterministic RNG forking. Determinism is the
// design constraint — every construct here guarantees that results are
// independent of the worker count and of goroutine scheduling, so a
// parallel run is decision-identical to a serial one under the same seed.
// The rule that makes this work: any randomness a parallel task consumes
// is pre-split from the caller's RNG serially, in task-index order,
// BEFORE the fan-out; workers then touch only their own stream.
package parallel

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"videodrift/internal/stats"
)

// PanicError is how ForEach re-raises a worker panic on the caller's
// goroutine: the first panicking worker's value and stack are captured at
// the point of the panic, so the original failure site survives the hop
// across goroutines instead of being replaced by the caller's stack.
type PanicError struct {
	// Value is what the worker's fn panicked with.
	Value any
	// Stack is the panicking worker's stack trace, captured inside its
	// recover.
	Stack []byte
}

// Error implements error with the original panic value and worker stack.
func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: worker panic: %v\n%s", e.Value, e.Stack)
}

// Pool is a bounded worker pool for CPU-bound fan-out. The zero value is
// not ready to use; construct with New (or use Shared). A Pool is safe
// for concurrent use: overlapping ForEach calls share the pool's
// persistent workers, and the per-pool worker bound caps the total
// goroutines running pool tasks at any moment.
//
// Workers are started lazily on the first multi-worker ForEach and then
// parked on an idle channel receive (a futex wait, not a spin), so an
// idle pool costs nothing and a busy one never pays goroutine spin-up
// per call.
type Pool struct {
	workers int
	start   sync.Once
	jobs    chan *job
	scratch sync.Pool // *rngScratch, reused by ForEachSeeded
}

// New returns a pool running at most workers tasks concurrently.
// workers <= 0 selects GOMAXPROCS.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// sharedPools caches process-wide pools by worker bound, so call sites
// that historically constructed a throwaway Pool per invocation (MSBI per
// drift, ensemble fits) reuse one set of persistent workers instead.
var (
	sharedMu    sync.Mutex
	sharedPools = map[int]*Pool{}
)

// Shared returns the process-wide pool with the given worker bound,
// creating it on first use. workers <= 0 selects GOMAXPROCS. Pools are
// never torn down; their workers park between calls.
func Shared(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sharedMu.Lock()
	defer sharedMu.Unlock()
	p := sharedPools[workers]
	if p == nil {
		p = New(workers)
		sharedPools[workers] = p
	}
	return p
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return p.workers }

// job is one ForEach invocation in flight: the task body plus a
// work-stealing range per participant slot. Participants (the caller and
// any helpers that picked the job up) drain their own range front-to-back
// in chunks and steal the back half of the fullest remaining range when
// theirs is empty.
type job struct {
	fn     func(int)
	ranges []claimRange
	slots  atomic.Int32               // helper slot allocator (slot 0 is the caller)
	stop   atomic.Bool                // set on first panic: abandon remaining work
	panics atomic.Pointer[PanicError] // first panic wins
	// gate is the hand-off state: bit 0 is set by the caller once its own
	// drain has returned (every index is claimed, so a token dequeued from
	// then on is stale), the bits above it count the helpers that entered
	// before that. wg counts the tokens the caller still waits for.
	gate atomic.Int32
	wg   sync.WaitGroup
}

// enter admits a helper that dequeued one of the job's tokens, unless
// the caller has already closed the job.
func (j *job) enter() bool {
	for {
		g := j.gate.Load()
		if g&1 != 0 {
			return false
		}
		if j.gate.CompareAndSwap(g, g+2) {
			return true
		}
	}
}

// claimRange is one participant's [lo, hi) interval of unclaimed task
// indices, packed into a single uint64 (hi<<32 | lo) so both bounds move
// under one CAS. Each range lives on its own cache line: the owner's
// chunked claims advance lo and thieves retreat hi, and padding keeps
// those CASes from false-sharing with neighbouring slots — the failure
// mode of the previous single shared counter at small task sizes.
type claimRange struct {
	bounds atomic.Uint64
	_      [56]byte
}

func packRange(lo, hi int) uint64 { return uint64(hi)<<32 | uint64(lo) }

func unpackRange(b uint64) (lo, hi int) { return int(b & 0xffffffff), int(b >> 32) }

// claimChunkDiv sizes owner claims: an owner takes 1/8 of its remaining
// range per claim (at least one index), so early claims are large (cheap)
// while the tail stays fine-grained enough for thieves to balance.
const claimChunkDiv = 8

// claim takes the next chunk off the front of the range.
func (r *claimRange) claim() (lo, hi int, ok bool) {
	for {
		b := r.bounds.Load()
		clo, chi := unpackRange(b)
		if clo >= chi {
			return 0, 0, false
		}
		c := (chi - clo + claimChunkDiv - 1) / claimChunkDiv
		if r.bounds.CompareAndSwap(b, packRange(clo+c, chi)) {
			return clo, clo + c, true
		}
	}
}

// steal takes the back half of the range (at least one index).
func (r *claimRange) steal() (lo, hi int, ok bool) {
	for {
		b := r.bounds.Load()
		clo, chi := unpackRange(b)
		if clo >= chi {
			return 0, 0, false
		}
		c := (chi - clo + 1) / 2
		if r.bounds.CompareAndSwap(b, packRange(clo, chi-c)) {
			return chi - c, chi, true
		}
	}
}

func (r *claimRange) remaining() int {
	lo, hi := unpackRange(r.bounds.Load())
	if lo >= hi {
		return 0
	}
	return hi - lo
}

// run is one participant's drain loop: claim chunks from the slot's own
// range, then steal the back half of the fullest other range — including
// ranges whose helper slot never materialized — until everything is
// empty. A panic in fn is captured with the worker's stack and stops the
// job; indices not yet claimed when a panic fires may never run.
func (j *job) run(slot int) {
	defer func() {
		if r := recover(); r != nil {
			j.panics.CompareAndSwap(nil, &PanicError{Value: r, Stack: debug.Stack()})
			j.stop.Store(true)
		}
	}()
	own := &j.ranges[slot]
	for {
		lo, hi, ok := own.claim()
		if !ok {
			victim := -1
			best := 0
			for v := range j.ranges {
				if v == slot {
					continue
				}
				if rem := j.ranges[v].remaining(); rem > best {
					best, victim = rem, v
				}
			}
			if victim < 0 {
				return
			}
			lo, hi, ok = j.ranges[victim].steal()
			if !ok {
				continue // lost the race; rescan
			}
		}
		for i := lo; i < hi; i++ {
			if j.stop.Load() {
				return
			}
			j.fn(i)
		}
	}
}

// spawn starts the pool's workers-1 persistent helper goroutines, parked
// on the job channel. They live for the life of the process; panics in
// task bodies are recovered inside job.run, so a panic never kills a
// worker (see TestWorkerPanicDoesNotLeakWorkers).
func (p *Pool) spawn() {
	p.jobs = make(chan *job, p.workers-1)
	for g := 0; g < p.workers-1; g++ {
		go func() {
			for j := range p.jobs {
				if j.enter() {
					j.run(int(j.slots.Add(1)))
					j.wg.Done()
				}
			}
		}()
	}
}

// ForEach runs fn(0) … fn(n-1), at most Workers at a time, and returns
// when all calls have finished. Indices are claimed in chunks from
// per-participant work-stealing ranges, so completion order is
// unspecified — fn must not depend on it (write results to out[i], don't
// append). The caller participates as a worker and waits only for
// helpers that actually picked the job up, never for a token still
// sitting in the hand-off buffer — so progress never depends on helper
// scheduling and nested ForEach calls on the same pool, from the caller
// or from a helper, complete even when every helper is busy
// (TestNestedForEach). A panic in any fn stops the job — remaining
// unclaimed indices may not run — and the first panic is re-raised on
// the caller's goroutine wrapped in *PanicError, preserving the
// panicking worker's stack.
func (p *Pool) ForEach(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := p.workers
	if w > n {
		w = n
	}
	if w == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	p.start.Do(p.spawn)
	j := &job{fn: fn, ranges: make([]claimRange, w)}
	lo := 0
	per, rem := n/w, n%w
	for s := 0; s < w; s++ {
		hi := lo + per
		if s < rem {
			hi++
		}
		j.ranges[s].bounds.Store(packRange(lo, hi))
		lo = hi
	}
	// Offer the job to w-1 parked helpers without blocking: if the pool's
	// workers are all busy with overlapping ForEach calls, the caller just
	// runs with fewer helpers (their un-owned ranges get stolen), keeping
	// the pool's total concurrency bounded by Workers.
	offered := 0
	for g := 1; g < w; g++ {
		j.wg.Add(1)
		select {
		case p.jobs <- j:
			offered++
		default:
			j.wg.Done()
		}
	}
	j.run(0)
	// run(0) returns once every index is claimed, so a token no helper has
	// dequeued yet has nothing left to hand out. Close the job and give up
	// on those tokens: the only goroutine able to dequeue one may be this
	// one (a helper running a nested call), and waiting for it deadlocks.
	entered := int(j.gate.Add(1) >> 1)
	j.wg.Add(entered - offered)
	j.wg.Wait()
	if pe := j.panics.Load(); pe != nil {
		panic(pe)
	}
}

// rngScratch is ForEachSeeded's reusable set of child generators. The
// children are reseeded in place per call, so a fan-out over n tasks
// costs n cheap reseeds instead of n fresh ~5KB source allocations.
type rngScratch struct {
	rngs []*stats.RNG
}

// ForEachSeeded is ForEach for tasks that consume randomness: it reseeds
// one child RNG per task from rng — serially, in index order, before any
// worker starts — and hands task i its own stream. Task i therefore sees
// the same draws whether the pool runs 1 worker or 100, which is what
// keeps parallel selection decision-identical to serial under a fixed
// seed. The child RNG is pool-owned scratch, valid only for the duration
// of fn(i); fn must not retain it.
func (p *Pool) ForEachSeeded(n int, rng *stats.RNG, fn func(i int, rng *stats.RNG)) {
	if n <= 0 {
		return
	}
	sc, _ := p.scratch.Get().(*rngScratch)
	if sc == nil {
		sc = &rngScratch{}
	}
	defer p.scratch.Put(sc)
	for len(sc.rngs) < n {
		sc.rngs = append(sc.rngs, stats.NewRNG(0))
	}
	rngs := sc.rngs[:n]
	for i := range rngs {
		// Reseed(parent.Int63()) reproduces Split()'s stream bit-exactly:
		// Split is NewRNG(parent.Int63()), and Reseed resets a child to
		// the NewRNG(seed) state.
		rngs[i].Reseed(rng.Int63())
	}
	p.ForEach(n, func(i int) { fn(i, rngs[i]) })
}
