// Package parallel provides the bounded fan-out primitives set-up, the
// ensemble fit and the sharded monitor run on: a per-call fan-out over an
// atomic index counter and deterministic RNG forking. Determinism is the
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

// Pool is a fan-out width: the most goroutines one ForEach call runs its
// tasks on. It holds no goroutines — a call starts its helpers and they
// exit once every index is claimed — so a Pool is free to construct, safe
// for concurrent and nested use, and never needs closing. The zero value
// is not ready to use; construct with New.
type Pool struct {
	workers int
}

// New returns a pool running at most workers tasks of one call
// concurrently. workers <= 0 selects GOMAXPROCS.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return p.workers }

// job is one ForEach invocation in flight: the task body, the next
// unclaimed index, and a WaitGroup counting the indices not yet finished.
type job struct {
	fn     func(int)
	n      int64
	next   atomic.Int64
	stop   atomic.Bool                // set on first panic: skip remaining work
	panics atomic.Pointer[PanicError] // first panic wins
	wg     sync.WaitGroup
}

// run claims indices until none is left, running each unless the job
// has stopped. Every index is claimed by a participant that is running,
// so the caller's Wait never depends on a helper that has not started.
func (j *job) run() {
	for i := j.next.Add(1) - 1; i < j.n; i = j.next.Add(1) - 1 {
		if !j.stop.Load() {
			j.do(int(i))
		}
		j.wg.Done()
	}
}

// do runs one task, capturing a panic with the worker's stack and
// stopping the job.
func (j *job) do(i int) {
	defer func() {
		if r := recover(); r != nil {
			j.panics.CompareAndSwap(nil, &PanicError{Value: r, Stack: debug.Stack()})
			j.stop.Store(true)
		}
	}()
	j.fn(i)
}

// ForEach runs fn(0) … fn(n-1), at most Workers at a time, and returns
// when all calls have finished. The caller and min(Workers, n)-1 helper
// goroutines started for this call claim indices from one atomic counter,
// so completion order is unspecified — fn must not depend on it (write
// results to out[i], don't append). The caller waits only for indices
// that were claimed, never for a helper to be scheduled, and a nested
// ForEach starts helpers of its own, so nesting cannot deadlock
// (TestNestedForEach). A panic in any fn stops the job — indices not yet
// claimed do not run — and the first panic is re-raised on the caller's
// goroutine wrapped in *PanicError, preserving the panicking worker's
// stack.
func (p *Pool) ForEach(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := min(p.workers, n)
	if w == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	j := &job{fn: fn, n: int64(n)}
	j.wg.Add(n)
	for g := 1; g < w; g++ {
		go j.run()
	}
	j.run()
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

// scratch holds rngScratch sets between ForEachSeeded calls of any pool.
var scratch sync.Pool

// ForEachSeeded is ForEach for tasks that consume randomness: it reseeds
// one child RNG per task from rng — serially, in index order, before any
// worker starts — and hands task i its own stream. Task i therefore sees
// the same draws whether the pool runs 1 worker or 100, which is what
// keeps parallel work decision-identical to serial under a fixed seed.
// The child RNG is scratch, valid only for the duration of fn(i); fn must
// not retain it.
func (p *Pool) ForEachSeeded(n int, rng *stats.RNG, fn func(i int, rng *stats.RNG)) {
	if n <= 0 {
		return
	}
	sc, _ := scratch.Get().(*rngScratch)
	if sc == nil {
		sc = &rngScratch{}
	}
	defer scratch.Put(sc)
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
