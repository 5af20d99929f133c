package parallel

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"videodrift/internal/stats"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		p := New(workers)
		const n = 500
		var hits [n]atomic.Int32
		p.ForEach(n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times, want 1", workers, i, got)
			}
		}
	}
}

// TestForEachRepeatedCalls drives many fan-outs through one pool and
// checks exactly-once claiming every time, including tiny n where there
// are fewer indices than workers.
func TestForEachRepeatedCalls(t *testing.T) {
	p := New(4)
	for round := 0; round < 200; round++ {
		n := 1 + round%17
		hits := make([]atomic.Int32, n)
		p.ForEach(n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("round %d: index %d ran %d times, want 1", round, i, got)
			}
		}
	}
}

// TestForEachConcurrentCalls overlaps ForEach invocations on one pool —
// set-up's shape, where concurrent provisions each fit an ensemble on
// the same width. Every call must still cover its own indices exactly
// once.
func TestForEachConcurrentCalls(t *testing.T) {
	p := New(4)
	const callers, n = 8, 200
	var wg sync.WaitGroup
	errs := make(chan string, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hits := make([]atomic.Int32, n)
			p.ForEach(n, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					errs <- "index ran wrong number of times"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestForEachEmptyAndNegative(t *testing.T) {
	p := New(4)
	ran := false
	p.ForEach(0, func(int) { ran = true })
	p.ForEach(-3, func(int) { ran = true })
	if ran {
		t.Error("ForEach ran tasks for n <= 0")
	}
}

func TestNewClampsWorkers(t *testing.T) {
	if New(0).Workers() < 1 || New(-5).Workers() < 1 {
		t.Error("New with non-positive workers produced an empty pool")
	}
	if got := New(3).Workers(); got != 3 {
		t.Errorf("Workers = %d, want 3", got)
	}
}

// TestForEachPropagatesPanic is the panic contract: the first worker
// panic is re-raised on the caller's goroutine as a *PanicError carrying
// the original value and the panicking worker's stack — not the caller's.
func TestForEachPropagatesPanic(t *testing.T) {
	defer func() {
		pe, ok := recover().(*PanicError)
		if !ok {
			t.Fatalf("recovered %T, want *PanicError", pe)
		}
		if pe.Value != "boom" {
			t.Errorf("PanicError.Value = %v, want boom", pe.Value)
		}
		if !strings.Contains(string(pe.Stack), "pool_test.go") {
			t.Errorf("PanicError.Stack does not point at the panic site:\n%s", pe.Stack)
		}
		if !strings.Contains(pe.Error(), "boom") {
			t.Errorf("PanicError.Error() = %q, want the panic value included", pe.Error())
		}
	}()
	New(4).ForEach(16, func(i int) {
		if i == 7 {
			panic("boom")
		}
	})
}

// TestWorkerPanicDoesNotLeakWorkers hammers a pool with panicking jobs
// and checks the goroutine count stays put: a panic is recovered inside
// the task, so a panicking job's helpers exit like any other job's and
// none is left behind.
func TestWorkerPanicDoesNotLeakWorkers(t *testing.T) {
	p := New(4)
	// Force the workers to start and settle before measuring.
	p.ForEach(8, func(int) {})
	time.Sleep(10 * time.Millisecond)
	before := runtime.NumGoroutine()
	for round := 0; round < 50; round++ {
		func() {
			defer func() { recover() }()
			p.ForEach(16, func(i int) {
				if i%3 == 0 {
					panic("injected")
				}
			})
		}()
	}
	// Drain: a healthy pool still completes clean work afterwards.
	var hits [32]atomic.Int32
	p.ForEach(len(hits), func(i int) { hits[i].Add(1) })
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("post-panic ForEach missed index %d", i)
		}
	}
	time.Sleep(10 * time.Millisecond)
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Errorf("goroutines grew from %d to %d after 50 panicking jobs", before, after)
	}
}

// TestNestedForEach is the deadlock contract: a ForEach issued from
// inside another ForEach's task on the same pool — by the caller or by a
// helper — completes at every worker count, however busy the helpers
// are: the shape a shard batch has when its frame starts a training
// whose ensemble fit fans out. (A persistent pool once hung here at
// workers=2.) The soft barrier holds each outer task until all of them
// run at once (or 2 ms pass), so the nested calls are issued while every
// helper is busy.
func TestNestedForEach(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		p := New(workers)
		var two, three atomic.Int32
		barrier := func(started *atomic.Int32, n int32) {
			started.Add(1)
			for until := time.Now().Add(2 * time.Millisecond); started.Load() < n && time.Now().Before(until); {
				runtime.Gosched()
			}
		}
		const rounds = 40
		done := make(chan struct{})
		go func() {
			defer close(done)
			for round := 0; round < rounds; round++ {
				var started atomic.Int32
				p.ForEach(3, func(int) {
					barrier(&started, int32(min(workers, 3)))
					p.ForEach(2, func(int) { two.Add(1) })
				})
				started.Store(0)
				p.ForEach(4, func(int) {
					barrier(&started, int32(min(workers, 4)))
					p.ForEach(3, func(int) {
						p.ForEach(5, func(int) { three.Add(1) })
					})
				})
			}
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("workers=%d: nested ForEach deadlocked", workers)
		}
		if got := two.Load(); got != rounds*3*2 {
			t.Errorf("workers=%d: two-deep nest ran %d leaf tasks, want %d", workers, got, rounds*3*2)
		}
		if got := three.Load(); got != rounds*4*3*5 {
			t.Errorf("workers=%d: three-deep nest ran %d leaf tasks, want %d", workers, got, rounds*4*3*5)
		}
	}
}

// TestForEachSeededDeterministic is the contract the selection engine
// depends on: per-task draws are identical regardless of worker count.
func TestForEachSeededDeterministic(t *testing.T) {
	const n = 40
	draw := func(workers int) [n]float64 {
		var out [n]float64
		New(workers).ForEachSeeded(n, stats.NewRNG(99), func(i int, rng *stats.RNG) {
			// Consume a task-dependent number of draws to prove streams
			// are independent, then record the next one.
			for j := 0; j < i%5; j++ {
				rng.Float64()
			}
			out[i] = rng.Float64()
		})
		return out
	}
	serial := draw(1)
	for _, workers := range []int{2, 8, 32} {
		if got := draw(workers); got != serial {
			t.Fatalf("workers=%d: draws differ from serial", workers)
		}
	}
}

// TestForEachSeededScratchReuse checks the reseeded-scratch fast path
// against the original Split semantics: repeated fan-outs on one pool
// (children reused and reseeded) must see exactly the streams fresh
// Split children would, including when n shrinks between calls.
func TestForEachSeededScratchReuse(t *testing.T) {
	p := New(2)
	for _, n := range []int{16, 7, 16, 3} {
		parent := stats.NewRNG(42)
		want := make([]float64, n)
		for i := range want {
			want[i] = parent.Split().Float64()
		}
		got := make([]float64, n)
		p.ForEachSeeded(n, stats.NewRNG(42), func(i int, rng *stats.RNG) {
			got[i] = rng.Float64()
		})
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: task %d drew %v, Split reference drew %v", n, i, got[i], want[i])
			}
		}
	}
}
