package faults

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"videodrift/internal/stats"
	"videodrift/internal/vidsim"
)

// ErrInjected is the root of every error the harness injects; callers
// distinguish injected faults from real ones with errors.Is.
var ErrInjected = errors.New("faults: injected")

// PanicFault is the value an injected worker panic throws; the shard
// supervisor recovers it like any other panic and restarts the worker.
type PanicFault struct {
	Shard int
	Frame int
}

// Error satisfies error so recovered panic values format cleanly.
func (p PanicFault) Error() string {
	return fmt.Sprintf("faults: injected worker panic (shard %d, frame %d)", p.Shard, p.Frame)
}

// Stats counts the faults an injector has actually fired, by kind.
type Stats struct {
	Fired [kindCount]int
}

// Count returns the fired count for one kind.
func (s Stats) Count(k Kind) int {
	if int(k) < len(s.Fired) {
		return s.Fired[k]
	}
	return 0
}

// Total returns the total faults fired.
func (s Stats) Total() int {
	n := 0
	for _, c := range s.Fired {
		n += c
	}
	return n
}

// Injector replays a Schedule. All methods are safe on a nil receiver
// (no-ops), so wiring is unconditional, and safe for concurrent use by
// parallel shard workers. Replay determinism: corruption values derive
// only from (Schedule.Seed, shard, frame), never from call order across
// shards.
type Injector struct {
	sched Schedule

	mu         sync.Mutex
	at         map[[2]int][]*scheduledFault // (shard, frame) → its faults
	trained    map[int]int                  // shard → failed training attempts so far
	trainFired int                          // injected training failures across all shards
	stats      Stats

	sleep func(time.Duration) // test seam; nil means time.Sleep
}

type scheduledFault struct {
	Fault
	fired int
}

// NewInjector builds an injector over a schedule.
func NewInjector(s Schedule) *Injector {
	in := &Injector{
		sched:   s,
		at:      make(map[[2]int][]*scheduledFault, len(s.Faults)),
		trained: make(map[int]int),
	}
	for i := range s.Faults {
		f := s.Faults[i]
		key := [2]int{f.Shard, f.Frame}
		in.at[key] = append(in.at[key], &scheduledFault{Fault: f})
	}
	return in
}

// Stats returns the counts of faults fired so far.
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// SetSleeper replaces the stall sleeper (default time.Sleep). Chaos
// tests install a channel-blocking sleeper so stalls block workers for
// exactly as long as the test dictates, with no wall-clock waiting.
func (in *Injector) SetSleeper(sleep func(time.Duration)) {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.sleep = sleep
}

// frameRNG derives the corruption generator for one (shard, frame):
// a pure function of the schedule seed, independent of firing order.
func (in *Injector) frameRNG(shard, frame int) *stats.RNG {
	return stats.NewRNG(in.sched.Seed ^ int64(shard)*1_000_003 ^ int64(frame)*7_919)
}

// Apply runs the frame-level faults scheduled for (shard, frame) on f
// and returns the frames the monitor should actually receive: nil for a
// dropped frame, two entries for a duplicated one, a corrupted clone
// for pixel/dimension faults. The input frame is never mutated.
func (in *Injector) Apply(shard, frame int, f vidsim.Frame) []vidsim.Frame {
	if in == nil {
		return []vidsim.Frame{f}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := []vidsim.Frame{f}
	for _, sf := range in.at[[2]int{shard, frame}] {
		switch sf.Kind {
		case KindDropFrame:
			in.stats.Fired[KindDropFrame]++
			sf.fired++
			return nil
		case KindDuplicateFrame:
			in.stats.Fired[KindDuplicateFrame]++
			sf.fired++
			out = append(out, out[0])
		case KindNaNPixel, KindInfPixel, KindShortFrame, KindWrongDims:
			in.stats.Fired[sf.Kind]++
			sf.fired++
			out[0] = corruptFrame(out[0], sf.Kind, in.frameRNG(shard, frame))
		}
	}
	return out
}

// corruptFrame clones f and applies one corruption kind.
func corruptFrame(f vidsim.Frame, k Kind, r *stats.RNG) vidsim.Frame {
	px := append([]float64(nil), f.Pixels...)
	f.Pixels = px
	switch k {
	case KindNaNPixel:
		if len(px) > 0 {
			px[r.Intn(len(px))] = math.NaN()
		}
	case KindInfPixel:
		if len(px) > 0 {
			sign := 1.0
			if r.Float64() < 0.5 {
				sign = -1
			}
			px[r.Intn(len(px))] = math.Inf(int(sign))
		}
	case KindShortFrame:
		if len(px) > 1 {
			f.Pixels = px[:1+r.Intn(len(px)-1)]
		} else {
			f.Pixels = nil
		}
	case KindWrongDims:
		f.W = f.W + 1 + r.Intn(7)
	}
	return f
}

// BeforeProcess fires the worker-level faults scheduled for
// (shard, frame): a stall blocks the calling goroutine, a panic throws
// PanicFault. Each fault fires Times+1 times, so the supervisor's
// re-feed of the same frame after a restart hits it again exactly as
// scheduled — how crash loops are provoked deterministically.
func (in *Injector) BeforeProcess(shard, frame int) {
	if in == nil {
		return
	}
	in.mu.Lock()
	var panicking bool
	for _, sf := range in.at[[2]int{shard, frame}] {
		if sf.fired > sf.Times {
			continue
		}
		switch sf.Kind {
		case KindWorkerStall:
			sf.fired++
			in.stats.Fired[KindWorkerStall]++
			sleep := in.sleep
			if sleep == nil {
				sleep = time.Sleep
			}
			d := sf.Stall
			in.mu.Unlock()
			sleep(d)
			in.mu.Lock()
		case KindWorkerPanic:
			sf.fired++
			in.stats.Fired[KindWorkerPanic]++
			panicking = true
		}
	}
	in.mu.Unlock()
	if panicking {
		panic(PanicFault{Shard: shard, Frame: frame})
	}
}

// TrainFault returns the training fault hook for one shard, wired into
// core.PipelineConfig.TrainFault: the shard's first
// Schedule.TrainFailures attempts fail, later ones succeed.
func (in *Injector) TrainFault(shard int) func() error {
	if in == nil {
		return nil
	}
	return func() error {
		in.mu.Lock()
		defer in.mu.Unlock()
		if in.trained[shard] >= in.sched.TrainFailures {
			return nil
		}
		in.trained[shard]++
		in.trainFired++
		return fmt.Errorf("%w: training failure %d (shard %d)", ErrInjected, in.trained[shard], shard)
	}
}

// TrainingFailuresFired returns how many injected training failures
// have fired across all shards.
func (in *Injector) TrainingFailuresFired() int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.trainFired
}
