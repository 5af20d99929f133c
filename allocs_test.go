package videodrift

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"videodrift/internal/vidsim"
)

// TestMonitorSteadyStateAllocs is the fleet's allocation gate, set up as
// driftserve runs it: MSBI over the lean models, a tracer per shard, one
// worker, frames without ground truth (what the wire delivers), fed the
// way the router's pump feeds it — one ProcessBatchesInto call a round
// into reused events, at batch 1 and 8 — and an in-distribution stream at
// a significance the martingale cannot reach, so every round is a
// monitoring round. Each round (a frame per shard, or eight) is measured
// on its own. Without forensics a round allocates nothing:
// classification, featurization, kNN, martingale, the supervisor's
// snapshot and the events all run in reused storage. With forensics what
// a round allocates is what the
// recorders keep: a copy of each frame the inspector read (one object,
// 8·W·H bytes) and, on the frames a replay mark falls on, a pipeline
// snapshot (the martingale's ring and, when it moved, the attribution
// window: three objects at most) — so a round on which no recorder kept a
// frame or took a mark allocates nothing either.
func TestMonitorSteadyStateAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates on its own")
	}
	stream := vidsim.GenerateTrainingStride(facadeCond(vidsim.Day()), 16, 16, 400, 1, 91)
	for i := range stream {
		stream[i].Truth = nil
	}
	for _, forensics := range []bool{false, true} {
		for _, shards := range []int{1, 2} {
			for _, batch := range []int{1, 8} {
				t.Run(fmt.Sprintf("forensics=%v/shards=%d/batch=%d", forensics, shards, batch), func(t *testing.T) {
					testMonitorSteadyStateAllocs(t, stream, forensics, shards, batch)
				})
			}
		}
	}
}

func testMonitorSteadyStateAllocs(t *testing.T, stream []Frame, forensics bool, shards, batch int) {
	opts := Defaults(facadeDim, facadeClasses)
	opts.Pipeline.Selector = MSBI
	opts.Pipeline.DI.R = 1e-9
	opts.Forensics.Enabled = forensics
	tracers := make([]*Tracer, shards)
	for i := range tracers {
		tracers[i] = NewTracer(TracerConfig{})
	}
	sm := NewShardedMonitor(getLeanCkptModels(), facadeLabeler, ShardedOptions{
		Options: opts, Shards: shards, Workers: 1, Tracers: tracers,
	})
	batches := make([][]Frame, shards)
	var events [][]Event
	at := 0
	round := func() {
		for s := range batches {
			batches[s] = batches[s][:0]
			for k := 0; k < batch; k++ {
				batches[s] = append(batches[s], stream[(at+k+37*s)%len(stream)])
			}
		}
		at += batch
		var err error
		if events, err = sm.ProcessBatchesInto(batches, events); err != nil {
			t.Fatal(err)
		}
	}
	// The collector stays off while rounds are counted: a cycle starting
	// inside one allocates on the runtime's behalf. Then past every
	// warm-up: the attribution window full (64 sampled frames), the
	// pre-roll and mark queue at their steady length.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for at < 1000 {
		round()
	}
	// A round allocating on the runtime's behalf is rare and random (one
	// in a thousand); one allocating on the fleet's does it every time. A
	// pass of 200 rounds fails at its first violation; three passes in a
	// row must fail for the test to.
	var fail string
	for pass := 0; pass < 3; pass++ {
		if fail = countRounds(sm, shards, batch, forensics, round); fail == "" {
			return
		}
		t.Logf("pass %d: %s", pass, fail)
	}
	t.Error(fail)
}

// countRounds measures 200 rounds one by one and reports the first that
// allocated beyond what its recorders kept ("" when none did).
func countRounds(sm *ShardedMonitor, shards, batch int, forensics bool, round func()) string {
	var before, after runtime.MemStats
	zero := 0
	for r := 0; r < 200; r++ {
		last := recorderHeads(sm, shards)
		runtime.ReadMemStats(&before)
		round()
		runtime.ReadMemStats(&after)
		kept, marked := recordedSince(sm, last)
		objs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		switch {
		case !forensics && objs != 0:
			return fmt.Sprintf("round %d allocated %d objects, %d B without a recorder, want none", r, objs, bytes)
		case int(objs) > kept+3*marked:
			return fmt.Sprintf("round %d allocated %d objects, %d B; its recorders kept %d frames and took %d marks: want at most %d",
				r, objs, bytes, kept, marked, kept+3*marked)
		case marked == 0 && bytes > uint64(kept*(8*facadeDim+64)):
			return fmt.Sprintf("round %d allocated %d B for %d kept frames of %d B", r, bytes, kept, 8*facadeDim)
		}
		if objs == 0 {
			zero++
		}
	}
	if zero == 0 && (!forensics || batch == 1) {
		return "no round allocated nothing" // at batch 8 every round takes a mark
	}
	return ""
}

// recorderHead is where a shard's recorder stands: the stream frame of
// the last frame it kept and of its newest mark.
type recorderHead struct{ kept, mark int }

// recorderHeads reads every shard's recorder head (State copies: read it
// outside a measurement).
func recorderHeads(sm *ShardedMonitor, shards int) []recorderHead {
	heads := make([]recorderHead, shards)
	for s := range heads {
		st := sm.Shard(s).Forensics().State()
		heads[s] = recorderHead{kept: -1, mark: -1}
		if len(st.At) > 0 {
			heads[s].kept = st.At[len(st.At)-1]
		}
		if len(st.Marks) > 0 {
			heads[s].mark = st.Marks[len(st.Marks)-1].Frame
		}
	}
	return heads
}

// recordedSince counts, over the shards, the frames the recorders kept
// and the marks they took past the given heads.
func recordedSince(sm *ShardedMonitor, heads []recorderHead) (kept, marks int) {
	for s, h := range heads {
		st := sm.Shard(s).Forensics().State()
		for _, a := range st.At {
			if a > h.kept {
				kept++
			}
		}
		for _, m := range st.Marks {
			if m.Frame > h.mark {
				marks++
			}
		}
	}
	return kept, marks
}
