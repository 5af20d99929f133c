package videodrift

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"videodrift/internal/store"
	"videodrift/internal/vidsim"
)

var (
	ckptOnce, leanOnce         sync.Once
	ckptModels, leanCkptModels []*Model
)

func buildCkptModels(sel Selector) []*Model {
	opts := Defaults(facadeDim, facadeClasses)
	opts.Provision = opts.Provision.For(sel)
	return []*Model{
		BuildModel("day", facadeFrames(facadeCond(vidsim.Day()), 200, 41), facadeLabeler, opts),
		BuildModel("night", facadeFrames(facadeCond(vidsim.Night()), 200, 42), facadeLabeler, opts),
	}
}

// getCkptModels provisions the shared day/night pair once for all
// checkpoint tests.
func getCkptModels() []*Model {
	ckptOnce.Do(func() { ckptModels = buildCkptModels(MSBO) })
	return ckptModels
}

// getLeanCkptModels is the same pair as an MSBI deployment provisions it
// (driftserve -selector msbi, the fleet the benchmark runs): no MSBO
// ensembles. Only MSBI monitors can run over it.
func getLeanCkptModels() []*Model {
	leanOnce.Do(func() { leanCkptModels = buildCkptModels(MSBI) })
	return leanCkptModels
}

// driftStream builds a per-shard live stream that starts in-distribution
// (day) and drifts to night at the given offset.
func driftStream(total, driftAt int, seed int64) []Frame {
	return append(
		vidsim.GenerateTrainingStride(facadeCond(vidsim.Day()), 16, 16, driftAt, 1, seed),
		vidsim.GenerateTrainingStride(facadeCond(vidsim.Night()), 16, 16, total-driftAt, 1, seed+1000)...)
}

// mustBatch feeds one frame per shard; a batch-shape error is a fixture
// bug in these fixed-fleet tests, so it panics.
func mustBatch(sm *ShardedMonitor, frames []Frame) []Event {
	batches := make([][]Frame, len(frames))
	for i := range frames {
		batches[i] = frames[i : i+1 : i+1]
	}
	evs := make([]Event, len(frames))
	for i, ev := range mustBatches(sm, batches) {
		evs[i] = ev[0]
	}
	return evs
}

// mustBatches is mustBatch for per-shard micro-batches.
func mustBatches(sm *ShardedMonitor, batches [][]Frame) [][]Event {
	evs, err := sm.ProcessBatches(batches)
	if err != nil {
		panic(err)
	}
	return evs
}

// runBatches feeds streams[s][from:to] to shard s and collects the
// per-shard events.
func runBatches(sm *ShardedMonitor, streams [][]Frame, from, to int) [][]Event {
	out := make([][]Event, len(streams))
	batch := make([]Frame, len(streams))
	for step := from; step < to; step++ {
		for s := range streams {
			batch[s] = streams[s][step]
		}
		for s, ev := range mustBatch(sm, batch) {
			out[s] = append(out[s], ev)
		}
	}
	return out
}

// TestMonitorCheckpointResume covers the single-stream facade path
// (Monitor.Checkpoint / Resume) including an encode round-trip.
func TestMonitorCheckpointResume(t *testing.T) {
	models := getCkptModels()
	opts := Defaults(facadeDim, facadeClasses)
	stream := driftStream(200, 80, 500)
	label := truthOracle(t, stream)

	ref := NewMonitor(models, label, opts)
	var want []Event
	for _, f := range stream {
		want = append(want, ref.Process(f))
	}

	m := NewMonitor(models, label, opts)
	var got []Event
	const cut = 90
	for _, f := range stream[:cut] {
		got = append(got, m.Process(f))
	}
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	path, err := st.Save(m.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := Resume(cp, label, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range stream[cut:] {
		got = append(got, resumed.Process(f))
	}

	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("frame %d: resumed event %+v, uninterrupted %+v", i, got[i], want[i])
		}
	}
	if resumed.Current() != ref.Current() {
		t.Errorf("resumed deployed %q, uninterrupted %q", resumed.Current(), ref.Current())
	}
	if a, b := resumed.Stats(), ref.Stats(); a != b {
		t.Errorf("resumed stats %+v, uninterrupted %+v", a, b)
	}
	if ref.Stats().DriftsDetected == 0 {
		t.Error("reference run never drifted; the test exercised nothing")
	}

	// A sharded checkpoint must refuse the single-stream Resume.
	smCp := fixedFleet(models, facadeLabeler, ShardedOptions{Options: opts}, 2).Checkpoint()
	if _, err := Resume(smCp, facadeLabeler, opts); err == nil {
		t.Error("Resume accepted a 2-shard checkpoint")
	}
}

// TestCheckpointAnyTime pins the capture rule driftserve relies on: a
// goroutine may call ShardedMonitor.Checkpoint whenever it likes, with
// no handshake with the feed. Every capture lands on a batch boundary
// (all shards at the same frame here, since the feed is lockstep), the
// captures do not disturb the run, and a fleet resumed from a mid-run
// capture finishes the stream bit-identically to the uninterrupted run.
func TestCheckpointAnyTime(t *testing.T) {
	models := getCkptModels()
	const shards, total, resumes = 4, 200, 12
	opts := Defaults(facadeDim, facadeClasses)
	opts.Pipeline.Selector = MSBI
	opts.Forensics = ForensicsConfig{Enabled: true}
	sopts := ShardedOptions{Options: opts, Workers: 2}
	streams := make([][]Frame, shards)
	for s := range streams {
		streams[s] = driftStream(total, 60+25*s, int64(300+10*s))
	}
	want := runBatches(fixedFleet(models, facadeLabeler, sopts, shards), streams, 0, total)

	live := fixedFleet(models, facadeLabeler, sopts, shards)
	stop := make(chan struct{})
	stopped := make(chan struct{})
	var captures atomic.Int64
	var kept []*Checkpoint // one per distinct stream position
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			cp := live.Checkpoint()
			n := captures.Add(1)
			for s, sh := range cp.Shards {
				if f := int64(sh.Pipeline.Metrics.Frames); f != cp.Frames {
					t.Errorf("capture %d is torn: shard %d at frame %d, the checkpoint at %d", n, s, f, cp.Frames)
				}
			}
			if len(kept) == 0 || kept[len(kept)-1].Frames != cp.Frames {
				kept = append(kept, cp)
			}
			runtime.Gosched()
		}
	}()
	// Both sides yield between calls so that on one processor the two
	// still interleave per batch instead of per 10 ms preemption. At
	// `resumes` gates spread over the run the feed also waits for the
	// counter to move twice — a capture that began while it waits — so the
	// floor of distinct mid-run positions holds however the scheduler runs
	// the two; between gates captures land wherever they do.
	got, gate := make([][]Event, shards), 1
	for step := 0; step < total; step++ {
		if gate <= resumes && step == gate*total/(resumes+1) {
			for at := captures.Load(); captures.Load() < at+2; {
				runtime.Gosched()
			}
			gate++
		}
		for s, evs := range runBatches(live, streams, step, step+1) {
			got[s] = append(got[s], evs...)
		}
		runtime.Gosched()
	}
	close(stop)
	<-stopped
	for s := range want {
		for step := range want[s] {
			if got[s][step] != want[s][step] {
				t.Fatalf("shard %d frame %d: event %+v under concurrent captures, %+v without", s, step, got[s][step], want[s][step])
			}
		}
	}

	var mid []*Checkpoint
	for _, cp := range kept {
		if cp.Frames > 0 && cp.Frames < total {
			mid = append(mid, cp)
		}
	}
	t.Logf("%d captures, %d distinct mid-run positions", captures.Load(), len(mid))
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(mid) < resumes {
		t.Fatalf("only %d mid-run captures at distinct positions; the capture goroutine was starved", len(mid))
	}
	for k := 0; k < resumes; k++ {
		// Through the on-disk codec, so the resumed fleet shares nothing
		// with the live one.
		path, err := st.Save(mid[k*len(mid)/resumes])
		if err != nil {
			t.Fatal(err)
		}
		cp, err := LoadCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		resumed, err := ResumeSharded(cp, facadeLabeler, sopts)
		if err != nil {
			t.Fatalf("resuming the capture at frame %d: %v", cp.Frames, err)
		}
		cut := int(cp.Frames)
		for s, evs := range runBatches(resumed, streams, cut, total) {
			for j, ev := range evs {
				if ev != want[s][cut+j] {
					t.Fatalf("capture at frame %d, shard %d frame %d: resumed event %+v, uninterrupted %+v", cut, s, cut+j, ev, want[s][cut+j])
				}
			}
		}
	}
}

// keptFrames names every frame list a checkpointed shard holds: the
// selection/training buffer, the forensics pre-roll, each mark's buffer,
// and each retained declaration's replay base and frames.
func keptFrames(cp *Checkpoint) map[string][]vidsim.Held {
	lists := map[string][]vidsim.Held{}
	for i, sh := range cp.Shards {
		lists[fmt.Sprintf("shard %d buffer", i)] = sh.Pipeline.Buffer
		lists[fmt.Sprintf("shard %d pre-roll", i)] = sh.Forensics.Ring
		for j, m := range sh.Forensics.Marks {
			lists[fmt.Sprintf("shard %d mark %d buffer", i, j)] = m.Snap.Buffer
		}
		for _, d := range sh.Forensics.Declarations {
			lists[fmt.Sprintf("shard %d %s base", i, d.ID)] = d.Base.Buffer
			lists[fmt.Sprintf("shard %d %s frames", i, d.ID)] = d.Frames
		}
	}
	return lists
}

// TestCheckpointKeepsPositionAndPixels holds every frame a checkpoint
// carries to what a holder keeps of a frame — its position and pixels,
// bit for bit (a vidsim.Held has no field for the generator's ground
// truth or condition label) — through a drift, the selection that finds
// no model and the training window after it, and holds the checkpoint
// file's frames to the captured ones.
func TestCheckpointKeepsPositionAndPixels(t *testing.T) {
	models := getCkptModels()[:1] // day only: the night drift trains a model
	opts := Defaults(facadeDim, facadeClasses)
	opts.Pipeline.Selector = MSBI
	opts.Forensics = ForensicsConfig{Enabled: true}
	const total = 420
	streams := [][]Frame{driftStream(total, 60, 1300), driftStream(total, 90, 1310)}
	sm := fixedFleet(models, truthOracle(t, streams...), ShardedOptions{Options: opts}, len(streams))
	// The streams' frames by their pixel bits: a held frame must be one of
	// them, at its index and geometry.
	bitsOf := func(px []float64) string {
		b := make([]byte, 0, 8*len(px))
		for _, v := range px {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return string(b)
	}
	fed := map[string]Frame{}
	for _, stream := range streams {
		for _, f := range stream {
			fed[bitsOf(f.Pixels)] = f
		}
	}
	var buffered, training, declared bool
	var px []float64
	for step := 0; step < total; step += 15 {
		runBatches(sm, streams, step, min(step+15, total))
		cp := sm.Checkpoint()
		lists := keptFrames(cp)
		for name, frames := range lists {
			for _, h := range frames {
				px = h.PixelsInto(px)
				if src, ok := fed[bitsOf(px)]; !ok || h.Index != src.Index || h.W != src.W || h.H != src.H {
					t.Fatalf("step %d: %s keeps frame %d, which is no frame of its stream bit for bit", step, name, h.Index)
				}
			}
		}
		for _, sh := range cp.Shards {
			buffered = buffered || len(sh.Pipeline.Buffer) > 0
			training = training || sh.Pipeline.State == 2 && len(sh.Pipeline.Buffer) > 0
			declared = declared || len(sh.Forensics.Declarations) > 0
		}
		b, err := store.Encode(cp)
		if err != nil {
			t.Fatal(err)
		}
		back, err := store.Decode(b)
		if err != nil {
			t.Fatal(err)
		}
		decoded := keptFrames(back)
		if len(decoded) != len(lists) {
			t.Fatalf("step %d: the file holds %d frame lists, the capture %d", step, len(decoded), len(lists))
		}
		for name, frames := range lists {
			if got := decoded[name]; len(got) != len(frames) || len(got) > 0 && !reflect.DeepEqual(got, frames) {
				t.Fatalf("step %d: %s decodes to %d frames unlike the %d captured", step, name, len(got), len(frames))
			}
		}
	}
	if !buffered || !training || !declared {
		t.Fatalf("fixture: buffered %v, training %v, declared %v; the run never reached every holder", buffered, training, declared)
	}
}
