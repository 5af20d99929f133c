package store

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"videodrift/internal/core"
	"videodrift/internal/forensics"
	"videodrift/internal/telemetry"
	"videodrift/internal/vidsim"
)

// denseRecorderState and denseDeclaration are forensics.RecorderState and
// forensics.Declaration as the last build before the recorder skipped
// what the inspector's stride skipped wrote them: every pre-roll frame in
// Ring and Frames, and no At to say which stream frame each is.
type denseRecorderState struct {
	Enabled      bool
	Window       int
	Keep         int
	Frame        int
	Ring         []vidsim.Frame
	Marks        []forensics.Mark
	Pending      bool
	Declarations []denseDeclaration
}

type denseDeclaration struct {
	ID          string
	Frame       int
	Model       string
	Lag         int
	Sampled     int
	Martingale  float64
	WindowDelta float64
	MeanP       float64
	Attribution []telemetry.DimShift
	BaseFrame   int
	Base        core.PipelineSnapshot
	Frames      []vidsim.Frame
	Resolved    bool
	Resolution  forensics.Resolution
}

// densify is what that build's recorder held where this one holds s: the
// marks, the evidence and the resolutions are the same — neither build
// reads a frame to place them — and the frame lists are the stream's,
// whole.
func densify(t testing.TB, s forensics.RecorderState, stream []vidsim.Frame) denseRecorderState {
	t.Helper()
	if s.Pending {
		t.Fatal("densify: the pre-roll is suspended; cut while the pipeline is monitoring")
	}
	out := denseRecorderState{
		Enabled: s.Enabled, Window: s.Window, Keep: s.Keep, Frame: s.Frame,
		Ring: stream[s.Marks[0].Frame:s.Frame], Marks: s.Marks,
	}
	for _, d := range s.Declarations {
		out.Declarations = append(out.Declarations, denseDeclaration{
			ID: d.ID, Frame: d.Frame, Model: d.Model, Lag: d.Lag, Sampled: d.Sampled,
			Martingale: d.Martingale, WindowDelta: d.WindowDelta, MeanP: d.MeanP, Attribution: d.Attribution,
			BaseFrame: d.BaseFrame, Base: d.Base, Frames: stream[d.BaseFrame : d.Frame+1],
			Resolved: d.Resolved, Resolution: d.Resolution,
		})
	}
	return out
}

const (
	denseWindow = 16
	denseKeep   = 2
	// denseCut is where the dense checkpoint is cut: the first declaration
	// of denseRecorderStream (frame 130) resolved, the second (231) ahead.
	denseCut = 201
)

// denseRecorderStream drifts day → night → day → night: three
// declarations, so with denseKeep the first is evicted by the third.
func denseRecorderStream() []vidsim.Frame {
	var frames []vidsim.Frame
	for i, cond := range []vidsim.Condition{vidsim.Day(), vidsim.Night(), vidsim.Day(), vidsim.Night()} {
		frames = append(frames, vidsim.GenerateTrainingStride(testCond(cond), testW, testH, 100, 1, int64(170+i))...)
	}
	return frames
}

// denseRecorderCheckpoint is the one-shard checkpoint such a build wrote
// after the first cut frames of denseRecorderStream, and the recorder
// state of this build at the same frame.
func denseRecorderCheckpoint(t testing.TB, cut int) ([]byte, forensics.RecorderState) {
	t.Helper()
	type shardState struct {
		Registry    []int
		Pipeline    core.PipelineSnapshot
		Forensics   denseRecorderState
		EventCounts []telemetry.KindCount
	}
	type checkpointRecord struct {
		CreatedUnixNano int64
		Frames          int64
		Gen             uint64
		Epoch           uint64
		Entries         [][]byte
		EntryCRCs       []uint32
		Shards          []shardState
	}
	frames := denseRecorderStream()
	pipe, _ := legacyRecorderPipeline(t)
	rec := forensics.NewRecorder(forensics.Config{Enabled: true, Window: denseWindow, Keep: denseKeep}, nil, pipe)
	for _, f := range frames[:cut] {
		rec.Record(pipe, f, pipe.Process(f))
	}
	sparse := rec.State()
	cp := checkpointRecord{
		CreatedUnixNano: 1700000000000000000,
		Frames:          int64(cut),
		Gen:             1,
		Shards:          []shardState{{Registry: []int{0, 1}, Pipeline: pipe.Snapshot(), Forensics: densify(t, sparse, frames)}},
	}
	cp.Entries, cp.EntryCRCs = entryBlobs(t, pipe.Registry().Entries())
	return sealCheckpointRecord(t, cp), sparse
}

// denseGenerations is that checkpoint as a base to diff against and the
// generation this build makes of it by restoring its recorder: the same
// frames, At beside them.
func denseGenerations(t testing.TB) (blob []byte, base *Checkpoint, crcs []uint32, next *Checkpoint) {
	t.Helper()
	blob, _ = denseRecorderCheckpoint(t, denseCut)
	base, crcs, err := DecodeWithCRCs(blob)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := forensics.Restore(base.Shards[0].Forensics, nil)
	if err != nil {
		t.Fatal(err)
	}
	sh := base.Shards[0]
	sh.Forensics = rec.State()
	next = &Checkpoint{CreatedUnixNano: base.CreatedUnixNano + 1, Frames: base.Frames, Gen: 2, Entries: base.Entries, Shards: []ShardState{sh}}
	return blob, base, crcs, next
}

// TestRestoreDenseRecorderState: a checkpoint the last build wrote —
// every pre-roll frame in the ring and in the declaration it retains, no
// At — decodes, restores and keeps recording. The declaration it carried
// replays from its dense frames for as long as Keep retains it; the ring
// is the uninterrupted recorder's, sparse, a window and a mark step later;
// the declarations made from then on are the uninterrupted recorder's,
// kept frames included; and a delta built off the dense base carries the
// handful of frames kept since and applies back onto it.
func TestRestoreDenseRecorderState(t *testing.T) {
	frames := denseRecorderStream()
	pipe, cfg := legacyRecorderPipeline(t)
	live := forensics.NewRecorder(forensics.Config{Enabled: true, Window: denseWindow, Keep: 3}, nil, pipe)
	liveAt := make([][]int, len(frames)) // the uninterrupted ring's At after each frame
	for i, f := range frames {
		live.Record(pipe, f, pipe.Process(f))
		liveAt[i] = live.State().At
	}
	want := live.Declarations()
	if len(want) != 3 {
		t.Fatalf("uninterrupted run made %d declarations, want 3", len(want))
	}

	const cut = denseCut
	settled := cut + denseWindow + denseWindow/8
	if want[0].Resolution.Frame >= cut || settled >= want[1].Frame {
		t.Fatalf("fixture: declarations at %d (resolved at %d) and %d; the cut at %d must fall between them, %d frames clear of the second",
			want[0].Frame, want[0].Resolution.Frame, want[1].Frame, cut, settled-cut)
	}
	blob, sparse := denseRecorderCheckpoint(t, cut)
	if len(sparse.Declarations) != 1 || !sparse.Declarations[0].Resolved || len(sparse.Ring) >= denseWindow/2 {
		t.Fatalf("fixture: at the cut this build retains %d declarations and %d ring frames; want one resolved declaration and a sparse ring",
			len(sparse.Declarations), len(sparse.Ring))
	}
	base, crcs, err := DecodeWithCRCs(blob)
	if err != nil {
		t.Fatalf("Decode of a checkpoint with a dense recorder state: %v", err)
	}
	dense := base.Shards[0].Forensics
	span := dense.Frame - dense.Marks[0].Frame
	if dense.At != nil || len(dense.Ring) != span || span < denseWindow-1 ||
		dense.Declarations[0].At != nil || len(dense.Declarations[0].Frames) < denseWindow {
		t.Fatalf("fixture: decoded state has %d ring frames (At %v) over a span of %d and a declaration of %d frames (At %v): nothing dense to restore",
			len(dense.Ring), dense.At, span, len(dense.Declarations[0].Frames), dense.Declarations[0].At)
	}
	// drifttool inspect tells the two layouts apart at a glance.
	inspect := func(data []byte) ShardInfo {
		t.Helper()
		path := filepath.Join(t.TempDir(), "cp")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		desc, err := Inspect(path)
		if err != nil {
			t.Fatal(err)
		}
		return desc.Shards[0]
	}
	if in := inspect(blob); in.PreRollKept != span || in.PreRollSpan != span {
		t.Errorf("inspect reads the dense pre-roll as %d/%d, want %d/%d", in.PreRollKept, in.PreRollSpan, span, span)
	}
	rec, err := forensics.Restore(dense, nil)
	if err != nil {
		t.Fatalf("Restore of a dense recorder state: %v", err)
	}
	pipe, err = core.RestorePipeline(core.NewRegistry(base.Entries...), testLabeler, cfg, base.Shards[0].Pipeline)
	if err != nil {
		t.Fatal(err)
	}
	if s := rec.State(); len(s.At) != span || s.At[0] != dense.Marks[0].Frame || s.At[span-1] != dense.Frame-1 {
		t.Fatalf("restored ring of %d frames is at %v, want every frame of [%d, %d)", len(s.Ring), s.At, dense.Marks[0].Frame, dense.Frame)
	}
	replays := func(when string) {
		t.Helper()
		for _, d := range rec.Declarations() {
			if res, err := forensics.Replay(pipe.Registry().Entries(), cfg, d); err != nil || !res.Matches {
				t.Errorf("%s: %s (%d frames from %d, At %v): replay matches=%v, err=%v", when, d.ID, len(d.Frames), d.BaseFrame, d.At, res.Matches, err)
			}
		}
	}
	replays("at the cut")

	for i := cut; i < len(frames); i++ {
		out := pipe.Process(frames[i])
		rec.Record(pipe, frames[i], out)
		s := rec.State()
		if i >= settled && !slices.Equal(s.At, liveAt[i]) {
			t.Fatalf("frame %d, %d after the cut: ring at %v, the uninterrupted recorder's at %v", i, i-cut, s.At, liveAt[i])
		}
		if out.Drift {
			replays("after " + telemetry.DriftID(i))
		}
		if i == settled {
			// A delta off the dense base: what was kept since travels, the
			// dense frames the ring dropped do not come back.
			next := &Checkpoint{
				CreatedUnixNano: base.CreatedUnixNano + 1, Frames: int64(s.Frame), Gen: 2, Entries: base.Entries,
				Shards: []ShardState{{Registry: base.Shards[0].Registry, Pipeline: pipe.Snapshot(), Forensics: s}},
			}
			d, _, err := DiffCheckpoints(base, crcs, next)
			if err != nil {
				t.Fatalf("delta off the dense base: %v", err)
			}
			if len(d.NewFrames) != len(s.Ring) || len(s.Ring) > denseWindow/2 {
				t.Errorf("delta carries %d new frames for a ring of %d kept since the cut", len(d.NewFrames), len(s.Ring))
			}
			wire, err := EncodeDelta(d)
			if err != nil {
				t.Fatal(err)
			}
			if d, err = DecodeDelta(wire); err != nil {
				t.Fatal(err)
			}
			applied, _, err := ApplyDelta(base, crcs, d)
			if err != nil {
				t.Fatalf("applying the delta onto the dense base: %v", err)
			}
			got, _ := Encode(applied)
			if want, _ := Encode(next); !bytes.Equal(got, want) {
				t.Error("dense base + delta differs from the generation the delta was cut from")
			}
			if in := inspect(got); in.PreRollKept != len(s.Ring) || in.PreRollSpan != s.Frame-s.Marks[0].Frame || in.PreRollSpan < denseWindow-1 {
				t.Errorf("inspect reads the sparse pre-roll as %d/%d, want %d/%d", in.PreRollKept, in.PreRollSpan, len(s.Ring), s.Frame-s.Marks[0].Frame)
			}
		}
	}

	got := rec.Declarations()
	if len(got) != denseKeep || got[0].ID != want[1].ID {
		t.Fatalf("restored recorder retains %d declarations from %s, want the last %d of the uninterrupted run", len(got), got[0].ID, denseKeep)
	}
	for i, d := range got {
		if w := want[i+1]; !sameEvidence(d, w) || d.BaseFrame != w.BaseFrame || !slices.Equal(d.At, w.At) {
			t.Errorf("declaration %s@%d S=%v Δ=%v from %d at %v → %+v, uninterrupted %s@%d S=%v Δ=%v from %d at %v → %+v",
				d.ID, d.Frame, d.Martingale, d.WindowDelta, d.BaseFrame, d.At, d.Resolution,
				w.ID, w.Frame, w.Martingale, w.WindowDelta, w.BaseFrame, w.At, w.Resolution)
		}
	}
}
