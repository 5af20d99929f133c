package store

import (
	"bytes"
	"encoding/gob"
	"hash/crc32"
	"math"
	"testing"

	"videodrift/internal/core"
	"videodrift/internal/forensics"
	"videodrift/internal/telemetry"
	"videodrift/internal/vidsim"
)

// legacyRecorderState is forensics.RecorderState as every build before
// the mark queue wrote it: two replay bases — Base before Ring[0], Mid
// Window frames later — and no marks. Checkpoints, -state-dirs and
// replication streams holding it outlive the upgrade.
type legacyRecorderState struct {
	Enabled      bool
	Window       int
	Keep         int
	Frame        int
	Ring         []vidsim.Frame
	Base         core.PipelineSnapshot
	BaseFrame    int
	Mid          core.PipelineSnapshot
	MidFrame     int
	HaveMid      bool
	Pending      bool
	Declarations []forensics.Declaration
}

// record is that build's Recorder.Record for a frame that declared
// nothing: at 2·Window frames the oldest Window go, Mid becomes Base and
// a new Mid is taken.
func (l *legacyRecorderState) record(pipe *core.Pipeline, f vidsim.Frame) {
	l.Frame++
	l.Ring = append(l.Ring, f)
	if w := l.Window; len(l.Ring) >= 2*w && l.HaveMid {
		l.Ring = append(l.Ring[:0], l.Ring[w:]...)
		l.Base, l.BaseFrame = l.Mid, l.MidFrame
		l.Mid, l.MidFrame = pipe.Snapshot(), l.Frame
	} else if len(l.Ring) == w {
		l.Mid, l.MidFrame, l.HaveMid = pipe.Snapshot(), l.Frame, true
	}
}

type legacyShardState struct {
	Registry    []int
	Pipeline    core.PipelineSnapshot
	Forensics   legacyRecorderState
	EventCounts []telemetry.KindCount
}

type legacyCheckpointRecord struct {
	CreatedUnixNano int64
	Frames          int64
	Gen             uint64
	Epoch           uint64
	Entries         [][]byte
	EntryCRCs       []uint32
	Shards          []legacyShardState
}

const (
	legacyWindow = 16
	legacyKeep   = 4
)

// legacyRecorderStream drifts day → night → day: two declarations, the
// first of them (frame 120) within a window of the legacy recorder's
// last rotation (frame 112), so it still replays from a legacy base.
func legacyRecorderStream() []vidsim.Frame {
	var frames []vidsim.Frame
	for i, cond := range []vidsim.Condition{vidsim.Day(), vidsim.Night(), vidsim.Day()} {
		frames = append(frames, vidsim.GenerateTrainingStride(testCond(cond), testW, testH, 100, 1, int64(70+i))...)
	}
	return frames
}

func legacyRecorderPipeline(t testing.TB) (*core.Pipeline, core.PipelineConfig) {
	day, night := getFixtures(t)
	cfg := core.DefaultPipelineConfig(testDim, classes)
	cfg.Selector = core.SelectorMSBI
	return core.NewPipeline(core.NewRegistry(day, night), testLabeler, cfg), cfg
}

// legacyRecorderCheckpoint is the one-shard checkpoint such a build
// wrote after the first cut frames of legacyRecorderStream, no drift
// declared yet, and its recorder state.
func legacyRecorderCheckpoint(t testing.TB, cut int) ([]byte, legacyRecorderState) {
	t.Helper()
	pipe, _ := legacyRecorderPipeline(t)
	rec := legacyRecorderState{Enabled: true, Window: legacyWindow, Keep: legacyKeep, Base: pipe.Snapshot()}
	for i, f := range legacyRecorderStream()[:cut] {
		if out := pipe.Process(f); out.Drift {
			t.Fatalf("drift declared at frame %d, before the cut at %d", i, cut)
		}
		rec.record(pipe, f)
	}
	cp := legacyCheckpointRecord{
		CreatedUnixNano: 1700000000000000000,
		Frames:          int64(cut),
		Shards:          []legacyShardState{{Registry: []int{0, 1}, Pipeline: pipe.Snapshot(), Forensics: rec}},
	}
	cp.Entries, cp.EntryCRCs = entryBlobs(t, pipe.Registry().Entries())
	return sealCheckpointRecord(t, cp), rec
}

// entryBlobs encodes a registry the way a checkpoint record carries it.
func entryBlobs(t testing.TB, entries []*core.ModelEntry) (blobs [][]byte, crcs []uint32) {
	t.Helper()
	for _, e := range entries {
		blob, err := encodeEntry(e)
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, blob)
		crcs = append(crcs, crc32.ChecksumIEEE(blob))
	}
	return blobs, crcs
}

// sealCheckpointRecord wraps an older build's checkpoint record in the
// envelope, which has not changed.
func sealCheckpointRecord(t testing.TB, rec any) []byte {
	t.Helper()
	out := bytes.NewBuffer(make([]byte, headerSize))
	if err := gob.NewEncoder(out).Encode(rec); err != nil {
		t.Fatal(err)
	}
	sealEnvelope(out.Bytes(), kindCheckpoint)
	return out.Bytes()
}

// sameEvidence reports whether two declarations are the same drift with
// the same evidence bits and the same resolution.
func sameEvidence(d, w forensics.Declaration) bool {
	return d.ID == w.ID && d.Frame == w.Frame && d.Model == w.Model && d.Lag == w.Lag && d.Sampled == w.Sampled &&
		math.Float64bits(d.Martingale) == math.Float64bits(w.Martingale) &&
		math.Float64bits(d.WindowDelta) == math.Float64bits(w.WindowDelta) &&
		math.Float64bits(d.MeanP) == math.Float64bits(w.MeanP) &&
		d.Resolved == w.Resolved && d.Resolution.Frame == w.Resolution.Frame && d.Resolution.Model == w.Resolution.Model
}

// TestRestoreLegacyRecorderState: a recorder state written before the
// mark queue restores and keeps recording. The checkpoint is cut three
// frames ahead of a drift, so the first declaration after it still
// replays from the legacy base; by the second the legacy bases have aged
// out and the recorder is where one that never stopped would be. Both
// equal the uninterrupted recorder's in identity and evidence, and
// replay bit-identically.
func TestRestoreLegacyRecorderState(t *testing.T) {
	frames := legacyRecorderStream()
	pipe, cfg := legacyRecorderPipeline(t)
	live := forensics.NewRecorder(forensics.Config{Enabled: true, Window: legacyWindow, Keep: legacyKeep}, nil, pipe)
	for _, f := range frames {
		live.Record(pipe, f, pipe.Process(f))
	}
	want := live.Declarations()
	if len(want) != 2 {
		t.Fatalf("uninterrupted run made %d declarations, want 2", len(want))
	}

	cut := want[0].Frame - 3
	blob, legacy := legacyRecorderCheckpoint(t, cut)
	if !legacy.HaveMid || legacy.MidFrame-legacy.BaseFrame != legacyWindow || len(legacy.Ring) <= legacyWindow {
		t.Fatalf("legacy state at the cut has no mid-ring base (base %d, mid %d, ring %d): the test restores nothing legacy",
			legacy.BaseFrame, legacy.MidFrame, len(legacy.Ring))
	}
	cp, err := Decode(blob)
	if err != nil {
		t.Fatalf("Decode of a checkpoint with a legacy recorder state: %v", err)
	}
	rec, err := forensics.Restore(cp.Shards[0].Forensics, nil)
	if err != nil {
		t.Fatalf("Restore of a legacy recorder state: %v", err)
	}
	pipe, err = core.RestorePipeline(core.NewRegistry(cp.Entries...), testLabeler, cfg, cp.Shards[0].Pipeline)
	if err != nil {
		t.Fatal(err)
	}
	if s := rec.State(); len(s.Marks) != 2 || s.Marks[0].Frame != legacy.BaseFrame || s.Marks[1].Frame != legacy.MidFrame || len(s.Ring) != len(legacy.Ring) {
		t.Fatalf("restored marks %v over %d frames, want the legacy base %d and mid %d over %d", s.Marks, len(s.Ring), legacy.BaseFrame, legacy.MidFrame, len(legacy.Ring))
	}
	for _, f := range frames[cut:] {
		rec.Record(pipe, f, pipe.Process(f))
		if s := rec.State(); len(s.Ring) > 2*legacyWindow {
			t.Fatalf("frame %d: ring holds %d frames, above 2·%d", s.Frame-1, len(s.Ring), legacyWindow)
		}
	}

	got := rec.Declarations()
	if len(got) != len(want) {
		t.Fatalf("restored recorder made %d declarations, the uninterrupted one %d", len(got), len(want))
	}
	for i, d := range got {
		w := want[i]
		if !sameEvidence(d, w) {
			t.Errorf("declaration %d: restored %s@%d S=%v Δ=%v → %+v, uninterrupted %s@%d S=%v Δ=%v → %+v",
				i, d.ID, d.Frame, d.Martingale, d.WindowDelta, d.Resolution, w.ID, w.Frame, w.Martingale, w.WindowDelta, w.Resolution)
		}
		if res, err := forensics.Replay(cp.Entries, cfg, d); err != nil || !res.Matches {
			t.Errorf("declaration %d (%s, %d frames from %d): replay matches=%v, err=%v", i, d.ID, len(d.Frames), d.BaseFrame, res.Matches, err)
		}
	}
	// The first still hangs off the legacy base; the second is the
	// uninterrupted recorder's, pre-roll included.
	if d := got[0]; d.BaseFrame != legacy.BaseFrame || len(d.Frames) < legacyWindow || len(d.Frames) >= 2*legacyWindow {
		t.Errorf("first declaration replays %d frames from %d, want [%d, %d) frames from the legacy base %d",
			len(d.Frames), d.BaseFrame, legacyWindow, 2*legacyWindow, legacy.BaseFrame)
	}
	if d, w := got[1], want[1]; d.BaseFrame != w.BaseFrame || len(d.Frames) != len(w.Frames) {
		t.Errorf("second declaration replays %d frames from %d, the uninterrupted one %d from %d",
			len(d.Frames), d.BaseFrame, len(w.Frames), w.BaseFrame)
	}
}
