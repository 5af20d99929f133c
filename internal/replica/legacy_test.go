package replica

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"hash/crc32"
	"testing"

	"videodrift/internal/classifier"
	"videodrift/internal/core"
	"videodrift/internal/forensics"
	"videodrift/internal/store"
	"videodrift/internal/tensor"
	"videodrift/internal/vidsim"
)

// legacyFull rewrites a store envelope the way builds up to PR 20 wrote
// it: every entry blob also carries Σ_{T_i} in pixel space (the Samples
// field the entry has since lost). The two records mirror store's wire
// forms field for field; internal/store's TestDecodeLegacyEntryBlob holds
// the codec itself to the same blobs.
func legacyFull(t *testing.T, envelope []byte) []byte {
	t.Helper()
	type entryRecord struct {
		Name        string
		W, H        int
		VAE         []byte
		Samples     []tensor.Vector
		SampleFeats []tensor.Vector
		CalibRaw    []float64
		Classifier  []byte
		Ensemble    []byte
		QueryFn     string
		CalibSample []classifier.Sample
	}
	type checkpointRecord struct {
		CreatedUnixNano int64
		Frames          int64
		Gen             uint64
		Epoch           uint64
		Entries         [][]byte
		EntryCRCs       []uint32
		Shards          []store.ShardState
	}
	const headerSize = 20 // magic, version, kind, payload length, payload CRC
	var rec checkpointRecord
	if err := gob.NewDecoder(bytes.NewReader(envelope[headerSize:])).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	for i, blob := range rec.Entries {
		var er entryRecord
		if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&er); err != nil {
			t.Fatal(err)
		}
		for range er.SampleFeats {
			er.Samples = append(er.Samples, make(tensor.Vector, er.W*er.H))
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(er); err != nil {
			t.Fatal(err)
		}
		rec.Entries[i] = buf.Bytes()
		rec.EntryCRCs[i] = crc32.ChecksumIEEE(buf.Bytes())
	}
	out := bytes.NewBuffer(append([]byte(nil), envelope[:headerSize]...))
	if err := gob.NewEncoder(out).Encode(rec); err != nil {
		t.Fatal(err)
	}
	env := out.Bytes()
	binary.LittleEndian.PutUint64(env[8:16], uint64(len(env)-headerSize))
	binary.LittleEndian.PutUint32(env[16:20], crc32.ChecksumIEEE(env[headerSize:]))
	return env
}

// TestStandbyAcrossUpgrade: a standby of this build under a primary of
// the last one. The full it is sent carries legacy entry blobs; the
// deltas that follow chain off the CRCs of those bytes, not off a
// re-encode, and reference the frames of the dense recorder state it
// carried; what it would promote is the state a new-encoding stream
// would have left.
func TestStandbyAcrossUpgrade(t *testing.T) {
	sb := NewStandby(StandbyConfig{Logf: t.Logf})

	first := testCheckpoint(t, []*core.ModelEntry{testEntry("m0")}, 100)
	first.Gen = 1
	// That build's recorder kept every pre-roll frame and no At.
	var dense []vidsim.Frame
	for i := range 20 {
		dense = append(dense, vidsim.Frame{Index: 80 + i, W: 2, H: 2, Pixels: []float64{float64(i), 1, 2, 3}})
	}
	first.Shards[0].Forensics = forensics.RecorderState{
		Enabled: true, Window: 16, Keep: 2, Frame: 100, Ring: dense,
		Marks:        []forensics.Mark{{Frame: 80}, {Frame: 90}},
		Declarations: []forensics.Declaration{{ID: "drift-00000060", Frame: 60, BaseFrame: 44, Frames: dense[:17]}},
	}
	modern, err := store.Encode(first)
	if err != nil {
		t.Fatal(err)
	}
	legacy := legacyFull(t, modern)
	if len(legacy) <= len(modern) {
		t.Fatalf("legacy full is %d bytes, the new encoding %d", len(legacy), len(modern))
	}
	if _, ok := sb.apply(MsgFull, State{Gen: 1, Payload: legacy}); !ok || sb.Gen() != 1 {
		t.Fatalf("standby refused a legacy full (at gen %d)", sb.Gen())
	}

	// The old primary trains a model: a delta off the bytes it sent.
	base, crcs, err := store.DecodeWithCRCs(legacy)
	if err != nil {
		t.Fatal(err)
	}
	next := testCheckpoint(t, append(base.Entries[:1:1], testEntry("m1")), 200)
	next.Gen = 2
	// And this build's recorder, restored from that state, has since let
	// the oldest mark go and kept one frame of the ten it saw.
	ring := base.Shards[0].Forensics.Ring
	next.Shards[0].Forensics = base.Shards[0].Forensics
	next.Shards[0].Forensics.Frame = 110
	next.Shards[0].Forensics.Ring = append(ring[10:20:20], vidsim.Frame{Index: 180, W: 2, H: 2, Pixels: []float64{9, 9, 9, 9}})
	next.Shards[0].Forensics.At = []int{90, 91, 92, 93, 94, 95, 96, 97, 98, 99, 100}
	next.Shards[0].Forensics.Marks = []forensics.Mark{{Frame: 90}, {Frame: 100}}
	d, _, err := store.DiffCheckpoints(base, crcs, next)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.NewFrames) != 1 {
		t.Errorf("delta off a dense full carries %d new frames, want the one kept since", len(d.NewFrames))
	}
	wire, err := store.EncodeDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sb.apply(MsgDelta, State{Gen: 2, BaseGen: 1, Payload: wire}); !ok || sb.Gen() != 2 {
		t.Fatalf("standby at gen %d after a delta off a legacy full, want 2 (a resync means the chain broke)", sb.Gen())
	}

	want, err := store.Encode(next)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := store.Encode(sb.Latest()); err != nil || !bytes.Equal(got, want) {
		t.Errorf("standby state differs from the primary's generation 2 (%v)", err)
	}
	if _, err := forensics.Restore(sb.Latest().Shards[0].Forensics, nil); err != nil {
		t.Errorf("recorder state loaded from a dense full and a sparse delta does not restore: %v", err)
	}
}
