package store

import (
	"bytes"
	"encoding/gob"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"videodrift/internal/classifier"
	"videodrift/internal/core"
	"videodrift/internal/tensor"
	"videodrift/internal/vidsim"
	"videodrift/internal/vision"
)

// legacyEntryRecord is entryRecord as every build up to PR 20 wrote it:
// with Σ_{T_i} in pixel space next to its features. Checkpoints,
// -state-dirs and replication streams holding such blobs outlive the
// upgrade, so the codec must keep reading them.
type legacyEntryRecord struct {
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

// legacyBlob re-encodes e's blob the old way, with pixel-space samples
// the size the old Provision kept (one W·H vector per reference feature).
func legacyBlob(t testing.TB, e *core.ModelEntry) []byte {
	t.Helper()
	blob, err := encodeEntry(e)
	if err != nil {
		t.Fatal(err)
	}
	var rec legacyEntryRecord
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	frames := vidsim.GenerateTraining(testCond(vidsim.Day()), e.W, e.H, len(e.SampleFeats), 5)
	for _, f := range frames {
		rec.Samples = append(rec.Samples, f.Pixels)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rec); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// legacyEncode is Encode with every entry blob written the old way: the
// v2 envelope a pre-upgrade process left on disk or sent to its standby.
func legacyEncode(t testing.TB, cp *Checkpoint) (data []byte, crcs []uint32) {
	t.Helper()
	data, err := Encode(cp)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := decodeEnvelope(data, kindCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := decodeRecord(payload)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range cp.Entries {
		rec.Entries[i] = legacyBlob(t, e)
		rec.EntryCRCs[i] = crc32.ChecksumIEEE(rec.Entries[i])
	}
	out := bytes.NewBuffer(make([]byte, headerSize))
	if err := gob.NewEncoder(out).Encode(rec); err != nil {
		t.Fatal(err)
	}
	sealEnvelope(out.Bytes(), kindCheckpoint)
	return out.Bytes(), rec.EntryCRCs
}

// TestDecodeLegacyEntryBlob: a checkpoint written before pixel-space Σ
// left the entry still decodes, to the same entries; the CRCs it arrived
// with keep chaining deltas across the upgrade; and the one path that
// re-encodes the base (ApplyDelta with nil CRCs) answers ErrDeltaBase —
// "resync from a full" — rather than building a wrong table.
func TestDecodeLegacyEntryBlob(t *testing.T) {
	cp := testCheckpoint(t)
	cp.Gen = 1
	modern, modernCRCs, err := EncodeWithCRCs(cp)
	if err != nil {
		t.Fatal(err)
	}
	legacy, legacyCRCs := legacyEncode(t, cp)
	if min := len(modern) + len(cp.Entries)*60*testDim; len(legacy) < min {
		t.Fatalf("legacy envelope is %d bytes, the new one %d: the legacy blobs carry no pixel samples", len(legacy), len(modern))
	}

	want, err := Decode(modern)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(legacy)
	if err != nil {
		t.Fatalf("Decode of a legacy checkpoint: %v", err)
	}
	base, baseCRCs, err := DecodeWithCRCs(legacy)
	if err != nil {
		t.Fatalf("DecodeWithCRCs of a legacy checkpoint: %v", err)
	}
	if !reflect.DeepEqual(baseCRCs, legacyCRCs) {
		t.Errorf("legacy checkpoint reports CRCs %08x, its blobs have %08x", baseCRCs, legacyCRCs)
	}
	if reflect.DeepEqual(baseCRCs, modernCRCs) {
		t.Fatal("legacy and new blobs have the same CRCs: the test encodes nothing legacy")
	}
	if !reflect.DeepEqual(got.Shards, want.Shards) {
		t.Error("shard state of the legacy checkpoint differs")
	}
	for i, e := range got.Entries {
		w := want.Entries[i]
		if g, n := vision.FeatureFuncName(e.QueryFn()), vision.FeatureFuncName(w.QueryFn()); g != n {
			t.Errorf("entry %q: query function %q, want %q", w.Name, g, n)
		}
		// A non-nil func never DeepEquals; everything else must.
		e.SetQueryFn(nil)
		w.SetQueryFn(nil)
		if !reflect.DeepEqual(e, w) {
			t.Errorf("entry %q rebuilt from the legacy blob differs from the one rebuilt from the new blob", w.Name)
		}
	}
	path := filepath.Join(t.TempDir(), "legacy.vdck")
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	if desc, err := Inspect(path); err != nil {
		t.Errorf("Inspect of a legacy checkpoint: %v", err)
	} else if m := desc.Models[0]; m.Samples != len(cp.Entries[0].SampleFeats) || m.CRC32 != legacyCRCs[0] {
		t.Errorf("Inspect of a legacy entry: samples=%d crc32=%08x, want %d and %08x", m.Samples, m.CRC32, len(cp.Entries[0].SampleFeats), legacyCRCs[0])
	}

	// Across the upgrade a delta chains off the CRCs that arrived.
	next := nextGeneration(t, base, true)
	d, nextCRCs, err := DiffCheckpoints(base, baseCRCs, next)
	if err != nil {
		t.Fatalf("diff off a legacy base: %v", err)
	}
	if len(d.NewEntries) != 1 || !reflect.DeepEqual(nextCRCs[:2], legacyCRCs) {
		t.Fatalf("delta off a legacy base: %d new entries, prefix CRCs %08x", len(d.NewEntries), nextCRCs[:2])
	}
	if newBlob, _ := encodeEntry(next.Entries[2]); !bytes.Equal(d.NewEntries[0], newBlob) {
		t.Error("the entry appended after the upgrade does not travel in the new encoding")
	}
	wire, err := EncodeDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	dgot, err := DecodeDelta(wire)
	if err != nil {
		t.Fatal(err)
	}
	applied, appliedCRCs, err := ApplyDelta(base, baseCRCs, dgot)
	if err != nil {
		t.Fatalf("apply over a legacy base: %v", err)
	}
	if len(applied.Entries) != 3 || !reflect.DeepEqual(appliedCRCs, nextCRCs) {
		t.Fatalf("applied %d entries, CRCs %08x, want %08x", len(applied.Entries), appliedCRCs, nextCRCs)
	}
	// A fingerprint recomputed from the entries is the new encoding's: it
	// cannot vouch for a legacy base.
	if _, _, err := ApplyDelta(base, nil, dgot); !errors.Is(err, ErrDeltaBase) {
		t.Fatalf("ApplyDelta over a legacy base with recomputed CRCs: %v, want ErrDeltaBase", err)
	}
}
