// Package store is the durable state layer of the drift-aware pipeline:
// versioned, checksummed binary checkpoints of the provisioned-model
// registry (VAEs, reference samples, calibration scores, classifiers,
// MSBO ensembles) and of the runtime drift state (martingale, p-value
// counters, RNG stream positions, selection buffers), written atomically
// so a crash mid-write never corrupts the store and a restart resumes
// bit-identically to the uninterrupted run. It has no dependencies
// outside the standard library and the repo's own packages.
//
// On-disk format (little endian):
//
//	offset 0   magic "VDCK" (4 bytes)
//	offset 4   format version (uint16)
//	offset 6   payload kind (uint16, 1 = checkpoint)
//	offset 8   payload length (uint64)
//	offset 16  CRC-32 (IEEE) of the payload (uint32)
//	offset 20  payload (gob-encoded checkpointRecord)
//
// Inside the payload, every model entry is itself a gob blob with its
// own CRC-32, so `drifttool inspect` can report per-model integrity and
// a decode error names the entry it hit. Float64 values round-trip
// bit-exactly through gob, which is what makes restored kNN scores,
// p-values and classifier logits identical to the originals.
package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"

	"videodrift/internal/classifier"
	"videodrift/internal/conformal"
	"videodrift/internal/core"
	"videodrift/internal/forensics"
	"videodrift/internal/telemetry"
	"videodrift/internal/tensor"
	"videodrift/internal/vae"
	"videodrift/internal/vision"
)

// Version is the current checkpoint format version. A checkpoint of any
// other version is refused with a *VersionError: nothing converts one.
const Version uint16 = 3

// Payload kinds carried by the envelope: full checkpoints and delta
// checkpoints (the compact diff replication streams between
// generations).
const (
	kindCheckpoint uint16 = 1
	kindDelta      uint16 = 2
)

var magic = [4]byte{'V', 'D', 'C', 'K'}

// headerSize is the fixed envelope prefix before the payload.
const headerSize = 4 + 2 + 2 + 8 + 4

// Typed decode failures. Callers distinguish "file is damaged"
// (ErrTruncated, ErrBadMagic, ErrChecksum, *VersionError — fall back to
// an older checkpoint) from harder structural errors.
var (
	// ErrTruncated reports a file shorter than its header claims.
	ErrTruncated = errors.New("store: checkpoint truncated")
	// ErrBadMagic reports a file that is not a checkpoint at all.
	ErrBadMagic = errors.New("store: bad magic (not a checkpoint file)")
	// ErrChecksum reports payload bytes that fail the CRC — flipped
	// bits, torn writes.
	ErrChecksum = errors.New("store: payload checksum mismatch")
)

// VersionError reports a checkpoint written by an incompatible format
// version.
type VersionError struct {
	Got, Want uint16
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("store: checkpoint format v%d, this build reads v%d", e.Got, e.Want)
}

// Checkpoint is the in-memory form of one durable snapshot: the global
// deduplicated model table plus per-shard registries and runtime state.
// Shards reference models by index into Entries so that entries shared
// across shards (the provisioned base models) are persisted once and
// restored as one shared object, exactly as a live fleet shares them
// (videodrift.NewDynamicSharded).
//
//driftlint:snapshot encode=Encode,AppendCheckpoint decode=Decode,DecodeWithCRCs
type Checkpoint struct {
	// CreatedUnixNano stamps when the snapshot was captured.
	CreatedUnixNano int64
	// Frames is the caller's stream-level frame counter (driftserve's
	// total across shards); informational.
	Frames int64
	// Gen is the replication generation this snapshot represents; 0 for
	// checkpoints written outside a replication stream. Deltas chain off
	// it (Delta.BaseGen == base.Gen).
	Gen uint64
	// Epoch is the fencing epoch of the primary that produced the
	// snapshot; 0 when the process never replicated. A promoted standby
	// resumes with a strictly higher epoch, which is what fences a
	// stale primary's stream (see internal/replica).
	Epoch uint64
	// Entries is the deduplicated model table.
	Entries []*core.ModelEntry
	// Shards holds one runtime state per stream shard (a plain Monitor
	// checkpoints as a single shard).
	Shards []ShardState
}

// ShardState is one shard's persisted runtime: which models its
// registry held (as indices into Checkpoint.Entries, in insertion
// order) and the pipeline's mutable state.
type ShardState struct {
	Registry []int
	Pipeline core.PipelineSnapshot
	// Forensics is the shard's drift-forensics recorder state. Its
	// Enabled flag distinguishes a live state from the zero value a
	// forensics-less checkpoint carries.
	Forensics forensics.RecorderState
	// EventCounts is the shard tracer's per-kind event totals at
	// checkpoint time, informational (drifttool inspect reports them);
	// nil when the shard ran untraced.
	EventCounts []telemetry.KindCount
	// Tenant names the stream the shard serves ("" for a shard attached
	// without a name) and Next is that stream's position: the stream index
	// of the frame it is fed next.
	Tenant string
	Next   uint64
}

// entryRecord is the gob wire form of one core.ModelEntry.
//
//driftlint:snapshot encode=encodeEntry decode=buildEntry
type entryRecord struct {
	Name        string
	W, H        int
	VAE         []byte // vae.VAE.MarshalBinary, nil when absent
	SampleFeats []tensor.Vector
	CalibRaw    []float64
	Classifier  []byte // classifier.Classifier.MarshalBinary, nil when unsupervised
	Ensemble    []byte // classifier.Ensemble.MarshalBinary, nil when unsupervised
	QueryFn     string // vision.FeatureFuncName, "" when unsupervised
	CalibSample []classifier.Sample
}

// checkpointRecord is the gob wire form of the payload. Entries are
// nested gob blobs with individual checksums so integrity is reportable
// per model.
//
//driftlint:snapshot encode=Encode,AppendCheckpoint decode=decodeRecord,Decode,DecodeWithCRCs
type checkpointRecord struct {
	CreatedUnixNano int64
	Frames          int64
	Gen             uint64
	Epoch           uint64
	Entries         [][]byte
	EntryCRCs       []uint32
	Shards          []ShardState
}

// encodeEntry serializes one model entry. Entries provisioned with an
// ad-hoc (unregistered) query feature function cannot be persisted by
// name and return an error.
func encodeEntry(e *core.ModelEntry) ([]byte, error) {
	rec := entryRecord{
		Name:        e.Name,
		W:           e.W,
		H:           e.H,
		SampleFeats: e.SampleFeats,
		CalibRaw:    e.CalibRaw,
		CalibSample: e.CalibSample,
	}
	var err error
	if e.VAE != nil {
		if rec.VAE, err = e.VAE.MarshalBinary(); err != nil {
			return nil, fmt.Errorf("store: entry %q: %w", e.Name, err)
		}
	}
	if e.Classifier != nil {
		if rec.Classifier, err = e.Classifier.MarshalBinary(); err != nil {
			return nil, fmt.Errorf("store: entry %q: %w", e.Name, err)
		}
	}
	if e.Ensemble != nil {
		if rec.Ensemble, err = e.Ensemble.MarshalBinary(); err != nil {
			return nil, fmt.Errorf("store: entry %q: %w", e.Name, err)
		}
	}
	if fn := e.QueryFn(); fn != nil {
		rec.QueryFn = vision.FeatureFuncName(fn)
		if rec.QueryFn == "" {
			return nil, fmt.Errorf("store: entry %q uses an unregistered query feature function", e.Name)
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rec); err != nil {
		return nil, fmt.Errorf("store: encode entry %q: %w", e.Name, err)
	}
	return buf.Bytes(), nil
}

// decodeEntryRecord parses an entry blob without rebuilding the heavy
// model objects — what Inspect uses.
func decodeEntryRecord(data []byte) (*entryRecord, error) {
	var rec entryRecord
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&rec); err != nil {
		return nil, fmt.Errorf("store: decode entry: %w", err)
	}
	return &rec, nil
}

// buildEntry reconstructs a live core.ModelEntry from its wire form.
func buildEntry(rec *entryRecord) (*core.ModelEntry, error) {
	if len(rec.SampleFeats) == 0 {
		return nil, fmt.Errorf("store: entry %q has no reference features", rec.Name)
	}
	if len(rec.CalibRaw) == 0 {
		return nil, fmt.Errorf("store: entry %q has no calibration scores", rec.Name)
	}
	e := &core.ModelEntry{
		Name:        rec.Name,
		W:           rec.W,
		H:           rec.H,
		SampleFeats: rec.SampleFeats,
		CalibRaw:    rec.CalibRaw,
		Calib:       conformal.NewSortedCalib(rec.CalibRaw),
		CalibSample: rec.CalibSample,
	}
	var err error
	if rec.VAE != nil {
		if e.VAE, err = vae.UnmarshalVAE(rec.VAE); err != nil {
			return nil, fmt.Errorf("store: entry %q: %w", rec.Name, err)
		}
	}
	if rec.Classifier != nil {
		if e.Classifier, err = classifier.UnmarshalClassifier(rec.Classifier); err != nil {
			return nil, fmt.Errorf("store: entry %q: %w", rec.Name, err)
		}
	}
	if rec.Ensemble != nil {
		if e.Ensemble, err = classifier.UnmarshalEnsemble(rec.Ensemble); err != nil {
			return nil, fmt.Errorf("store: entry %q: %w", rec.Name, err)
		}
	}
	if rec.QueryFn != "" {
		fn := vision.FeatureFuncByName(rec.QueryFn)
		if fn == nil {
			return nil, fmt.Errorf("store: entry %q references unknown query feature function %q", rec.Name, rec.QueryFn)
		}
		e.SetQueryFn(fn)
	} else if e.Classifier != nil {
		return nil, fmt.Errorf("store: entry %q has a classifier but no query feature function", rec.Name)
	}
	return e, nil
}

// Encode serializes a checkpoint into the versioned, checksummed
// envelope.
func Encode(cp *Checkpoint) ([]byte, error) {
	data, _, err := EncodeWithCRCs(cp)
	return data, err
}

// EncodeWithCRCs is Encode, additionally returning the per-entry blob
// CRCs. Replication primaries keep them so the next DiffCheckpoints
// call can verify the shared entry prefix without re-encoding every
// model.
func EncodeWithCRCs(cp *Checkpoint) ([]byte, []uint32, error) {
	return AppendCheckpoint(nil, cp)
}

// AppendCheckpoint is EncodeWithCRCs appending the envelope to dst,
// the full-snapshot twin of AppendDelta.
func AppendCheckpoint(dst []byte, cp *Checkpoint) ([]byte, []uint32, error) {
	rec := checkpointRecord{
		CreatedUnixNano: cp.CreatedUnixNano,
		Frames:          cp.Frames,
		Gen:             cp.Gen,
		Epoch:           cp.Epoch,
		Entries:         make([][]byte, len(cp.Entries)),
		EntryCRCs:       make([]uint32, len(cp.Entries)),
		Shards:          cp.Shards,
	}
	for i, e := range cp.Entries {
		blob, err := encodeEntry(e)
		if err != nil {
			return nil, nil, err
		}
		rec.Entries[i] = blob
		rec.EntryCRCs[i] = crc32.ChecksumIEEE(blob)
	}
	for si, sh := range cp.Shards {
		for _, ref := range sh.Registry {
			if ref < 0 || ref >= len(cp.Entries) {
				return nil, nil, fmt.Errorf("store: shard %d references entry %d of %d", si, ref, len(cp.Entries))
			}
		}
	}
	start := len(dst)
	out := bytes.NewBuffer(append(dst, make([]byte, headerSize)...))
	if err := gob.NewEncoder(out).Encode(rec); err != nil {
		return nil, nil, fmt.Errorf("store: encode checkpoint: %w", err)
	}
	dst = out.Bytes()
	sealEnvelope(dst[start:], kindCheckpoint)
	return dst, rec.EntryCRCs, nil
}

// sealEnvelope fills in the versioned, checksummed header of an
// envelope whose payload was written in place behind headerSize
// reserved bytes.
func sealEnvelope(env []byte, kind uint16) {
	payload := env[headerSize:]
	copy(env[0:4], magic[:])
	binary.LittleEndian.PutUint16(env[4:6], Version)
	binary.LittleEndian.PutUint16(env[6:8], kind)
	binary.LittleEndian.PutUint64(env[8:16], uint64(len(payload)))
	binary.LittleEndian.PutUint32(env[16:20], crc32.ChecksumIEEE(payload))
}

// decodeEnvelope validates the header and checksum and returns the
// payload bytes. It never panics on malformed input.
func decodeEnvelope(data []byte, wantKind uint16) ([]byte, error) {
	if len(data) < headerSize {
		return nil, ErrTruncated
	}
	if !bytes.Equal(data[0:4], magic[:]) {
		return nil, ErrBadMagic
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != Version {
		return nil, &VersionError{Got: v, Want: Version}
	}
	if k := binary.LittleEndian.Uint16(data[6:8]); k != wantKind {
		return nil, fmt.Errorf("store: payload kind %d, want %d", k, wantKind)
	}
	n := binary.LittleEndian.Uint64(data[8:16])
	if n != uint64(len(data)-headerSize) {
		return nil, fmt.Errorf("%w: header claims %d payload bytes, file has %d", ErrTruncated, n, len(data)-headerSize)
	}
	payload := data[headerSize:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[16:20]) {
		return nil, ErrChecksum
	}
	return payload, nil
}

// decodeRecord parses a validated payload into the wire record.
func decodeRecord(payload []byte) (*checkpointRecord, error) {
	var rec checkpointRecord
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&rec); err != nil {
		return nil, fmt.Errorf("store: decode checkpoint: %w", err)
	}
	if len(rec.EntryCRCs) != len(rec.Entries) {
		return nil, fmt.Errorf("store: checkpoint has %d entry checksums for %d entries", len(rec.EntryCRCs), len(rec.Entries))
	}
	for i, blob := range rec.Entries {
		if crc32.ChecksumIEEE(blob) != rec.EntryCRCs[i] {
			return nil, fmt.Errorf("%w (entry %d)", ErrChecksum, i)
		}
	}
	for si, sh := range rec.Shards {
		for _, ref := range sh.Registry {
			if ref < 0 || ref >= len(rec.Entries) {
				return nil, fmt.Errorf("store: shard %d references entry %d of %d", si, ref, len(rec.Entries))
			}
		}
		if cur := sh.Pipeline.Current; cur < 0 || cur >= len(sh.Registry) {
			return nil, fmt.Errorf("store: shard %d deploys registry slot %d of %d", si, cur, len(sh.Registry))
		}
	}
	return &rec, nil
}

// Decode parses and fully reconstructs a checkpoint from envelope
// bytes, returning typed errors (never panicking) on malformed input.
func Decode(data []byte) (*Checkpoint, error) {
	cp, _, err := DecodeWithCRCs(data)
	return cp, err
}

// DecodeWithCRCs is Decode, additionally returning the per-entry blob
// CRCs as recorded in the envelope. A replication standby keeps them
// alongside the checkpoint so later deltas can verify their base
// digest against the exact bytes the primary sent, never against a
// re-encode.
func DecodeWithCRCs(data []byte) (*Checkpoint, []uint32, error) {
	payload, err := decodeEnvelope(data, kindCheckpoint)
	if err != nil {
		return nil, nil, err
	}
	rec, err := decodeRecord(payload)
	if err != nil {
		return nil, nil, err
	}
	cp := &Checkpoint{
		CreatedUnixNano: rec.CreatedUnixNano,
		Frames:          rec.Frames,
		Gen:             rec.Gen,
		Epoch:           rec.Epoch,
		Entries:         make([]*core.ModelEntry, len(rec.Entries)),
		Shards:          rec.Shards,
	}
	for i, blob := range rec.Entries {
		er, err := decodeEntryRecord(blob)
		if err != nil {
			return nil, nil, err
		}
		if cp.Entries[i], err = buildEntry(er); err != nil {
			return nil, nil, err
		}
	}
	return cp, rec.EntryCRCs, nil
}
