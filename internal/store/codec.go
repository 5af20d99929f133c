// Package store is the durable state layer of the drift-aware pipeline:
// versioned, checksummed binary checkpoints of the provisioned-model
// registry (VAEs, reference samples, calibration scores, classifiers,
// MSBO ensembles) and of the runtime drift state (martingale, p-value
// counters, RNG stream positions, selection buffers), written atomically
// so a crash mid-write never corrupts the store and a restart resumes
// bit-identically to the uninterrupted run. It has no dependencies
// outside the standard library and the repo's own packages.
//
// A checkpoint file is one internal/wire message (DESIGN.md §18) under
// the "VDCK" format, and its payload is the Delta that builds the
// checkpoint from nothing (layout at appendDelta): every frame once, as a
// raw little-endian block, however many lists hold it, and every model
// entry as a gob blob with its own CRC-32, so `drifttool inspect` can
// report per-model integrity and a decode error names the entry it hit.
// A replication stream ships the same encoding between generations.
// Float64 values round-trip bit-exactly, which is what makes restored kNN
// scores, p-values and classifier logits identical to the originals.
package store

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"

	"videodrift/internal/classifier"
	"videodrift/internal/conformal"
	"videodrift/internal/core"
	"videodrift/internal/forensics"
	"videodrift/internal/tensor"
	"videodrift/internal/vae"
	"videodrift/internal/vision"
	"videodrift/internal/wire"
)

// Version is the current checkpoint format version. A checkpoint of any
// other version is refused with a *VersionError: nothing converts one.
const Version = 5

// vdck is the checkpoint envelope: "VDCK" big-endian, and no cap on a
// payload the header can declare.
var vdck = wire.Format{Magic: 0x5644434b, Version: Version, MaxPayload: math.MaxUint32}

// Typed decode failures, the wire package's under either name. Callers
// distinguish "file is damaged" (ErrTruncated, ErrBadMagic, ErrChecksum,
// *VersionError — fall back to an older checkpoint) from harder
// structural errors.
var (
	ErrTruncated = wire.ErrTruncated
	ErrBadMagic  = wire.ErrBadMagic
	ErrChecksum  = wire.ErrChecksum
)

// VersionError reports a checkpoint written by another format version.
type VersionError = wire.VersionError

// Checkpoint is the in-memory form of one durable snapshot: the global
// deduplicated model table plus per-shard registries and runtime state.
// Shards reference models by index into Entries so that entries shared
// across shards (the provisioned base models) are persisted once and
// restored as one shared object, exactly as a live fleet shares them
// (videodrift.NewDynamicSharded).
//
//driftlint:snapshot encode=Differ.Diff decode=ApplyDelta
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

// AppendCheckpoint is EncodeWithCRCs appending the envelope to dst: the
// delta from the empty checkpoint, so each frame is written once however
// many lists hold it.
func AppendCheckpoint(dst []byte, cp *Checkpoint) ([]byte, []uint32, error) {
	d, crcs, err := new(Differ).Diff(&Checkpoint{}, nil, cp)
	if err != nil {
		return nil, nil, err
	}
	if dst, err = appendDelta(dst, d); err != nil {
		return nil, nil, err
	}
	return dst, crcs, nil
}

// openEnvelope validates a checkpoint's header and CRC and returns its
// payload; bytes past the payload are refused too. It never panics on
// malformed input.
func openEnvelope(data []byte) ([]byte, error) {
	_, payload, err := vdck.DecodeMsg(data)
	var ve *VersionError
	if errors.As(err, &ve) {
		return nil, fmt.Errorf("store: checkpoint format: %w", err)
	}
	if err != nil {
		return nil, err
	}
	if have := len(data) - wire.HeaderSize; have != len(payload) {
		return nil, fmt.Errorf("%w: header claims %d payload bytes, file has %d", ErrTruncated, len(payload), have)
	}
	return payload, nil
}

// decodeFile decodes a checkpoint file's delta and checks that it builds
// from nothing.
func decodeFile(data []byte) (*Delta, error) {
	d, err := DecodeDelta(data)
	if err != nil {
		return nil, err
	}
	if d.BaseGen != 0 || d.BaseEntries != 0 || d.BaseFrames != 0 {
		return nil, fmt.Errorf("%w: a checkpoint builds from nothing, this delta chains off generation %d (%d entries, %d frames)",
			ErrDeltaBase, d.BaseGen, d.BaseEntries, d.BaseFrames)
	}
	return d, nil
}

// Decode parses and fully reconstructs a checkpoint from envelope
// bytes, returning typed errors (never panicking) on malformed input.
func Decode(data []byte) (*Checkpoint, error) {
	cp, _, err := DecodeWithCRCs(data)
	return cp, err
}

// DecodeWithCRCs is Decode, additionally returning the per-entry blob
// CRCs as recorded in the envelope, which later deltas verify their base
// digest against.
func DecodeWithCRCs(data []byte) (*Checkpoint, []uint32, error) {
	d, err := decodeFile(data)
	if err != nil {
		return nil, nil, err
	}
	return ApplyDelta(&Checkpoint{}, nil, d)
}
