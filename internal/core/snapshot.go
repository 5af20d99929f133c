package core

import (
	"fmt"

	"videodrift/internal/stats"
	"videodrift/internal/vidsim"
)

// PipelineSnapshot is a serializable copy of a pipeline's mutable
// runtime state. Together with the registry (persisted separately, since
// entries are shared across shards), the labeler and the PipelineConfig,
// RestorePipeline rebuilds a pipeline whose every subsequent Process
// call returns exactly what the snapshotted pipeline would have
// returned — drift declarations, selections and trained models included.
//
//driftlint:snapshot encode=Pipeline.capture decode=RestorePipeline
type PipelineSnapshot struct {
	// Current is the registry index (insertion order) of the deployed
	// entry.
	Current int
	// State is the processing mode (0 monitoring, 1 selecting,
	// 2 training), mirroring pipelineState.
	State int
	// Buffer holds the frames collected so far in the selecting or
	// training state.
	Buffer []vidsim.Held
	// Novel is the counter naming mid-stream-trained models.
	Novel   int
	Metrics Metrics
	// TrainFails and RetryWait are the degraded-mode training-retry
	// state (failed attempts for the current window; frames left of the
	// current backoff).
	TrainFails int
	RetryWait  int
	// RNG is the pipeline's tie-break generator position; DI is the
	// deployed inspector's state.
	RNG stats.RNGState
	DI  DISnapshot
}

// Snapshot captures the pipeline's runtime state for checkpointing. The
// buffer is copied, so the snapshot stays consistent while the pipeline
// keeps processing frames afterwards.
func (p *Pipeline) Snapshot() PipelineSnapshot {
	return p.capture(nil, p.di.Snapshot())
}

// SnapshotInto is Snapshot into s, reusing the storage s already holds:
// the supervisor's per-batch capture, which nothing but a restore reads
// and every batch rewrites, allocates nothing once warm. s must only ever
// have been filled by SnapshotInto — its slices are overwritten — and a
// restore copies what it reads, so no pipeline aliases them.
func (p *Pipeline) SnapshotInto(s *PipelineSnapshot) {
	held := len(s.Buffer)
	*s = p.capture(s.Buffer, p.di.SnapshotInto(s.DI))
	if held > len(s.Buffer) {
		clear(s.Buffer[len(s.Buffer):held]) // do not pin a let-go buffer's frames
	}
}

// capture is Snapshot with the buffer's headers appended to buf[:0] and
// the inspector's state as given.
func (p *Pipeline) capture(buf []vidsim.Held, di DISnapshot) PipelineSnapshot {
	cur := -1
	for i, e := range p.reg.Snapshot().Entries() {
		if e == p.current {
			cur = i
			break
		}
	}
	return PipelineSnapshot{
		Current:    cur,
		State:      int(p.state),
		Buffer:     append(buf[:0], p.buffer...),
		Novel:      p.novel,
		Metrics:    p.metrics,
		TrainFails: p.trainFails,
		RetryWait:  p.retryWait,
		RNG:        p.rng.State(),
		DI:         di,
	}
}

// RestorePipeline rebuilds a pipeline from a snapshot over the given
// registry (which must contain the same entries, in the same order, as
// when the snapshot was taken — the checkpoint store guarantees this).
// The labeler and config play the same roles as in NewPipeline; the
// config's Tracer may differ from the original run's (telemetry is
// observational and restarts fresh).
func RestorePipeline(reg *Registry, labeler Labeler, cfg PipelineConfig, snap PipelineSnapshot) (*Pipeline, error) {
	if reg == nil || reg.Len() == 0 {
		return nil, fmt.Errorf("core: RestorePipeline needs a non-empty registry")
	}
	if cfg.Selector == SelectorMSBO && labeler == nil {
		return nil, fmt.Errorf("core: SelectorMSBO requires a labeler for the W_T window")
	}
	entries := reg.Entries()
	if err := CheckSelector(cfg.Selector, entries); err != nil {
		return nil, err
	}
	if snap.Current < 0 || snap.Current >= len(entries) {
		return nil, fmt.Errorf("core: snapshot deploys entry %d, registry has %d", snap.Current, len(entries))
	}
	if snap.State < int(stateMonitoring) || snap.State > int(stateTraining) {
		return nil, fmt.Errorf("core: snapshot has unknown pipeline state %d", snap.State)
	}
	p := &Pipeline{
		cfg:        cfg,
		reg:        reg,
		labeler:    labeler,
		rng:        stats.ResumeRNG(snap.RNG),
		current:    entries[snap.Current],
		state:      pipelineState(snap.State),
		buffer:     append([]vidsim.Held(nil), snap.Buffer...),
		novel:      snap.Novel,
		metrics:    snap.Metrics,
		trainFails: snap.TrainFails,
		retryWait:  snap.RetryWait,
	}
	// MSBO thresholds are a pure function of the (bit-exactly restored)
	// ensembles and calibration samples; recomputing reproduces them
	// exactly instead of widening the checkpoint format.
	p.calibrate()
	di, err := RestoreDriftInspector(p.current, cfg.DI, snap.DI)
	if err != nil {
		return nil, err
	}
	p.di = di
	p.di.SetTracer(cfg.Tracer)
	return p, nil
}
