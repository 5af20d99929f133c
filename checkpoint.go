package videodrift

import (
	"fmt"
	"time"

	"videodrift/internal/core"
	"videodrift/internal/forensics"
	"videodrift/internal/store"
)

// Checkpoint is a serializable snapshot of a monitor's complete state:
// every provisioned model (weights, reference samples, calibration
// scores) plus each stream shard's exact runtime position (deployed
// model, martingale, RNG streams, buffered frames). Resuming from a
// checkpoint reproduces the uninterrupted run bit-for-bit: every
// subsequent drift declaration, model selection and trained model is
// identical.
type Checkpoint = store.Checkpoint

// CheckpointStore manages a directory of rotated, atomically written
// checkpoint files (see internal/store and DESIGN.md §9 for the on-disk
// format).
type CheckpointStore = store.Store

// ErrNoCheckpoint reports a store directory with no checkpoint to
// resume from (a cold start).
var ErrNoCheckpoint = store.ErrNoCheckpoint

// OpenStore opens (creating if needed) a checkpoint directory.
func OpenStore(dir string) (*CheckpointStore, error) { return store.Open(dir) }

// LoadCheckpoint reads and verifies one checkpoint file. Damage —
// truncation, bit flips, unknown versions — surfaces as typed errors
// (store.ErrTruncated, store.ErrChecksum, *store.VersionError), never a
// panic.
func LoadCheckpoint(path string) (*Checkpoint, error) { return store.LoadPath(path) }

// Checkpoint captures the monitor's full state. The monitor must not be
// processing frames concurrently with the capture; the snapshot is a
// copy, so processing may continue the moment it returns.
func (m *Monitor) Checkpoint() *Checkpoint {
	entries := m.pipe.Registry().Entries()
	refs := make([]int, len(entries))
	for i := range refs {
		refs[i] = i
	}
	return &Checkpoint{
		CreatedUnixNano: time.Now().UnixNano(),
		Frames:          int64(m.pipe.Metrics().Frames),
		Entries:         entries,
		Shards: []store.ShardState{{
			Registry:  refs,
			Pipeline:  m.pipe.Snapshot(),
			Forensics: m.rec.State(),
		}},
	}
}

// Resume rebuilds a single-stream Monitor from a checkpoint. The labeler
// and options must match the original run's (the checkpoint stores
// runtime state, not configuration); with matching options the resumed
// monitor's event stream is bit-identical to the uninterrupted run's.
func Resume(cp *Checkpoint, labeler Labeler, opts Options) (*Monitor, error) {
	if len(cp.Shards) != 1 {
		return nil, fmt.Errorf("videodrift: checkpoint holds %d shards; use ResumeSharded", len(cp.Shards))
	}
	return resumeShard(cp, 0, labeler, opts)
}

// resumeShard rebuilds shard i's Monitor over the checkpoint's shared
// entry table.
func resumeShard(cp *Checkpoint, i int, labeler Labeler, opts Options) (*Monitor, error) {
	sh := cp.Shards[i]
	if len(sh.Registry) == 0 {
		return nil, fmt.Errorf("videodrift: shard %d has an empty registry", i)
	}
	ents := make([]*core.ModelEntry, len(sh.Registry))
	for j, ref := range sh.Registry {
		if ref < 0 || ref >= len(cp.Entries) {
			return nil, fmt.Errorf("videodrift: shard %d references entry %d of %d", i, ref, len(cp.Entries))
		}
		ents[j] = cp.Entries[ref]
	}
	cfg := opts.Pipeline
	cfg.Provision = opts.Provision
	if opts.Tracer != nil {
		cfg.Tracer = opts.Tracer
	}
	cfg.Tracer.ResumeAt(sh.Pipeline.Metrics.Frames)
	pipe, err := core.RestorePipeline(core.NewRegistry(ents...), labeler, cfg, sh.Pipeline)
	if err != nil {
		return nil, err
	}
	m := &Monitor{pipe: pipe}
	// Forensics resumes from the checkpointed recorder when one was
	// persisted (so replayable pre-rolls survive the restart), sized by
	// the resuming options; a checkpoint without one starts a fresh
	// recorder if the resuming options ask for forensics.
	switch {
	case sh.Forensics.Enabled:
		rec, err := forensics.Restore(sh.Forensics, opts.Forensics, cfg.Tracer)
		if err != nil {
			return nil, err
		}
		m.rec = rec
	case opts.Forensics.Enabled:
		m.rec = forensics.NewRecorder(opts.Forensics, cfg.Tracer, pipe)
	}
	return m, nil
}

// liveModels is the set of models the fleet holds, each once however many
// shards share it; callers hold mu. The provisioned models are live
// whether or not a shard is attached: an empty dynamic fleet's checkpoint
// must still carry them, or the standby it promotes has nothing to attach
// a tenant over.
func (sm *ShardedMonitor) liveModels() map[*Model]bool {
	live := make(map[*Model]bool)
	for _, e := range sm.baseModels {
		live[e] = true
	}
	for _, m := range sm.shards {
		if m == nil {
			continue
		}
		for _, e := range m.pipe.Registry().Snapshot().Entries() {
			live[e] = true
		}
	}
	return live
}

// Models returns how many models the fleet holds — the length of the
// table a Checkpoint taken now would carry. It grows by one with every
// training and only shrinks when an evicted shard's private models go.
func (sm *ShardedMonitor) Models() int {
	sm.mu.RLock()
	defer sm.mu.RUnlock()
	return len(sm.liveModels())
}

// Checkpoint captures every shard's state plus the shared model table.
// Models shared between shards (the provisioned set, and any entry added
// to several registries) are stored once and restored shared. The table
// keeps the previous capture's order and appends models first seen in
// this one, so it only ever grows while no model is dropped (an evicted
// shard's private models are). Safe to call at any time from any
// goroutine: a capture waits for the ProcessBatches call in flight and
// so always lands on a batch boundary; the caller need not synchronize
// with the feed. Detached slots of a dynamic fleet are skipped: the
// checkpoint holds the attached shards compacted in slot order (each
// shard's full runtime state — including its RNG streams, its tenant
// and stream position — travels with it, so compaction does not disturb
// replay; only the slot numbering resets).
func (sm *ShardedMonitor) Checkpoint() *Checkpoint {
	sm.batchMu.Lock()
	defer sm.batchMu.Unlock()
	sm.mu.RLock()
	defer sm.mu.RUnlock()
	live := sm.liveModels()
	cp := &Checkpoint{CreatedUnixNano: time.Now().UnixNano()}
	seen := make(map[*Model]int, len(live))
	ref := func(e *Model) int {
		idx, ok := seen[e]
		if !ok {
			idx = len(cp.Entries)
			cp.Entries = append(cp.Entries, e)
			seen[e] = idx
		}
		return idx
	}
	for _, e := range sm.table {
		if live[e] {
			ref(e)
		}
	}
	for _, e := range sm.baseModels {
		ref(e)
	}
	for i, m := range sm.shards {
		if m == nil {
			continue
		}
		entries := m.pipe.Registry().Snapshot().Entries()
		refs := make([]int, len(entries))
		for j, e := range entries {
			refs[j] = ref(e)
		}
		if f := int64(m.pipe.Metrics().Frames); f > cp.Frames {
			cp.Frames = f
		}
		cp.Shards = append(cp.Shards, store.ShardState{
			Registry:  refs,
			Pipeline:  m.pipe.Snapshot(),
			Forensics: m.rec.State(),
			Tenant:    sm.states[i].tenant,
			Next:      uint64(sm.states[i].next),
		})
	}
	sm.table = cp.Entries
	return cp
}

// ResumeSharded rebuilds a ShardedMonitor from a checkpoint. The shard
// count comes from the checkpoint (an empty dynamic fleet's holds none).
// The worker count is free to differ — shard decisions are independent of
// the fan-out shape, so determinism holds at any Workers setting.
func ResumeSharded(cp *Checkpoint, labeler Labeler, opts ShardedOptions) (*ShardedMonitor, error) {
	n := len(cp.Shards)
	if opts.Tracers != nil && len(opts.Tracers) < n {
		return nil, fmt.Errorf("videodrift: %d tracers for %d shards", len(opts.Tracers), n)
	}
	sm := newSharded(n, labeler, opts)
	sm.baseModels = cp.Entries // dynamic Attach reuses the shared table
	// Warm the shared feature matrices once, as NewDynamicSharded does.
	for _, e := range cp.Entries {
		e.FeatMatrix()
	}
	for i := range sm.shards {
		shardOpts := opts.Options
		if opts.Tracers != nil {
			shardOpts.Tracer = opts.Tracers[i]
		}
		if opts.TrainFault != nil {
			shardOpts.Pipeline.TrainFault = opts.TrainFault(i)
		}
		m, err := resumeShard(cp, i, labeler, shardOpts)
		if err != nil {
			return nil, err
		}
		sm.shards[i] = m
		st := &shardState{opts: shardOpts, tenant: cp.Shards[i].Tenant, next: int(cp.Shards[i].Next)}
		st.save(m)
		sm.states[i] = st
	}
	return sm, nil
}
