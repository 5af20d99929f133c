// Package telemetry is the repo's zero-dependency observability layer:
// a ring-buffered structured event sink for the drift machinery's
// decisions (drifts declared, selections resolved, models trained and
// deployed), streaming log-bucketed latency histograms per pipeline
// stage, and exporters emitting JSON and Prometheus text-exposition
// format.
//
// The central type is *Tracer. Every method is safe on a nil receiver
// and does nothing, so instrumented code holds a possibly-nil *Tracer
// and calls it unconditionally — the untraced hot path pays one pointer
// compare per call site. A non-nil Tracer is safe for concurrent use:
// one goroutine can drive a pipeline while others snapshot or export.
package telemetry

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"
)

// Kind enumerates the structured event taxonomy. Every surface that
// fans out over kinds walks 0..kindCount: a member added without a name
// in kindNames fails TestEnumJSONRoundTrip and TestPrometheusGolden.
type Kind uint8

// Event kinds, in pipeline order.
const (
	// KindFrameObserved is one frame entering the instrumented
	// component (counted always; ringed only with Config.PerFrame).
	KindFrameObserved Kind = iota
	// KindMartingaleUpdate is one sampled frame folded into the
	// conformal martingale (counted always; ringed only with PerFrame).
	KindMartingaleUpdate
	// KindDriftDeclared is the Drift Inspector (or ODIN-Detect)
	// declaring a distribution change.
	KindDriftDeclared
	// KindSelectionStarted is the pipeline entering its
	// selection-window collection state after a drift.
	KindSelectionStarted
	// KindSelectionResolved is a completed MSBI/MSBO run, with
	// per-candidate outcomes.
	KindSelectionResolved
	// KindModelTrained is a new model provisioned from post-drift
	// frames.
	KindModelTrained
	// KindModelDeployed is a model (selected or trained) becoming the
	// serving model.
	KindModelDeployed
	// KindCheckpointSaved is a full monitor checkpoint persisted to the
	// state store.
	KindCheckpointSaved
	// KindFrameQuarantined is a malformed frame (wrong dimensions,
	// non-finite pixels) rejected by the admission gate before it could
	// touch the classifier or the conformal martingale.
	KindFrameQuarantined
	// KindWorkerRestarted is a shard worker panic caught by the
	// supervisor and the shard resumed from its last in-memory snapshot.
	KindWorkerRestarted
	// KindTrainingFailed is one failed attempt to provision a
	// post-drift model; the pipeline retries with capped backoff and
	// degrades to the deployed model when attempts are exhausted.
	KindTrainingFailed
	// KindCheckpointFailed is one failed checkpoint write (the previous
	// generation stays loadable; the scheduler retries with backoff).
	KindCheckpointFailed
	// KindHealthChanged is a transition of the degradation state
	// (ok/degraded/failed).
	KindHealthChanged
	// KindReplicaDeltaSent is a replication primary shipping one
	// checkpoint generation (full or delta) to a standby.
	KindReplicaDeltaSent
	// KindReplicaDeltaApplied is a standby applying one streamed
	// generation into its warm in-memory state.
	KindReplicaDeltaApplied
	// KindReplicaPromoted is a standby promoting itself to primary
	// under a new fencing epoch.
	KindReplicaPromoted

	kindCount
)

var kindNames = [kindCount]string{
	"frame_observed",
	"martingale_update",
	"drift_declared",
	"selection_started",
	"selection_resolved",
	"model_trained",
	"model_deployed",
	"checkpoint_saved",
	"frame_quarantined",
	"worker_restarted",
	"training_failed",
	"checkpoint_failed",
	"health_changed",
	"replica_delta_sent",
	"replica_delta_applied",
	"replica_promoted",
}

// String returns the event kind's snake_case name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// MarshalJSON encodes the kind as its name.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON decodes a kind from its name, so exported snapshots and
// event streams round-trip through JSON.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	for i, n := range kindNames {
		if n == name {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("telemetry: unknown event kind %q", name)
}

// State is the pipeline processing mode a frame was observed under.
type State uint8

// Pipeline states.
const (
	StateMonitoring State = iota
	StateSelecting
	StateTraining

	stateCount
)

var stateNames = [stateCount]string{"monitoring", "selecting", "training"}

// String returns the state name.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// MarshalJSON encodes the state as its name.
func (s State) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON decodes a state from its name.
func (s *State) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	for i, n := range stateNames {
		if n == name {
			*s = State(i)
			return nil
		}
	}
	return fmt.Errorf("telemetry: unknown pipeline state %q", name)
}

// Health is the monitor's degradation state: ok (full drift-adaptive
// operation), degraded (serving continues on the deployed model but
// some adaptation machinery — training, checkpointing, a shard — is
// failing and being retried), failed (a component is permanently down,
// e.g. a shard hit its crash-loop circuit breaker).
type Health uint8

// Degradation states, in order of severity.
const (
	HealthOK Health = iota
	HealthDegraded
	HealthFailed

	healthCount
)

var healthNames = [healthCount]string{"ok", "degraded", "failed"}

// String returns the state name.
func (h Health) String() string {
	if int(h) < len(healthNames) {
		return healthNames[h]
	}
	return fmt.Sprintf("health(%d)", int(h))
}

// MarshalJSON encodes the health state as its name.
func (h Health) MarshalJSON() ([]byte, error) { return json.Marshal(h.String()) }

// UnmarshalJSON decodes a health state from its name.
func (h *Health) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	for i, n := range healthNames {
		if n == name {
			*h = Health(i)
			return nil
		}
	}
	return fmt.Errorf("telemetry: unknown health state %q", name)
}

// Stage enumerates the instrumented pipeline stages whose latency is
// tracked.
type Stage uint8

// Latency-tracked stages.
const (
	StageFeaturize  Stage = iota // drift-feature extraction per sampled frame
	StageKNNScore                // kNN non-conformity score
	StagePValue                  // conformal p-value lookup
	StageMartingale              // betting-function update + threshold test
	StageClassify                // deployed model's query prediction
	StageSelect                  // one full MSBI/MSBO run
	StageTrain                   // provisioning a new model mid-stream
	StageCheckpoint              // one checkpoint capture + atomic write
	StageReplicate               // one replication cycle: capture, diff, encode, send, ack

	stageCount
)

var stageNames = [stageCount]string{
	"featurize",
	"knn_score",
	"p_value",
	"martingale_update",
	"classify",
	"select",
	"train",
	"checkpoint",
	"replicate",
}

// String returns the stage's snake_case name.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", int(s))
}

// DimShift is one feature dimension's reference-versus-recent divergence,
// attached (ranked, most-moved first) to every drift declaration so
// operators can see WHICH appearance statistic moved, not just that the
// martingale crossed its threshold. KL and JS are binned divergences of
// the recent sampled window against the model's reference sample,
// computed over a deterministic fixed binning derived from the reference
// (see core.FeatWindowStats); MeanShift is recent mean − reference mean;
// VarRatio is recent variance / reference variance.
type DimShift struct {
	Dim       int     `json:"dim"`
	Name      string  `json:"name,omitempty"`
	KL        float64 `json:"kl"`
	JS        float64 `json:"js"`
	MeanShift float64 `json:"mean_shift"`
	VarRatio  float64 `json:"var_ratio"`
}

// DriftID derives the stable identifier of a drift declared on the given
// stream frame. It is a pure function of the frame index, so the ID a
// live tracer assigns, the ID a warm-restarted run re-derives, and the ID
// a forensics replay reproduces are all identical; frames are strictly
// increasing within a shard, so IDs are unique per stream.
func DriftID(frame int) string { return fmt.Sprintf("drift-%08d", frame) }

// Candidate is one model's outcome inside a selection event: MSBI
// reports the i.i.d.-hypothesis rejection plus the final martingale
// value and mean conformal p-value on the window; MSBO reports the
// ensemble Brier score.
type Candidate struct {
	Model      string  `json:"model"`
	Rejected   bool    `json:"rejected,omitempty"`
	Martingale float64 `json:"martingale,omitempty"`
	MeanP      float64 `json:"mean_p,omitempty"`
	Brier      float64 `json:"brier,omitempty"`
}

// Event is one structured trace record. Fields beyond Seq, TimeUnixNano,
// Kind and Frame are populated per kind (see the Kind constants).
type Event struct {
	Seq          uint64 `json:"seq"`
	TimeUnixNano int64  `json:"time_unix_nano"`
	Kind         Kind   `json:"kind"`
	// Frame is the stream index of the frame the event belongs to
	// (-1 for events before the first frame, e.g. the initial deploy).
	Frame int `json:"frame"`

	// ID is the stable drift-declaration identifier (DriftID of the
	// declaration frame); set only on drift_declared events.
	ID string `json:"id,omitempty"`

	Model    string `json:"model,omitempty"`
	Selector string `json:"selector,omitempty"`

	// Drift / martingale fields. Lag is frames observed by the
	// inspector since its last reset (≈ detection lag when the drift
	// followed a deployment); Sampled is how many of those were folded
	// into the martingale.
	Lag         int     `json:"lag,omitempty"`
	Sampled     int     `json:"sampled,omitempty"`
	PValue      float64 `json:"p_value,omitempty"`
	Martingale  float64 `json:"martingale,omitempty"`
	WindowDelta float64 `json:"window_delta,omitempty"`
	MeanP       float64 `json:"mean_p,omitempty"`
	// Attribution is the ranked per-dimension "what moved" vector of a
	// drift_declared event (most-diverged dimension first).
	Attribution []DimShift `json:"attribution,omitempty"`

	// Selection / training fields.
	FramesUsed  int         `json:"frames_used,omitempty"`
	TrainedNew  bool        `json:"trained_new,omitempty"`
	TrainFrames int         `json:"train_frames,omitempty"`
	Candidates  []Candidate `json:"candidates,omitempty"`

	// Checkpoint fields: where the checkpoint was written and its
	// encoded size.
	Path  string `json:"path,omitempty"`
	Bytes int    `json:"bytes,omitempty"`

	// Fault / degradation fields. Reason is a short cause string
	// ("bad dimensions", "worker panic: ..."); Attempt is the 1-based
	// retry attempt that failed; Shard is the 0-based shard index of a
	// worker restart (omitted in JSON for shard 0); Health is the new
	// degradation state of a health_changed event.
	Reason  string `json:"reason,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	Shard   int    `json:"shard,omitempty"`
	Health  string `json:"health,omitempty"`

	// Replication fields: the checkpoint generation a replica event
	// carries, the fencing epoch it was streamed or promoted under, and
	// (replica_delta_sent) how long the cycle that shipped it took.
	Gen     uint64  `json:"gen,omitempty"`
	Epoch   uint64  `json:"epoch,omitempty"`
	CycleMS float64 `json:"cycle_ms,omitempty"`
}

// Config parameterizes a Tracer. The zero value is usable.
type Config struct {
	// RingSize is how many events the ring retains at most (default
	// 1024). It is a capacity: the ring is allocated as events arrive.
	RingSize int
	// PerFrame also records the per-frame FrameObserved and
	// MartingaleUpdate events in the ring. Off by default: they are
	// always *counted*, but ringing one event per frame would evict
	// the rare, interesting events within a few seconds of stream.
	PerFrame bool
	// Now overrides the clock (tests); nil means time.Now.
	Now func() time.Time
}

// Tracer collects events, counters, gauges and per-stage latency
// histograms. All methods are nil-safe no-ops; a non-nil Tracer is safe
// for concurrent use.
type Tracer struct {
	mu       sync.Mutex
	now      func() time.Time
	perFrame bool

	seq  uint64
	ring []Event // grows by append to size events, then wraps
	size int     // Config.RingSize
	head int     // oldest event, once the ring has wrapped

	counts      [kindCount]uint64
	stateFrames [stateCount]uint64
	curFrame    int // last observed frame index; -1 before the stream

	model       string // currently deployed model
	martingale  float64
	windowDelta float64
	meanP       float64

	lastCheckpoint int64 // unix nanos of the last persisted checkpoint

	replicaLag        int // newest generation minus slowest standby's ack
	replicaFullBytes  uint64
	replicaDeltaBytes uint64
	replicaCycle      time.Duration // latest replication cycle

	health Health // current degradation state

	stages [stageCount]Histogram
}

// New builds a Tracer.
func New(cfg Config) *Tracer {
	if cfg.RingSize <= 0 {
		cfg.RingSize = 1024
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Tracer{
		now:      cfg.Now,
		perFrame: cfg.PerFrame,
		size:     cfg.RingSize,
		curFrame: -1,
	}
}

// Enabled reports whether the tracer records anything (i.e. is non-nil).
func (t *Tracer) Enabled() bool { return t != nil }

// Now reads the tracer's injected clock (Config.Now; the wall clock by
// default). Replay-critical packages must take timestamps through this
// method rather than time.Now — the driftlint determinism analyzer
// enforces it — so tests and deterministic replays can drive every
// clock read through Config.Now. A nil tracer returns the zero time;
// instrumented code only consults the clock when tracing is enabled.
func (t *Tracer) Now() time.Time {
	if t == nil {
		return time.Time{}
	}
	// t.now is set once in New and never mutated, so no lock is needed.
	return t.now()
}

// emit stamps and counts an event; ring selects whether it is retained.
// The caller holds t.mu.
func (t *Tracer) emit(e Event, ring bool) {
	t.seq++
	e.Seq = t.seq
	e.TimeUnixNano = t.now().UnixNano()
	e.Frame = t.curFrame
	t.counts[e.Kind]++
	if !ring {
		return
	}
	if len(t.ring) < t.size {
		t.ring = append(t.ring, e)
		return
	}
	t.ring[t.head] = e
	t.head = (t.head + 1) % t.size
}

// events copies the ring, oldest first. The caller holds t.mu.
func (t *Tracer) events() []Event {
	out := make([]Event, 0, len(t.ring))
	out = append(out, t.ring[t.head:]...)
	return append(out, t.ring[:t.head]...)
}

// FrameObserved advances the tracer's frame counter and counts the frame
// under the pipeline state it was processed in. Instrumented components
// call it exactly once per frame, before any other event of that frame.
func (t *Tracer) FrameObserved(state State) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.curFrame++
	if int(state) < len(t.stateFrames) {
		t.stateFrames[state]++
	}
	t.emit(Event{Kind: KindFrameObserved}, t.perFrame)
	t.mu.Unlock()
}

// ResumeAt sets the frame counter of a tracer that follows a stream
// resumed from a checkpoint after frames frames, so its events carry the
// stream indices an uninterrupted run's do.
func (t *Tracer) ResumeAt(frames int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.curFrame = frames - 1
	t.mu.Unlock()
}

// MartingaleUpdate records one sampled frame's conformal update and
// refreshes the martingale gauges.
func (t *Tracer) MartingaleUpdate(p, value, windowDelta, meanP float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.martingale, t.windowDelta, t.meanP = value, windowDelta, meanP
	t.emit(Event{
		Kind:        KindMartingaleUpdate,
		PValue:      p,
		Martingale:  value,
		WindowDelta: windowDelta,
		MeanP:       meanP,
	}, t.perFrame)
	t.mu.Unlock()
}

// DriftDeclared records a declared drift on the named model's
// distribution. lag is frames observed since the inspector's last reset;
// sampled is how many were folded into the martingale; attr is the
// ranked per-dimension attribution vector (may be nil when the caller
// has no feature statistics). The event carries the stable declaration
// ID derived from the current frame.
func (t *Tracer) DriftDeclared(model string, lag, sampled int, martingale, windowDelta, meanP float64, attr []DimShift) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.martingale, t.windowDelta, t.meanP = martingale, windowDelta, meanP
	t.emit(Event{
		Kind:        KindDriftDeclared,
		ID:          DriftID(t.curFrame),
		Model:       model,
		Lag:         lag,
		Sampled:     sampled,
		Martingale:  martingale,
		WindowDelta: windowDelta,
		MeanP:       meanP,
		Attribution: attr,
	}, true)
	t.mu.Unlock()
}

// SelectionStarted records the pipeline entering its selection window.
func (t *Tracer) SelectionStarted(selector string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.emit(Event{Kind: KindSelectionStarted, Selector: selector}, true)
	t.mu.Unlock()
}

// SelectionResolved records a completed selector run. selected is empty
// when every candidate was rejected (the train-new-model path).
func (t *Tracer) SelectionResolved(selector, selected string, framesUsed int, candidates []Candidate) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.emit(Event{
		Kind:       KindSelectionResolved,
		Selector:   selector,
		Model:      selected,
		FramesUsed: framesUsed,
		Candidates: candidates,
	}, true)
	t.mu.Unlock()
}

// ModelTrained records a model provisioned mid-stream from trainFrames
// post-drift frames.
func (t *Tracer) ModelTrained(model string, trainFrames int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.emit(Event{Kind: KindModelTrained, Model: model, TrainedNew: true, TrainFrames: trainFrames}, true)
	t.mu.Unlock()
}

// ModelDeployed records model becoming the serving model and updates the
// deployed-model gauge.
func (t *Tracer) ModelDeployed(model string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.model = model
	t.emit(Event{Kind: KindModelDeployed, Model: model}, true)
	t.mu.Unlock()
}

// CheckpointSaved records a persisted monitor checkpoint: the written
// path and encoded size as a ringed event, the capture+write duration in
// the checkpoint stage histogram, and the last-checkpoint timestamp
// behind the videodrift_last_checkpoint_age_seconds gauge.
func (t *Tracer) CheckpointSaved(path string, bytes int, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.lastCheckpoint = t.now().UnixNano()
	t.stages[StageCheckpoint].Observe(d)
	t.emit(Event{Kind: KindCheckpointSaved, Path: path, Bytes: bytes}, true)
	t.mu.Unlock()
}

// FrameQuarantined records a malformed frame rejected by the admission
// gate (counted always; ringed so quarantine bursts stay diagnosable).
func (t *Tracer) FrameQuarantined(reason string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.emit(Event{Kind: KindFrameQuarantined, Reason: reason}, true)
	t.mu.Unlock()
}

// WorkerRestarted records the supervisor catching a shard worker panic
// and restarting the shard from its last in-memory snapshot. attempt is
// the 1-based restart count since the shard's last healthy stretch.
func (t *Tracer) WorkerRestarted(shard, attempt int, reason string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.emit(Event{Kind: KindWorkerRestarted, Shard: shard, Attempt: attempt, Reason: reason}, true)
	t.mu.Unlock()
}

// TrainingFailed records one failed post-drift training attempt.
func (t *Tracer) TrainingFailed(model string, attempt int, reason string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.emit(Event{Kind: KindTrainingFailed, Model: model, Attempt: attempt, Reason: reason}, true)
	t.mu.Unlock()
}

// CheckpointFailed records one failed checkpoint write attempt.
func (t *Tracer) CheckpointFailed(attempt int, reason string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.emit(Event{Kind: KindCheckpointFailed, Attempt: attempt, Reason: reason}, true)
	t.mu.Unlock()
}

// HealthChanged records a degradation-state transition and updates the
// state behind the videodrift_degraded gauge. Transitions to the
// current state are dropped, so callers can report state
// unconditionally.
func (t *Tracer) HealthChanged(h Health, reason string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if h != t.health {
		t.health = h
		t.emit(Event{Kind: KindHealthChanged, Health: h.String(), Reason: reason}, true)
	}
	t.mu.Unlock()
}

// ReplicaDeltaSent records a replication primary shipping generation
// gen (reason "full" or "delta") of the given encoded size in a cycle
// that took cycle end to end, and refreshes the replication-lag gauge
// (newest generation minus the slowest connected standby's acknowledged
// generation). Bytes accumulate per kind: a full after first contact
// shows up as the full counter moving.
func (t *Tracer) ReplicaDeltaSent(gen, epoch uint64, reason string, bytes, lagGens int, cycle time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.replicaLag = lagGens
	t.replicaCycle = cycle
	if reason == "full" {
		t.replicaFullBytes += uint64(bytes)
	} else {
		t.replicaDeltaBytes += uint64(bytes)
	}
	t.emit(Event{Kind: KindReplicaDeltaSent, Gen: gen, Epoch: epoch, Reason: reason, Bytes: bytes,
		CycleMS: float64(cycle) / float64(time.Millisecond)}, true)
	t.mu.Unlock()
}

// ReplicaDeltaApplied records a standby applying streamed generation
// gen (reason "full" or "delta") into its warm in-memory state.
func (t *Tracer) ReplicaDeltaApplied(gen, epoch uint64, reason string, bytes int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.emit(Event{Kind: KindReplicaDeltaApplied, Gen: gen, Epoch: epoch, Reason: reason, Bytes: bytes}, true)
	t.mu.Unlock()
}

// ReplicaPromoted records this process taking over as primary at
// generation gen under the (freshly bumped) fencing epoch.
func (t *Tracer) ReplicaPromoted(gen, epoch uint64, reason string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.emit(Event{Kind: KindReplicaPromoted, Gen: gen, Epoch: epoch, Reason: reason}, true)
	t.mu.Unlock()
}

// Health returns the tracer's current degradation state (HealthOK for a
// nil tracer).
func (t *Tracer) Health() Health {
	if t == nil {
		return HealthOK
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.health
}

// ObserveStage folds one stage latency into that stage's histogram.
func (t *Tracer) ObserveStage(s Stage, d time.Duration) {
	if t == nil || s >= stageCount {
		return
	}
	t.mu.Lock()
	t.stages[s].Observe(d)
	t.mu.Unlock()
}

// KindCount is one event kind's cumulative counter (Snapshot.EventCounts).
type KindCount struct {
	Kind  string `json:"kind"`
	Count uint64 `json:"count"`
}

// Events returns the retained events, oldest first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.events()
}

// Last returns the newest retained event of the given kind.
func (t *Tracer) Last(kind Kind) (Event, bool) {
	if t == nil {
		return Event{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := len(t.ring) - 1; i >= 0; i-- {
		if e := &t.ring[(t.head+i)%len(t.ring)]; e.Kind == kind {
			return *e, true
		}
	}
	return Event{}, false
}

// RingUse returns how many events the ring holds and its capacity.
func (t *Tracer) RingUse() (events, capacity int) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.ring), t.size
}
