package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime/metrics"
	"strconv"
)

// BucketCount is one cumulative histogram bucket: how many observations
// were at or below LeSeconds.
type BucketCount struct {
	LeSeconds float64 `json:"le_seconds"`
	Count     uint64  `json:"count"`
}

// StageSnapshot is one stage's frozen latency statistics, in seconds.
type StageSnapshot struct {
	Stage      string  `json:"stage"`
	Count      uint64  `json:"count"`
	SumSeconds float64 `json:"sum_seconds"`
	MaxSeconds float64 `json:"max_seconds"`
	P50Seconds float64 `json:"p50_seconds"`
	P95Seconds float64 `json:"p95_seconds"`
	P99Seconds float64 `json:"p99_seconds"`
	// Buckets is the cumulative log-bucket distribution behind the
	// quantiles (occupied buckets only, Prometheus le-style).
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Snapshot is a consistent point-in-time copy of everything a Tracer
// knows: counters, gauges, per-stage latency statistics and the retained
// event ring. It is self-contained — exporting a Snapshot needs no
// further access to the Tracer.
type Snapshot struct {
	TimeUnixNano int64  `json:"time_unix_nano"`
	Model        string `json:"model,omitempty"`

	Frames            uint64            `json:"frames"`
	FramesByState     map[string]uint64 `json:"frames_by_state,omitempty"`
	MartingaleUpdates uint64            `json:"martingale_updates"`
	Drifts            uint64            `json:"drifts"`
	SelectionsStarted uint64            `json:"selections_started"`
	Selections        uint64            `json:"selections_resolved"`
	ModelsTrained     uint64            `json:"models_trained"`
	Deployments       uint64            `json:"model_deployments"`
	Checkpoints       uint64            `json:"checkpoints,omitempty"`

	// Fault / degradation counters and state.
	Quarantined        uint64 `json:"quarantined_frames,omitempty"`
	WorkerRestarts     uint64 `json:"worker_restarts,omitempty"`
	TrainingFailures   uint64 `json:"training_failures,omitempty"`
	CheckpointFailures uint64 `json:"checkpoint_failures,omitempty"`
	Health             Health `json:"health"`

	// Replication counters and lag: generations shipped by a primary,
	// generations applied by a standby, promotions to primary, and the
	// newest-minus-acknowledged generation gap to the slowest standby.
	ReplicaDeltasSent    uint64 `json:"replica_deltas_sent,omitempty"`
	ReplicaDeltasApplied uint64 `json:"replica_deltas_applied,omitempty"`
	Promotions           uint64 `json:"promotions,omitempty"`
	ReplicaLagGens       int    `json:"replica_lag_generations,omitempty"`
	// ReplicaFullBytes and ReplicaDeltaBytes are the wire bytes a primary
	// shipped, by message kind; ReplicaCycleSeconds is how long its latest
	// replication cycle took (the "replicate" stage has the distribution).
	ReplicaFullBytes    uint64  `json:"replica_full_bytes,omitempty"`
	ReplicaDeltaBytes   uint64  `json:"replica_delta_bytes,omitempty"`
	ReplicaCycleSeconds float64 `json:"replica_cycle_seconds,omitempty"`

	// LastCheckpointUnixNano is when the last checkpoint was persisted
	// (0 when none has been).
	LastCheckpointUnixNano int64 `json:"last_checkpoint_unix_nano,omitempty"`

	Martingale  float64 `json:"martingale"`
	WindowDelta float64 `json:"window_delta"`
	MeanP       float64 `json:"mean_p"`

	// EventCounts holds every kind's cumulative counter in enum order,
	// indexed by Kind — including kinds with no dedicated named field
	// above (the named fields stay for compatibility with existing
	// consumers of the JSON shape).
	EventCounts []KindCount `json:"event_counts,omitempty"`

	Stages []StageSnapshot `json:"stages,omitempty"`
	Events []Event         `json:"events,omitempty"`
}

// Snapshot freezes the tracer's state. A nil tracer yields a zero
// snapshot.
func (t *Tracer) Snapshot() Snapshot {
	if t == nil {
		return Snapshot{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()

	s := Snapshot{
		TimeUnixNano:           t.now().UnixNano(),
		Model:                  t.model,
		Frames:                 t.counts[KindFrameObserved],
		MartingaleUpdates:      t.counts[KindMartingaleUpdate],
		Drifts:                 t.counts[KindDriftDeclared],
		SelectionsStarted:      t.counts[KindSelectionStarted],
		Selections:             t.counts[KindSelectionResolved],
		ModelsTrained:          t.counts[KindModelTrained],
		Deployments:            t.counts[KindModelDeployed],
		Checkpoints:            t.counts[KindCheckpointSaved],
		Quarantined:            t.counts[KindFrameQuarantined],
		WorkerRestarts:         t.counts[KindWorkerRestarted],
		TrainingFailures:       t.counts[KindTrainingFailed],
		CheckpointFailures:     t.counts[KindCheckpointFailed],
		ReplicaDeltasSent:      t.counts[KindReplicaDeltaSent],
		ReplicaDeltasApplied:   t.counts[KindReplicaDeltaApplied],
		Promotions:             t.counts[KindReplicaPromoted],
		ReplicaLagGens:         t.replicaLag,
		ReplicaFullBytes:       t.replicaFullBytes,
		ReplicaDeltaBytes:      t.replicaDeltaBytes,
		ReplicaCycleSeconds:    t.replicaCycle.Seconds(),
		Health:                 t.health,
		LastCheckpointUnixNano: t.lastCheckpoint,
		Martingale:             t.martingale,
		WindowDelta:            t.windowDelta,
		MeanP:                  t.meanP,
	}
	s.EventCounts = make([]KindCount, kindCount)
	for k := Kind(0); k < kindCount; k++ {
		s.EventCounts[k] = KindCount{Kind: k.String(), Count: t.counts[k]}
	}
	s.FramesByState = make(map[string]uint64, stateCount)
	for st := State(0); st < stateCount; st++ {
		s.FramesByState[st.String()] = t.stateFrames[st]
	}
	for st := Stage(0); st < stageCount; st++ {
		if t.stages[st].Count() == 0 {
			continue
		}
		s.Stages = append(s.Stages, t.stages[st].snapshot(st.String()))
	}
	s.Events = t.events()
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// promFloat renders a float the way Prometheus expects.
func promFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WritePrometheus writes the snapshot in Prometheus text-exposition
// format (version 0.0.4). Stage latencies are emitted as a summary
// family with p50/p95/p99 quantile series plus _sum and _count; the
// exact per-stage maximum gets its own gauge family.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	var err error
	p := func(format string, args ...interface{}) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}

	p("# HELP videodrift_frames_total Frames processed by the instrumented component.\n")
	p("# TYPE videodrift_frames_total counter\n")
	p("videodrift_frames_total %d\n", s.Frames)

	p("# HELP videodrift_frames_state_total Frames processed, by pipeline state.\n")
	p("# TYPE videodrift_frames_state_total counter\n")
	for st := State(0); st < stateCount; st++ {
		p("videodrift_frames_state_total{state=%q} %d\n", st.String(), s.FramesByState[st.String()])
	}

	p("# HELP videodrift_martingale_updates_total Sampled frames folded into the conformal martingale.\n")
	p("# TYPE videodrift_martingale_updates_total counter\n")
	p("videodrift_martingale_updates_total %d\n", s.MartingaleUpdates)

	p("# HELP videodrift_drifts_total Drifts declared by the Drift Inspector.\n")
	p("# TYPE videodrift_drifts_total counter\n")
	p("videodrift_drifts_total %d\n", s.Drifts)

	p("# HELP videodrift_selections_started_total Selection windows opened after a drift declaration.\n")
	p("# TYPE videodrift_selections_started_total counter\n")
	p("videodrift_selections_started_total %d\n", s.SelectionsStarted)

	p("# HELP videodrift_selections_total Model-selection runs resolved after a drift.\n")
	p("# TYPE videodrift_selections_total counter\n")
	p("videodrift_selections_total %d\n", s.Selections)

	p("# HELP videodrift_models_trained_total Models trained mid-stream on novel distributions.\n")
	p("# TYPE videodrift_models_trained_total counter\n")
	p("videodrift_models_trained_total %d\n", s.ModelsTrained)

	p("# HELP videodrift_model_deployments_total Model deployments (including the initial one).\n")
	p("# TYPE videodrift_model_deployments_total counter\n")
	p("videodrift_model_deployments_total %d\n", s.Deployments)

	p("# HELP videodrift_checkpoints_total Monitor checkpoints persisted to the state store.\n")
	p("# TYPE videodrift_checkpoints_total counter\n")
	p("videodrift_checkpoints_total %d\n", s.Checkpoints)

	p("# HELP videodrift_quarantined_frames_total Malformed frames rejected by the admission gate.\n")
	p("# TYPE videodrift_quarantined_frames_total counter\n")
	p("videodrift_quarantined_frames_total %d\n", s.Quarantined)

	p("# HELP videodrift_worker_restarts_total Shard workers restarted by the supervisor after a panic.\n")
	p("# TYPE videodrift_worker_restarts_total counter\n")
	p("videodrift_worker_restarts_total %d\n", s.WorkerRestarts)

	p("# HELP videodrift_training_failures_total Failed post-drift training attempts.\n")
	p("# TYPE videodrift_training_failures_total counter\n")
	p("videodrift_training_failures_total %d\n", s.TrainingFailures)

	p("# HELP videodrift_checkpoint_failures_total Failed checkpoint write attempts.\n")
	p("# TYPE videodrift_checkpoint_failures_total counter\n")
	p("videodrift_checkpoint_failures_total %d\n", s.CheckpointFailures)

	p("# HELP videodrift_events_total Structured events recorded, by kind.\n")
	p("# TYPE videodrift_events_total counter\n")
	for k := Kind(0); k < kindCount; k++ {
		// Snapshots decoded from JSON written before EventCounts existed
		// carry a short (or nil) slice; emit what is known.
		if int(k) >= len(s.EventCounts) {
			break
		}
		p("videodrift_events_total{kind=%q} %d\n", s.EventCounts[k].Kind, s.EventCounts[k].Count)
	}

	// Replication families are emitted only once the process has
	// replicated or promoted, so a standalone monitor's exposition is
	// unchanged.
	if s.ReplicaDeltasSent+s.ReplicaDeltasApplied+s.Promotions > 0 {
		p("# HELP videodrift_replica_deltas_total Checkpoint generations replicated (sent by a primary, applied by a standby), by role.\n")
		p("# TYPE videodrift_replica_deltas_total counter\n")
		p("videodrift_replica_deltas_total{role=\"primary\"} %d\n", s.ReplicaDeltasSent)
		p("videodrift_replica_deltas_total{role=\"standby\"} %d\n", s.ReplicaDeltasApplied)
		p("# HELP videodrift_replica_bytes_total Wire bytes a primary shipped to its standbys, by message kind (a full after first contact is a resync).\n")
		p("# TYPE videodrift_replica_bytes_total counter\n")
		p("videodrift_replica_bytes_total{kind=\"full\"} %d\n", s.ReplicaFullBytes)
		p("videodrift_replica_bytes_total{kind=\"delta\"} %d\n", s.ReplicaDeltaBytes)
		p("# HELP videodrift_replica_cycle_seconds Duration of the primary's latest replication cycle (capture, diff, encode, send, ack).\n")
		p("# TYPE videodrift_replica_cycle_seconds gauge\n")
		p("videodrift_replica_cycle_seconds %s\n", promFloat(s.ReplicaCycleSeconds))
		p("# HELP videodrift_replica_lag_generations Generations the slowest connected standby trails the primary by.\n")
		p("# TYPE videodrift_replica_lag_generations gauge\n")
		p("videodrift_replica_lag_generations %d\n", s.ReplicaLagGens)
		p("# HELP videodrift_promotions_total Standby-to-primary promotions performed by this process.\n")
		p("# TYPE videodrift_promotions_total counter\n")
		p("videodrift_promotions_total %d\n", s.Promotions)
	}

	p("# HELP videodrift_degraded Degradation state (0 ok, 1 degraded, 2 failed).\n")
	p("# TYPE videodrift_degraded gauge\n")
	p("videodrift_degraded %d\n", int(s.Health))

	if s.LastCheckpointUnixNano > 0 {
		p("# HELP videodrift_last_checkpoint_age_seconds Seconds since the last persisted checkpoint, at snapshot time.\n")
		p("# TYPE videodrift_last_checkpoint_age_seconds gauge\n")
		p("videodrift_last_checkpoint_age_seconds %s\n",
			promFloat(float64(s.TimeUnixNano-s.LastCheckpointUnixNano)/1e9))
	}

	p("# HELP videodrift_martingale_value Current CUSUM martingale value S_l.\n")
	p("# TYPE videodrift_martingale_value gauge\n")
	p("videodrift_martingale_value %s\n", promFloat(s.Martingale))

	p("# HELP videodrift_martingale_window_delta Current windowed martingale growth |S_l - S_l-W|.\n")
	p("# TYPE videodrift_martingale_window_delta gauge\n")
	p("videodrift_martingale_window_delta %s\n", promFloat(s.WindowDelta))

	p("# HELP videodrift_mean_p_value Mean conformal p-value since the inspector's last reset.\n")
	p("# TYPE videodrift_mean_p_value gauge\n")
	p("videodrift_mean_p_value %s\n", promFloat(s.MeanP))

	if s.Model != "" {
		p("# HELP videodrift_deployed_model Currently deployed model (value is always 1).\n")
		p("# TYPE videodrift_deployed_model gauge\n")
		p("videodrift_deployed_model{model=%q} 1\n", s.Model)
	}

	if len(s.Stages) > 0 {
		p("# HELP videodrift_stage_latency_seconds Per-stage latency quantiles (log-bucket interpolated).\n")
		p("# TYPE videodrift_stage_latency_seconds summary\n")
		for _, st := range s.Stages {
			p("videodrift_stage_latency_seconds{stage=%q,quantile=\"0.5\"} %s\n", st.Stage, promFloat(st.P50Seconds))
			p("videodrift_stage_latency_seconds{stage=%q,quantile=\"0.95\"} %s\n", st.Stage, promFloat(st.P95Seconds))
			p("videodrift_stage_latency_seconds{stage=%q,quantile=\"0.99\"} %s\n", st.Stage, promFloat(st.P99Seconds))
			p("videodrift_stage_latency_seconds_sum{stage=%q} %s\n", st.Stage, promFloat(st.SumSeconds))
			p("videodrift_stage_latency_seconds_count{stage=%q} %d\n", st.Stage, st.Count)
		}
		p("# HELP videodrift_stage_latency_max_seconds Largest single observation per stage.\n")
		p("# TYPE videodrift_stage_latency_max_seconds gauge\n")
		for _, st := range s.Stages {
			p("videodrift_stage_latency_max_seconds{stage=%q} %s\n", st.Stage, promFloat(st.MaxSeconds))
		}
		p("# HELP videodrift_stage_latency_hist_seconds Per-stage latency as a cumulative log-bucket histogram.\n")
		p("# TYPE videodrift_stage_latency_hist_seconds histogram\n")
		for _, st := range s.Stages {
			for _, b := range st.Buckets {
				p("videodrift_stage_latency_hist_seconds_bucket{stage=%q,le=%q} %d\n",
					st.Stage, promFloat(b.LeSeconds), b.Count)
			}
			p("videodrift_stage_latency_hist_seconds_bucket{stage=%q,le=\"+Inf\"} %d\n", st.Stage, st.Count)
			p("videodrift_stage_latency_hist_seconds_sum{stage=%q} %s\n", st.Stage, promFloat(st.SumSeconds))
			p("videodrift_stage_latency_hist_seconds_count{stage=%q} %d\n", st.Stage, st.Count)
		}
	}
	return err
}

// Process is what a server holds beyond any one tracer's stream, counted
// when an exposition is asked for: the models in the fleet's table, the
// frames (and their pixel bytes) the forensics recorders pin in
// pre-rolls and declarations — the kept ones, not the stream frames a
// pre-roll spans — and the tracers' event slots in use and
// allowed.
type Process struct {
	RegistryModels                int
	RetainedFrames, RetainedBytes int
	RingEvents, RingCapacity      int
}

// WriteProcessPrometheus writes the families that describe the process
// rather than one tracer's stream: p's holders and the heap's object
// bytes as the runtime accounts them, read on the spot. An exposition
// carries them once, whichever tracer it was asked for.
func WriteProcessPrometheus(w io.Writer, p Process) error {
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(heap)
	_, err := fmt.Fprintf(w, `# HELP videodrift_registry_models Models in the fleet's shared table: the provisioned ones plus every model trained since.
# TYPE videodrift_registry_models gauge
videodrift_registry_models %d
# HELP videodrift_forensics_retained_frames Frames the forensics recorders hold, in open pre-rolls and retained declarations: the frames kept, the ones the inspector read.
# TYPE videodrift_forensics_retained_frames gauge
videodrift_forensics_retained_frames %d
# HELP videodrift_forensics_retained_bytes Pixel bytes of the frames the forensics recorders hold.
# TYPE videodrift_forensics_retained_bytes gauge
videodrift_forensics_retained_bytes %d
# HELP videodrift_events_ring_events Events held in the tracers' rings.
# TYPE videodrift_events_ring_events gauge
videodrift_events_ring_events %d
# HELP videodrift_events_ring_capacity Events the tracers' rings may hold (-ring per tracer); slots are allocated as events arrive.
# TYPE videodrift_events_ring_capacity gauge
videodrift_events_ring_capacity %d
# HELP videodrift_go_heap_objects_bytes Heap memory occupied by objects, live or not yet swept (runtime/metrics /memory/classes/heap/objects:bytes).
# TYPE videodrift_go_heap_objects_bytes gauge
videodrift_go_heap_objects_bytes %d
`, p.RegistryModels, p.RetainedFrames, p.RetainedBytes, p.RingEvents, p.RingCapacity, heap[0].Value.Uint64())
	return err
}

// WriteJSONTo is a convenience: snapshot the tracer and write JSON.
func (t *Tracer) WriteJSONTo(w io.Writer) error { return t.Snapshot().WriteJSON(w) }

// WritePrometheusTo is a convenience: snapshot the tracer and write
// Prometheus text format.
func (t *Tracer) WritePrometheusTo(w io.Writer) error { return t.Snapshot().WritePrometheus(w) }
