package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime/metrics"
	"strconv"
	"strings"
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

// Snapshot freezes the tracer's state, its event ring included. A nil
// tracer yields a zero snapshot.
func (t *Tracer) Snapshot() Snapshot { return t.snapshot(true) }

// Families is the tracer's state as metric families (Snapshot.Families)
// from a snapshot that leaves the event ring out: no family reads it,
// so a scrape costs the same at any ring size.
func (t *Tracer) Families() []Family { return t.snapshot(false).Families() }

// snapshot is Snapshot; with events false it leaves Events nil.
func (t *Tracer) snapshot(events bool) Snapshot {
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
	if events {
		s.Events = t.events()
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Family is one metric family of a Prometheus text exposition: its
// name, type (counter, gauge, summary or histogram), help text (no HELP
// line when empty) and samples, in the order they are written.
type Family struct {
	Name, Type, Help string
	Samples          []Sample
}

// Sample is one line of a family. Suffix follows the family's name (a
// summary's or histogram's "_sum", "_count", "_bucket"); Labels alternate
// name and value. The value is Int, in decimal, unless IsFloat is set.
type Sample struct {
	Suffix  string
	Labels  []string
	Int     int64
	Float   float64
	IsFloat bool
}

// Int is a sample counting v, under the label pairs given.
func Int[T ~int | ~int64 | ~uint64](v T, labels ...string) Sample {
	return Sample{Labels: labels, Int: int64(v)}
}

// Float is a sample of value v, under the label pairs given.
func Float(v float64, labels ...string) Sample {
	return Sample{Labels: labels, Float: v, IsFloat: true}
}

// Counter and Gauge are the families of those types.
func Counter(name, help string, samples ...Sample) Family {
	return Family{Name: name, Type: "counter", Help: help, Samples: samples}
}

func Gauge(name, help string, samples ...Sample) Family {
	return Family{Name: name, Type: "gauge", Help: help, Samples: samples}
}

// suffixed is s written under the family's name plus suffix.
func suffixed(suffix string, s Sample) Sample {
	s.Suffix = suffix
	return s
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// WriteFamilies writes fams in Prometheus text-exposition format
// (version 0.0.4), in one Write. It is the only writer of the format:
// a label value is written with the format's three escapes (backslash,
// double quote, newline) and any other byte raw, but for invalid UTF-8,
// which becomes U+FFFD — a tenant id off the wire is a label value.
func WriteFamilies(w io.Writer, fams []Family) error {
	var b []byte
	for _, f := range fams {
		if f.Help != "" {
			b = fmt.Appendf(b, "# HELP %s %s\n", f.Name, f.Help)
		}
		b = fmt.Appendf(b, "# TYPE %s %s\n", f.Name, f.Type)
		for _, s := range f.Samples {
			b = append(append(b, f.Name...), s.Suffix...)
			sep := byte('{')
			for i := 0; i+1 < len(s.Labels); i += 2 {
				b = append(append(append(b, sep), s.Labels[i]...), '=', '"')
				b = append(append(b, labelEscaper.Replace(strings.ToValidUTF8(s.Labels[i+1], "\uFFFD"))...), '"')
				sep = ','
			}
			if len(s.Labels) > 1 {
				b = append(b, '}')
			}
			b = append(b, ' ')
			if s.IsFloat {
				b = append(b, promFloat(s.Float)...)
			} else {
				b = strconv.AppendInt(b, s.Int, 10)
			}
			b = append(b, '\n')
		}
	}
	_, err := w.Write(b)
	return err
}

// WritePrometheus writes the snapshot's families (Families) in
// Prometheus text-exposition format.
func (s Snapshot) WritePrometheus(w io.Writer) error { return WriteFamilies(w, s.Families()) }

// Families is the snapshot as metric families. Stage latencies are a
// summary family with p50/p95/p99 quantile series plus _sum and _count,
// a gauge family of each stage's exact maximum and a histogram family
// of the log buckets.
func (s Snapshot) Families() []Family {
	states := make([]Sample, 0, stateCount)
	for st := State(0); st < stateCount; st++ {
		states = append(states, Int(s.FramesByState[st.String()], "state", st.String()))
	}
	// Snapshots decoded from JSON written before EventCounts existed carry
	// a short (or nil) slice; emit what is known.
	kinds := make([]Sample, 0, len(s.EventCounts))
	for _, k := range s.EventCounts[:min(len(s.EventCounts), int(kindCount))] {
		kinds = append(kinds, Int(k.Count, "kind", k.Kind))
	}
	fams := []Family{
		Counter("videodrift_frames_total", "Frames processed by the instrumented component.", Int(s.Frames)),
		Counter("videodrift_frames_state_total", "Frames processed, by pipeline state.", states...),
		Counter("videodrift_martingale_updates_total", "Sampled frames folded into the conformal martingale.", Int(s.MartingaleUpdates)),
		Counter("videodrift_drifts_total", "Drifts declared by the Drift Inspector.", Int(s.Drifts)),
		Counter("videodrift_selections_started_total", "Selection windows opened after a drift declaration.", Int(s.SelectionsStarted)),
		Counter("videodrift_selections_total", "Model-selection runs resolved after a drift.", Int(s.Selections)),
		Counter("videodrift_models_trained_total", "Models trained mid-stream on novel distributions.", Int(s.ModelsTrained)),
		Counter("videodrift_model_deployments_total", "Model deployments (including the initial one).", Int(s.Deployments)),
		Counter("videodrift_checkpoints_total", "Monitor checkpoints persisted to the state store.", Int(s.Checkpoints)),
		Counter("videodrift_quarantined_frames_total", "Malformed frames rejected by the admission gate.", Int(s.Quarantined)),
		Counter("videodrift_worker_restarts_total", "Shard workers restarted by the supervisor after a panic.", Int(s.WorkerRestarts)),
		Counter("videodrift_training_failures_total", "Failed post-drift training attempts.", Int(s.TrainingFailures)),
		Counter("videodrift_checkpoint_failures_total", "Failed checkpoint write attempts.", Int(s.CheckpointFailures)),
		Counter("videodrift_events_total", "Structured events recorded, by kind.", kinds...),
	}

	// Replication families are emitted only once the process has
	// replicated or promoted, so a standalone monitor's exposition is
	// unchanged.
	if s.ReplicaDeltasSent+s.ReplicaDeltasApplied+s.Promotions > 0 {
		fams = append(fams,
			Counter("videodrift_replica_deltas_total", "Checkpoint generations replicated (sent by a primary, applied by a standby), by role.",
				Int(s.ReplicaDeltasSent, "role", "primary"), Int(s.ReplicaDeltasApplied, "role", "standby")),
			Counter("videodrift_replica_bytes_total", "Wire bytes a primary shipped to its standbys, by message kind (a full after first contact is a resync).",
				Int(s.ReplicaFullBytes, "kind", "full"), Int(s.ReplicaDeltaBytes, "kind", "delta")),
			Gauge("videodrift_replica_cycle_seconds", "Duration of the primary's latest replication cycle (capture, diff, encode, send, ack).", Float(s.ReplicaCycleSeconds)),
			Gauge("videodrift_replica_lag_generations", "Generations the slowest connected standby trails the primary by.", Int(s.ReplicaLagGens)),
			Counter("videodrift_promotions_total", "Standby-to-primary promotions performed by this process.", Int(s.Promotions)))
	}

	fams = append(fams, Gauge("videodrift_degraded", "Degradation state (0 ok, 1 degraded, 2 failed).", Int(int(s.Health))))
	if s.LastCheckpointUnixNano > 0 {
		fams = append(fams, Gauge("videodrift_last_checkpoint_age_seconds", "Seconds since the last persisted checkpoint, at snapshot time.",
			Float(float64(s.TimeUnixNano-s.LastCheckpointUnixNano)/1e9)))
	}
	fams = append(fams,
		Gauge("videodrift_martingale_value", "Current CUSUM martingale value S_l.", Float(s.Martingale)),
		Gauge("videodrift_martingale_window_delta", "Current windowed martingale growth |S_l - S_l-W|.", Float(s.WindowDelta)),
		Gauge("videodrift_mean_p_value", "Mean conformal p-value since the inspector's last reset.", Float(s.MeanP)))
	if s.Model != "" {
		fams = append(fams, Gauge("videodrift_deployed_model", "Currently deployed model (value is always 1).", Int(1, "model", s.Model)))
	}

	if len(s.Stages) > 0 {
		var quantiles, maxima, hist []Sample
		for _, st := range s.Stages {
			quantiles = append(quantiles,
				Float(st.P50Seconds, "stage", st.Stage, "quantile", "0.5"),
				Float(st.P95Seconds, "stage", st.Stage, "quantile", "0.95"),
				Float(st.P99Seconds, "stage", st.Stage, "quantile", "0.99"),
				suffixed("_sum", Float(st.SumSeconds, "stage", st.Stage)),
				suffixed("_count", Int(st.Count, "stage", st.Stage)))
			maxima = append(maxima, Float(st.MaxSeconds, "stage", st.Stage))
			for _, b := range st.Buckets {
				hist = append(hist, suffixed("_bucket", Int(b.Count, "stage", st.Stage, "le", promFloat(b.LeSeconds))))
			}
			hist = append(hist,
				suffixed("_bucket", Int(st.Count, "stage", st.Stage, "le", "+Inf")),
				suffixed("_sum", Float(st.SumSeconds, "stage", st.Stage)),
				suffixed("_count", Int(st.Count, "stage", st.Stage)))
		}
		fams = append(fams,
			Family{Name: "videodrift_stage_latency_seconds", Type: "summary", Help: "Per-stage latency quantiles (log-bucket interpolated).", Samples: quantiles},
			Gauge("videodrift_stage_latency_max_seconds", "Largest single observation per stage.", maxima...),
			Family{Name: "videodrift_stage_latency_hist_seconds", Type: "histogram", Help: "Per-stage latency as a cumulative log-bucket histogram.", Samples: hist})
	}
	return fams
}

// promFloat renders a float the way Prometheus expects.
func promFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

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

// Families are the families that describe the process rather than one
// tracer's stream: p's holders, and the heap's object bytes, the
// collector's cycles and the bytes allocated as the runtime accounts
// them, read on the spot in one metrics.Read — the cycles and
// allocations read across a window are what tell an operator whether the
// frame path allocates. An exposition carries them once, whichever tracer
// it was asked for.
func (p Process) Families() []Family {
	rt := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(rt)
	return []Family{
		Gauge("videodrift_registry_models", "Models in the fleet's shared table: the provisioned ones plus every model trained since.", Int(p.RegistryModels)),
		Gauge("videodrift_forensics_retained_frames", "Frames the forensics recorders hold, in open pre-rolls and retained declarations: the frames kept, the ones the inspector read.", Int(p.RetainedFrames)),
		Gauge("videodrift_forensics_retained_bytes", "Pixel bytes of the frames the forensics recorders hold.", Int(p.RetainedBytes)),
		Gauge("videodrift_events_ring_events", "Events held in the tracers' rings.", Int(p.RingEvents)),
		Gauge("videodrift_events_ring_capacity", "Events the tracers' rings may hold (-ring per tracer); slots are allocated as events arrive.", Int(p.RingCapacity)),
		Gauge("videodrift_go_heap_objects_bytes", "Heap memory occupied by objects, live or not yet swept (runtime/metrics /memory/classes/heap/objects:bytes).", Int(rt[0].Value.Uint64())),
		Counter("videodrift_go_gc_cycles_total", "Garbage-collection cycles completed since the process started (runtime/metrics /gc/cycles/total:gc-cycles).", Int(rt[1].Value.Uint64())),
		Counter("videodrift_go_heap_allocs_bytes_total", "Bytes allocated on the heap since the process started (runtime/metrics /gc/heap/allocs:bytes).", Int(rt[2].Value.Uint64())),
	}
}

// WriteJSONTo is a convenience: snapshot the tracer and write JSON.
func (t *Tracer) WriteJSONTo(w io.Writer) error { return t.Snapshot().WriteJSON(w) }

// WritePrometheusTo is a convenience: write the tracer's families in
// Prometheus text format.
func (t *Tracer) WritePrometheusTo(w io.Writer) error { return WriteFamilies(w, t.Families()) }
