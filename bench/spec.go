package main

import (
	"encoding/json"

	"videodrift/internal/core"
)

// The benchmark's vocabulary lives here and nowhere else: BENCHMARK.json
// is generated from these tables (`-write-spec`), the run emits exactly
// these names, and the smoke test checks the two agree.

const (
	tenants      = 2 // one per core of the 2-core reference box
	pollInterval = 5_000_000
	stallLimit   = 10_000_000_000 // watchdog: no progress for this long fails the run
	runSeconds   = 20
	trainFrames  = 300         // driftserve -train, its default
	stallMin     = 100_000_000 // no progress for this long is a stall: a training holding the pump
	ledgerFrames = 6000        // stationary frames each ledger replay pushes through
	ledgerDrift  = 3000        // drifting frames each selector replay pushes through
	spansPerName = 2000        // spans of one name a trace keeps
)

// workload is one traffic mix against one fresh server process.
type workload struct {
	Name string
	Why  string
	// Flags are the server flags beyond the common set (see commonFlags).
	Flags []string
	// FPS is the per-tenant rate of the open loop: frame k is due at
	// start + k/FPS whatever the server does.
	FPS int
	// The stream stays in the deployed model's condition for the
	// Stationary share of the run, then walks through Segments
	// conditions the server has no model for (see frameSource).
	Stationary float64
	Segments   int
	Replicated bool
	Selector   core.SelectorKind
}

var workloads = []workload{
	{
		Name:  "steady",
		Why:   "1500 fps/tenant, -batch 1, one stationary condition: the per-frame path (socket, decode, router, pump, per-frame snapshot, classify, kNN, martingale) does the work; selection runs only on false alarms",
		Flags: []string{"-selector", "msbi"},
		FPS:   1500, Selector: core.SelectorMSBI,
	},
	{
		Name:  "drift",
		Why:   "300 fps/tenant, a drift to an unseen condition every 3 s, MSBI: selection windows, kNN/martingale replay and new-model training stall the pump; the wire path idles",
		Flags: []string{"-batch", "8", "-selector", "msbi"},
		FPS:   300, Stationary: 0.05, Segments: 6, Selector: core.SelectorMSBI,
	},
	{
		Name:  "replicated",
		Why:   "drift, while streaming to a hot standby every 250 ms: checkpoint capture, diff, delta encode, VDRP and standby apply are idle in the other two, so the difference from drift is their tax",
		Flags: []string{"-batch", "8", "-selector", "msbi", "-replicate-every", "250ms"},
		FPS:   300, Stationary: 0.05, Segments: 6, Replicated: true, Selector: core.SelectorMSBI,
	},
}

// frames is how many frames each tenant is due to send in a run of the
// given length.
func (w *workload) frames(seconds int) int { return w.FPS * seconds }

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDef names one metric. Bound is the share of the parent's median
// an end-to-end metric may worsen by; per-layer metrics carry none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"verdict_ms_p50", "ms", "lower", 0.2},
	{"cpu_us_per_frame", "us", "lower", 0.25},
	{"rss_mb", "MB", "lower", 0.25},
}

var perLayer = []metricDef{
	// Client side of the traced drive.
	{"ingest.ack_us_p50", "us", "lower", 0},
	{"ingest.ack_us_p99", "us", "lower", 0},
	{"ingest.queue_wait_ms_p50", "ms", "lower", 0},
	{"ingest.queue_wait_ms_p99", "ms", "lower", 0},
	{"ingest.nack_share", "ratio", "lower", 0},
	{"ingest.drain_ms", "ms", "lower", 0},
	// Ledger: wire and routing.
	{"ingest.decode_us", "us", "lower", 0},
	{"ingest.decode_bytes", "B", "lower", 0},
	{"ingest.encode_us", "us", "lower", 0},
	{"ingest.submit_us", "us", "lower", 0},
	{"ingest.pump_self_us", "us", "lower", 0},
	{"parallel.foreach_handoff_us", "us", "lower", 0},
	// Ledger: supervision.
	{"sharded.supervise_self_us_b1", "us", "lower", 0},
	{"sharded.supervise_self_us_b8", "us", "lower", 0},
	{"core.snapshot_us", "us", "lower", 0},
	{"core.restore_us", "us", "lower", 0},
	{"sharded.attach_ms", "ms", "lower", 0},
	{"forensics.record_us", "us", "lower", 0},
	{"telemetry.tracer_us", "us", "lower", 0},
	// Ledger: the per-frame pipeline.
	{"core.process_us", "us", "lower", 0},
	{"core.classify_us", "us", "lower", 0},
	{"core.di_observe_us", "us", "lower", 0},
	{"vision.featurize_us", "us", "lower", 0},
	{"conformal.knn_score_us", "us", "lower", 0},
	{"conformal.pvalue_ns", "ns", "lower", 0},
	{"conformal.martingale_ns", "ns", "lower", 0},
	// Ledger: selection and training.
	{"core.select_ms_msbo", "ms", "lower", 0},
	{"core.select_ms_msbo_max", "ms", "lower", 0},
	{"core.select_ms_msbi", "ms", "lower", 0},
	{"core.select_ms_msbi_max", "ms", "lower", 0},
	{"core.train_ms", "ms", "lower", 0},
	{"core.train_ms_max", "ms", "lower", 0},
	{"classifier.avg_brier_ms", "ms", "lower", 0},
	{"classifier.fit_ms", "ms", "lower", 0},
	{"query.label_us", "us", "lower", 0},
	{"core.drifts", "count", "lower", 0},
	{"core.selections", "count", "lower", 0},
	{"core.trainings", "count", "lower", 0},
	{"core.provision_s", "s", "lower", 0},
	// Ledger and traced drive: replication.
	{"sharded.checkpoint_ms", "ms", "lower", 0},
	{"store.encode_ms", "ms", "lower", 0},
	{"store.encode_bytes", "B", "lower", 0},
	{"store.diff_ms", "ms", "lower", 0},
	{"store.delta_bytes", "B", "lower", 0},
	{"store.apply_ms", "ms", "lower", 0},
	{"replica.cycle_ms", "ms", "lower", 0},
	{"replica.lag_gens_max", "count", "lower", 0},
	{"replica.standby_cpu_us_per_frame", "us", "lower", 0},
	{"replica.standby_rss_mb", "MB", "lower", 0},
	// The whole window, stalls included.
	{"verdict_ms_p99", "ms", "lower", 0},
	{"serve.frames_per_s", "1/s", "higher", 0},
	{"serve.cpu_us_per_frame_total", "us", "lower", 0},
	{"serve.stall_share", "ratio", "lower", 0},
	{"serve.stall_ms_p50", "ms", "lower", 0},
	{"serve.stall_cpu_ms_p50", "ms", "lower", 0},
	// Context: what the generator and the probe cost, and what is left over.
	{"loadgen.next_us", "us", "lower", 0},
	{"loadgen.late_ms_p99", "ms", "lower", 0},
	{"serve.healthz_us", "us", "lower", 0},
	{"ledger.attributed_share", "ratio", "higher", 0},
	{"trace.overhead_share", "ratio", "lower", 0},
}

// benchmarkSpec renders BENCHMARK.json.
func benchmarkSpec() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	spec := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		spec.PerLayer = append(spec.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		panic(err) // a struct of strings and numbers always marshals
	}
	return append(b, '\n')
}
