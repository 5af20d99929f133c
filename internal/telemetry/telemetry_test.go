package telemetry

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode/utf8"
	"unsafe"
)

// --- Histogram bucket math ---

func TestHistogramBucketOf(t *testing.T) {
	cases := []struct {
		ns   uint64
		want int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11}, {2047, 11}, {2048, 12},
		{math.MaxUint64, histBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.ns); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
	// Bucket bounds must tile [0, ∞): hi of bucket i == lo of bucket i+1.
	for i := 0; i < histBuckets-1; i++ {
		_, hi := bucketBounds(i)
		lo, _ := bucketBounds(i + 1)
		if hi != lo {
			t.Errorf("bucket %d hi %g != bucket %d lo %g", i, hi, i+1, lo)
		}
	}
	// Every value must land inside its bucket's bounds.
	for _, ns := range []uint64{1, 2, 3, 100, 1024, 5000, 1 << 20} {
		lo, hi := bucketBounds(bucketOf(ns))
		if float64(ns) < lo || float64(ns) >= hi {
			t.Errorf("ns %d outside its bucket [%g, %g)", ns, lo, hi)
		}
	}
}

func TestHistogramCountSumMax(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Count() != 0 {
		t.Fatal("zero-value histogram not empty")
	}
	h.Observe(1500 * time.Nanosecond)
	h.Observe(2500 * time.Nanosecond)
	h.Observe(-5) // clamps to zero
	if h.Count() != 3 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.Sum() != 4000*time.Nanosecond {
		t.Errorf("Sum = %v", h.Sum())
	}
	if h.Max() != 2500*time.Nanosecond {
		t.Errorf("Max = %v", h.Max())
	}
	if q := h.Quantile(1); q != 2500*time.Nanosecond {
		t.Errorf("Quantile(1) = %v, want exact max", q)
	}
}

// TestHistogramQuantileVsExactSort checks the interpolated quantiles
// against exact order statistics on fixed seeds: a log-bucketed estimate
// must stay within a factor of 2 (one bucket width) of the exact value,
// and the quantiles must be monotone.
func TestHistogramQuantileVsExactSort(t *testing.T) {
	for _, seed := range []int64{1, 42, 1234} {
		rng := rand.New(rand.NewSource(seed))
		var h Histogram
		n := 5000
		exact := make([]float64, n)
		for i := 0; i < n; i++ {
			// Log-normal-ish latencies centered near 3 µs.
			ns := math.Exp(rng.NormFloat64()*1.5 + 8)
			exact[i] = ns
			h.Observe(time.Duration(ns))
		}
		sort.Float64s(exact)
		for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
			rank := int(math.Ceil(q * float64(n)))
			want := exact[rank-1]
			got := float64(h.Quantile(q))
			if got < want/2 || got > want*2 {
				t.Errorf("seed %d q%.2f: estimate %.0fns vs exact %.0fns (off by >2x)", seed, q, got, want)
			}
		}
		if !(h.Quantile(0.5) <= h.Quantile(0.95) && h.Quantile(0.95) <= h.Quantile(0.99) && h.Quantile(0.99) <= h.Max()) {
			t.Errorf("seed %d: quantiles not monotone", seed)
		}
	}
}

// --- Ring buffer ---

func TestRingBufferWraparound(t *testing.T) {
	tr := New(Config{RingSize: 4})
	for i := 0; i < 7; i++ {
		tr.DriftDeclared("m", 100+i, i, 0, 0, 0, nil)
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(evs))
	}
	for i, e := range evs {
		if e.Lag != 103+i {
			t.Errorf("event %d lag = %d, want %d (oldest-first order after wraparound)", i, e.Lag, 103+i)
		}
		if i > 0 && e.Seq != evs[i-1].Seq+1 {
			t.Errorf("event %d seq %d not consecutive after %d", i, e.Seq, evs[i-1].Seq)
		}
	}
	if s := tr.Snapshot(); s.Drifts != 7 {
		t.Errorf("counter must survive eviction: Drifts = %d, want 7", s.Drifts)
	}
}

// TestTracerRingOnDemand is the ring's footprint gate: RingSize is a
// capacity, so a fresh tracer retains its own struct and no event slots,
// the ring grows to RingSize and no further, and every reader is safe
// before the first event.
func TestTracerRingOnDemand(t *testing.T) {
	const size = 4096
	tr := New(Config{RingSize: size})
	if retained := unsafe.Sizeof(*tr) + uintptr(cap(tr.ring))*unsafe.Sizeof(Event{}); retained >= 8<<10 {
		t.Errorf("a fresh tracer retains %d bytes (%d event slots), want < 8 KB", retained, cap(tr.ring))
	}
	if allocs := testing.AllocsPerRun(10, func() { New(Config{RingSize: size}) }); allocs > 1 {
		t.Errorf("New makes %.0f allocations, want the tracer alone", allocs)
	}
	if evs := tr.Events(); len(evs) != 0 {
		t.Errorf("empty tracer returned %d events", len(evs))
	}
	if s := tr.Snapshot(); len(s.Events) != 0 {
		t.Errorf("empty tracer's snapshot holds %d events", len(s.Events))
	}
	if e, ok := tr.Last(KindDriftDeclared); ok {
		t.Errorf("empty tracer's Last found %+v", e)
	}
	if n, c := tr.RingUse(); n != 0 || c != size {
		t.Errorf("empty RingUse = %d of %d, want 0 of %d", n, c, size)
	}

	const total = 10000
	for i := 0; i < total; i++ {
		tr.DriftDeclared("m", i, 0, 0, 0, 0, nil)
	}
	evs := tr.Events()
	if len(evs) != size || len(tr.Snapshot().Events) != size {
		t.Fatalf("ring holds %d events after %d, want exactly %d", len(evs), total, size)
	}
	for i, e := range evs {
		if e.Lag != total-size+i {
			t.Fatalf("event %d is emission %d, want %d (the last %d, oldest first)", i, e.Lag, total-size+i, size)
		}
	}
	if n, c := tr.RingUse(); n != size || c != size {
		t.Errorf("full RingUse = %d of %d, want %d of %d", n, c, size, size)
	}
}

// TestScrapeSkipsRing is the scrape's cost gate: no metric family reads
// the event ring, so what WritePrometheusTo allocates must not grow with
// the events the ring holds — 16 or 4 096 (≈ 1.2 MB of events to copy).
func TestScrapeSkipsRing(t *testing.T) {
	scrape := func(events int) int64 {
		tr := New(Config{RingSize: 4096})
		for i := 0; i < events; i++ {
			tr.DriftDeclared("m", i, 0, 0, 0, 0, nil)
		}
		return testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := tr.WritePrometheusTo(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		}).AllocedBytesPerOp()
	}
	few, full := scrape(16), scrape(4096)
	if full-few > 4<<10 {
		t.Errorf("a scrape allocates %d B over a ring of 16 events and %d B over one of 4096: it copies the ring", few, full)
	}
}

// TestTracerLast: the newest event of a kind, before and after the ring
// wraps, absent kinds, and the nil tracer.
func TestTracerLast(t *testing.T) {
	tr := New(Config{RingSize: 4})
	tr.SelectionResolved("MSBI", "early", 1, nil)
	tr.ModelDeployed("m")
	if e, ok := tr.Last(KindSelectionResolved); !ok || e.Model != "early" {
		t.Errorf("unwrapped ring: Last = %+v, %v; want the selection of \"early\"", e, ok)
	}
	for i := 0; i < 3; i++ { // wraps: the newest event lands in slot 0
		if i == 1 {
			tr.SelectionResolved("MSBI", "late", 2, nil)
			continue
		}
		tr.DriftDeclared("m", i, 0, 0, 0, 0, nil)
	}
	if e, ok := tr.Last(KindSelectionResolved); !ok || e.Model != "late" {
		t.Errorf("wrapped ring: Last = %+v, %v; want the selection of \"late\"", e, ok)
	}
	if e, ok := tr.Last(KindDriftDeclared); !ok || e.Lag != 2 {
		t.Errorf("wrapped ring: newest drift = %+v, %v; want lag 2 (the slot behind head)", e, ok)
	}
	if e, ok := tr.Last(KindModelTrained); ok {
		t.Errorf("Last found an event of a kind never emitted: %+v", e)
	}
	for i := 3; i < 6; i++ {
		tr.DriftDeclared("m", i, 0, 0, 0, 0, nil)
	}
	if e, ok := tr.Last(KindSelectionResolved); ok {
		t.Errorf("Last found an evicted event: %+v", e)
	}
	if e, ok := (*Tracer)(nil).Last(KindDriftDeclared); ok {
		t.Errorf("nil tracer's Last found %+v", e)
	}
}

func TestPerFrameEventsGated(t *testing.T) {
	quiet := New(Config{RingSize: 16})
	quiet.FrameObserved(StateMonitoring)
	quiet.MartingaleUpdate(0.5, 1, 0.5, 0.5)
	if n := len(quiet.Events()); n != 0 {
		t.Errorf("per-frame events ringed with PerFrame off: %d", n)
	}
	s := quiet.Snapshot()
	if s.Frames != 1 || s.MartingaleUpdates != 1 {
		t.Errorf("counters must still advance: %+v", s)
	}

	loud := New(Config{RingSize: 16, PerFrame: true})
	loud.FrameObserved(StateSelecting)
	loud.MartingaleUpdate(0.5, 1, 0.5, 0.5)
	evs := loud.Events()
	if len(evs) != 2 || evs[0].Kind != KindFrameObserved || evs[1].Kind != KindMartingaleUpdate {
		t.Errorf("PerFrame events missing: %v", evs)
	}
	if loud.Snapshot().FramesByState["selecting"] != 1 {
		t.Errorf("state attribution lost: %v", loud.Snapshot().FramesByState)
	}
}

// --- Event semantics ---

func TestEventFrameStamping(t *testing.T) {
	tr := New(Config{})
	tr.ModelDeployed("day") // before any frame
	tr.FrameObserved(StateMonitoring)
	tr.FrameObserved(StateMonitoring)
	tr.DriftDeclared("day", 2, 1, 7, 7, 0.1, nil)
	evs := tr.Events()
	if evs[0].Frame != -1 {
		t.Errorf("pre-stream deploy frame = %d, want -1", evs[0].Frame)
	}
	if evs[1].Frame != 1 {
		t.Errorf("drift frame = %d, want 1 (0-based index of second frame)", evs[1].Frame)
	}
}

func TestEventJSONKinds(t *testing.T) {
	tr := New(Config{})
	tr.SelectionResolved("MSBI", "night", 30, []Candidate{
		{Model: "day", Rejected: true, Martingale: 9.5, MeanP: 0.01},
		{Model: "night", Martingale: 0.2, MeanP: 0.48},
	})
	raw, err := json.Marshal(tr.Events()[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"kind":"selection_resolved"`, `"selector":"MSBI"`, `"model":"night"`, `"rejected":true`} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("event JSON missing %s: %s", want, raw)
		}
	}
}

// --- Nil safety ---

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Error("nil tracer reports enabled")
	}
	tr.FrameObserved(StateMonitoring)
	tr.MartingaleUpdate(0.5, 1, 1, 0.5)
	tr.DriftDeclared("m", 1, 1, 0, 0, 0, nil)
	tr.SelectionStarted("MSBO")
	tr.SelectionResolved("MSBO", "m", 10, nil)
	tr.ModelTrained("m", 100)
	tr.ModelDeployed("m")
	tr.ObserveStage(StageFeaturize, time.Microsecond)
	tr.FrameQuarantined("bad dimensions")
	tr.WorkerRestarted(2, 1, "worker panic")
	tr.TrainingFailed("m", 1, "injected")
	tr.CheckpointFailed(1, "injected")
	tr.HealthChanged(HealthDegraded, "training failing")
	if h := tr.Health(); h != HealthOK {
		t.Errorf("nil tracer health = %v, want ok", h)
	}
	if evs := tr.Events(); evs != nil {
		t.Errorf("nil tracer returned events: %v", evs)
	}
	if s := tr.Snapshot(); s.Frames != 0 || len(s.Stages) != 0 {
		t.Errorf("nil tracer snapshot not zero: %+v", s)
	}
	if n, c := tr.RingUse(); n != 0 || c != 0 {
		t.Errorf("nil tracer RingUse = %d of %d", n, c)
	}

	// Every exported method, called with zero arguments (io.Discard for
	// a writer): a method added without its nil guard panics here.
	v := reflect.ValueOf(tr)
	writer := reflect.TypeFor[io.Writer]()
	for i := 0; i < v.NumMethod(); i++ {
		m := v.Method(i)
		args := make([]reflect.Value, m.Type().NumIn())
		for j := range args {
			if in := m.Type().In(j); in == writer {
				args[j] = reflect.ValueOf(io.Discard)
			} else {
				args[j] = reflect.Zero(in)
			}
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("(*Tracer)(nil).%s panicked: %v", v.Type().Method(i).Name, r)
				}
			}()
			m.Call(args)
		}()
	}
}

// --- Exporters ---

// TestPrometheusGolden locks the text-exposition format: metric names,
// types, label shapes and number rendering.
func TestPrometheusGolden(t *testing.T) {
	now := time.Unix(1700000000, 0)
	tr := New(Config{RingSize: 8, Now: func() time.Time { return now }})
	tr.FrameObserved(StateMonitoring)
	tr.FrameObserved(StateMonitoring)
	tr.MartingaleUpdate(0.2, 1.5, 0.5, 0.35)
	tr.ObserveStage(StageFeaturize, 1500*time.Nanosecond)
	tr.ObserveStage(StageFeaturize, 2500*time.Nanosecond)
	tr.ObserveStage(StageClassify, 4096*time.Nanosecond)
	tr.DriftDeclared("day", 40, 4, 8, 6.5, 0.1, nil)
	tr.ModelDeployed("night")

	var b strings.Builder
	if err := tr.WritePrometheusTo(&b); err != nil {
		t.Fatal(err)
	}
	const golden = `# HELP videodrift_frames_total Frames processed by the instrumented component.
# TYPE videodrift_frames_total counter
videodrift_frames_total 2
# HELP videodrift_frames_state_total Frames processed, by pipeline state.
# TYPE videodrift_frames_state_total counter
videodrift_frames_state_total{state="monitoring"} 2
videodrift_frames_state_total{state="selecting"} 0
videodrift_frames_state_total{state="training"} 0
# HELP videodrift_martingale_updates_total Sampled frames folded into the conformal martingale.
# TYPE videodrift_martingale_updates_total counter
videodrift_martingale_updates_total 1
# HELP videodrift_drifts_total Drifts declared by the Drift Inspector.
# TYPE videodrift_drifts_total counter
videodrift_drifts_total 1
# HELP videodrift_selections_started_total Selection windows opened after a drift declaration.
# TYPE videodrift_selections_started_total counter
videodrift_selections_started_total 0
# HELP videodrift_selections_total Model-selection runs resolved after a drift.
# TYPE videodrift_selections_total counter
videodrift_selections_total 0
# HELP videodrift_models_trained_total Models trained mid-stream on novel distributions.
# TYPE videodrift_models_trained_total counter
videodrift_models_trained_total 0
# HELP videodrift_model_deployments_total Model deployments (including the initial one).
# TYPE videodrift_model_deployments_total counter
videodrift_model_deployments_total 1
# HELP videodrift_checkpoints_total Monitor checkpoints persisted to the state store.
# TYPE videodrift_checkpoints_total counter
videodrift_checkpoints_total 0
# HELP videodrift_quarantined_frames_total Malformed frames rejected by the admission gate.
# TYPE videodrift_quarantined_frames_total counter
videodrift_quarantined_frames_total 0
# HELP videodrift_worker_restarts_total Shard workers restarted by the supervisor after a panic.
# TYPE videodrift_worker_restarts_total counter
videodrift_worker_restarts_total 0
# HELP videodrift_training_failures_total Failed post-drift training attempts.
# TYPE videodrift_training_failures_total counter
videodrift_training_failures_total 0
# HELP videodrift_checkpoint_failures_total Failed checkpoint write attempts.
# TYPE videodrift_checkpoint_failures_total counter
videodrift_checkpoint_failures_total 0
# HELP videodrift_events_total Structured events recorded, by kind.
# TYPE videodrift_events_total counter
videodrift_events_total{kind="frame_observed"} 2
videodrift_events_total{kind="martingale_update"} 1
videodrift_events_total{kind="drift_declared"} 1
videodrift_events_total{kind="selection_started"} 0
videodrift_events_total{kind="selection_resolved"} 0
videodrift_events_total{kind="model_trained"} 0
videodrift_events_total{kind="model_deployed"} 1
videodrift_events_total{kind="checkpoint_saved"} 0
videodrift_events_total{kind="frame_quarantined"} 0
videodrift_events_total{kind="worker_restarted"} 0
videodrift_events_total{kind="training_failed"} 0
videodrift_events_total{kind="checkpoint_failed"} 0
videodrift_events_total{kind="health_changed"} 0
videodrift_events_total{kind="replica_delta_sent"} 0
videodrift_events_total{kind="replica_delta_applied"} 0
videodrift_events_total{kind="replica_promoted"} 0
# HELP videodrift_degraded Degradation state (0 ok, 1 degraded, 2 failed).
# TYPE videodrift_degraded gauge
videodrift_degraded 0
# HELP videodrift_martingale_value Current CUSUM martingale value S_l.
# TYPE videodrift_martingale_value gauge
videodrift_martingale_value 8
# HELP videodrift_martingale_window_delta Current windowed martingale growth |S_l - S_l-W|.
# TYPE videodrift_martingale_window_delta gauge
videodrift_martingale_window_delta 6.5
# HELP videodrift_mean_p_value Mean conformal p-value since the inspector's last reset.
# TYPE videodrift_mean_p_value gauge
videodrift_mean_p_value 0.1
# HELP videodrift_deployed_model Currently deployed model (value is always 1).
# TYPE videodrift_deployed_model gauge
videodrift_deployed_model{model="night"} 1
# HELP videodrift_stage_latency_seconds Per-stage latency quantiles (log-bucket interpolated).
# TYPE videodrift_stage_latency_seconds summary
videodrift_stage_latency_seconds{stage="featurize",quantile="0.5"} 2.048e-06
videodrift_stage_latency_seconds{stage="featurize",quantile="0.95"} 2.5e-06
videodrift_stage_latency_seconds{stage="featurize",quantile="0.99"} 2.5e-06
videodrift_stage_latency_seconds_sum{stage="featurize"} 4e-06
videodrift_stage_latency_seconds_count{stage="featurize"} 2
videodrift_stage_latency_seconds{stage="classify",quantile="0.5"} 4.096e-06
videodrift_stage_latency_seconds{stage="classify",quantile="0.95"} 4.096e-06
videodrift_stage_latency_seconds{stage="classify",quantile="0.99"} 4.096e-06
videodrift_stage_latency_seconds_sum{stage="classify"} 4.096e-06
videodrift_stage_latency_seconds_count{stage="classify"} 1
# HELP videodrift_stage_latency_max_seconds Largest single observation per stage.
# TYPE videodrift_stage_latency_max_seconds gauge
videodrift_stage_latency_max_seconds{stage="featurize"} 2.5e-06
videodrift_stage_latency_max_seconds{stage="classify"} 4.096e-06
# HELP videodrift_stage_latency_hist_seconds Per-stage latency as a cumulative log-bucket histogram.
# TYPE videodrift_stage_latency_hist_seconds histogram
videodrift_stage_latency_hist_seconds_bucket{stage="featurize",le="2.048e-06"} 1
videodrift_stage_latency_hist_seconds_bucket{stage="featurize",le="4.096e-06"} 2
videodrift_stage_latency_hist_seconds_bucket{stage="featurize",le="+Inf"} 2
videodrift_stage_latency_hist_seconds_sum{stage="featurize"} 4e-06
videodrift_stage_latency_hist_seconds_count{stage="featurize"} 2
videodrift_stage_latency_hist_seconds_bucket{stage="classify",le="8.192e-06"} 1
videodrift_stage_latency_hist_seconds_bucket{stage="classify",le="+Inf"} 1
videodrift_stage_latency_hist_seconds_sum{stage="classify"} 4.096e-06
videodrift_stage_latency_hist_seconds_count{stage="classify"} 1
`
	if got := b.String(); got != golden {
		t.Errorf("Prometheus exposition drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", got, golden)
	}
}

// TestProcessPrometheusGolden locks the process families the same way.
// The runtime's samples are whatever the runtime says; each line is
// checked for a plausible value, then masked.
func TestProcessPrometheusGolden(t *testing.T) {
	var b strings.Builder
	if err := WriteFamilies(&b, Process{RegistryModels: 7, RetainedFrames: 72, RetainedBytes: 589824, RingEvents: 5, RingCapacity: 4096}.Families()); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(b.String(), "\n")
	for _, rt := range []struct {
		family string
		min    uint64
	}{
		{"videodrift_go_heap_objects_bytes ", 1 << 10},
		{"videodrift_go_gc_cycles_total ", 0},
		{"videodrift_go_heap_allocs_bytes_total ", 1 << 10},
	} {
		found := false
		for i, line := range lines {
			value, ok := strings.CutPrefix(line, rt.family)
			if !ok {
				continue
			}
			found = true
			if n, err := strconv.ParseUint(strings.TrimSuffix(value, "\n"), 10, 64); err != nil || n < rt.min || n > 1<<50 {
				t.Errorf("%s sample %q is not a plausible count (%v)", rt.family, value, err)
			}
			lines[i] = rt.family + "N\n"
		}
		if !found {
			t.Errorf("no %s sample in:\n%s", rt.family, b.String())
		}
	}
	const golden = `# HELP videodrift_registry_models Models in the fleet's shared table: the provisioned ones plus every model trained since.
# TYPE videodrift_registry_models gauge
videodrift_registry_models 7
# HELP videodrift_forensics_retained_frames Frames the forensics recorders hold, in open pre-rolls and retained declarations: the frames kept, the ones the inspector read.
# TYPE videodrift_forensics_retained_frames gauge
videodrift_forensics_retained_frames 72
# HELP videodrift_forensics_retained_bytes Pixel bytes of the frames the forensics recorders hold.
# TYPE videodrift_forensics_retained_bytes gauge
videodrift_forensics_retained_bytes 589824
# HELP videodrift_events_ring_events Events held in the tracers' rings.
# TYPE videodrift_events_ring_events gauge
videodrift_events_ring_events 5
# HELP videodrift_events_ring_capacity Events the tracers' rings may hold (-ring per tracer); slots are allocated as events arrive.
# TYPE videodrift_events_ring_capacity gauge
videodrift_events_ring_capacity 4096
# HELP videodrift_go_heap_objects_bytes Heap memory occupied by objects, live or not yet swept (runtime/metrics /memory/classes/heap/objects:bytes).
# TYPE videodrift_go_heap_objects_bytes gauge
videodrift_go_heap_objects_bytes N
# HELP videodrift_go_gc_cycles_total Garbage-collection cycles completed since the process started (runtime/metrics /gc/cycles/total:gc-cycles).
# TYPE videodrift_go_gc_cycles_total counter
videodrift_go_gc_cycles_total N
# HELP videodrift_go_heap_allocs_bytes_total Bytes allocated on the heap since the process started (runtime/metrics /gc/heap/allocs:bytes).
# TYPE videodrift_go_heap_allocs_bytes_total counter
videodrift_go_heap_allocs_bytes_total N
`
	if masked := strings.Join(lines, ""); masked != golden {
		t.Errorf("process exposition drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", masked, golden)
	}
}

// FuzzLabelValue holds the writer's label escaping to the text format
// for any bytes a label value may hold — a tenant id arrives off the
// wire: the family is one sample line, and a strict reader of the format
// reads the value back with invalid UTF-8 as U+FFFD.
func FuzzLabelValue(f *testing.F) {
	for _, v := range []string{"cam-0", "", "cam\t\xff\u200b", `a"b\c`, "x\ny\r", `\n`, "\xff\xfe\"\\", "\ufffd"} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v string) {
		var b strings.Builder
		if err := WriteFamilies(&b, []Family{Gauge("g", "", Int(1, "tenant", v))}); err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitAfter(b.String(), "\n")
		if len(lines) != 3 || lines[0] != "# TYPE g gauge\n" || lines[2] != "" {
			t.Fatalf("label value %q: want a TYPE line and one sample line, got %q", v, lines)
		}
		body, ok := strings.CutPrefix(lines[1], `g{tenant="`)
		if body, ok = strings.CutSuffix(body, "\"} 1\n"); !ok {
			t.Fatalf("label value %q: sample line %q", v, lines[1])
		}
		got, err := unescapeLabel(body)
		if want := strings.ToValidUTF8(v, "\uFFFD"); err != nil || got != want {
			t.Fatalf("label value %q: written %q, read back %q (%v), want %q", v, body, got, err, want)
		}
	})
}

// unescapeLabel reads a label value's body as the text format defines
// it: UTF-8, no raw double quote or newline, and a backslash only before
// a backslash, a double quote or n.
func unescapeLabel(s string) (string, error) {
	if !utf8.ValidString(s) {
		return "", errors.New("invalid UTF-8")
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\n':
			return "", fmt.Errorf("raw %q at byte %d", c, i)
		case c != '\\':
			b.WriteByte(c)
		case i+1 < len(s) && (s[i+1] == '\\' || s[i+1] == '"'):
			i++
			b.WriteByte(s[i])
		case i+1 < len(s) && s[i+1] == 'n':
			i++
			b.WriteByte('\n')
		default:
			return "", fmt.Errorf("bad escape at byte %d", i)
		}
	}
	return b.String(), nil
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	tr := New(Config{})
	tr.FrameObserved(StateMonitoring)
	tr.ObserveStage(StageSelect, 2*time.Millisecond)
	tr.SelectionResolved("MSBO", "rain", 10, []Candidate{{Model: "rain", Brier: 0.04}})

	var b strings.Builder
	if err := tr.WriteJSONTo(&b); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal([]byte(b.String()), &s); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if s.Frames != 1 || s.Selections != 1 || len(s.Stages) != 1 || s.Stages[0].Stage != "select" {
		t.Errorf("round-tripped snapshot wrong: %+v", s)
	}
}

// --- Concurrency (meaningful under -race) ---

func TestTracerConcurrentUse(t *testing.T) {
	tr := New(Config{RingSize: 64, PerFrame: true})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.FrameObserved(StateMonitoring)
				tr.ObserveStage(StageFeaturize, time.Microsecond)
				if i%50 == 0 {
					tr.DriftDeclared("m", i, i/10, 1, 1, 0.5, nil)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			_ = tr.Snapshot()
			_ = tr.Events()
			var b strings.Builder
			_ = tr.WritePrometheusTo(&b)
		}
	}()
	wg.Wait()
	s := tr.Snapshot()
	if s.Frames != 2000 || s.Drifts != 40 {
		t.Errorf("lost updates under concurrency: %+v", s)
	}
}

// TestCheckpointSaved covers the checkpoint telemetry surface: the
// counter, the freshness gauge, the stage histogram and the ringed
// event.
func TestCheckpointSaved(t *testing.T) {
	now := time.Unix(1700000000, 0)
	tr := New(Config{RingSize: 8, Now: func() time.Time { return now }})
	tr.CheckpointSaved("/state/checkpoint-00000001.vdc", 12345, 3*time.Millisecond)
	now = now.Add(2 * time.Second)

	s := tr.Snapshot()
	if s.Checkpoints != 1 {
		t.Errorf("Checkpoints = %d, want 1", s.Checkpoints)
	}
	if s.LastCheckpointUnixNano != time.Unix(1700000000, 0).UnixNano() {
		t.Errorf("LastCheckpointUnixNano = %d", s.LastCheckpointUnixNano)
	}
	var b strings.Builder
	if err := s.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "videodrift_checkpoints_total 1\n") {
		t.Error("checkpoint counter missing from Prometheus output")
	}
	if !strings.Contains(b.String(), "videodrift_last_checkpoint_age_seconds 2\n") {
		t.Errorf("age gauge missing or wrong:\n%s", b.String())
	}
	found := false
	for _, st := range s.Stages {
		if st.Stage == "checkpoint" && st.Count == 1 {
			found = true
		}
	}
	if !found {
		t.Error("checkpoint stage latency not recorded")
	}
	evs := tr.Events()
	if len(evs) != 1 || evs[0].Kind != KindCheckpointSaved ||
		evs[0].Path != "/state/checkpoint-00000001.vdc" || evs[0].Bytes != 12345 {
		t.Errorf("ringed event = %+v", evs)
	}
}

// TestFaultTelemetry covers the fault/degradation surface: counters,
// ringed event fields, health-transition dedup, and the Prometheus
// families the chaos suite and /healthz rely on.
func TestFaultTelemetry(t *testing.T) {
	tr := New(Config{RingSize: 16})
	tr.FrameQuarantined("bad dimensions: got 8 pixels, want 256")
	tr.FrameQuarantined("non-finite pixel")
	tr.WorkerRestarted(3, 1, "worker panic: injected")
	tr.TrainingFailed("novel-1", 2, "injected training fault")
	tr.CheckpointFailed(1, "injected write failure")
	tr.HealthChanged(HealthDegraded, "training failing")
	tr.HealthChanged(HealthDegraded, "still failing") // duplicate: dropped
	tr.HealthChanged(HealthOK, "recovered")

	s := tr.Snapshot()
	if s.Quarantined != 2 || s.WorkerRestarts != 1 || s.TrainingFailures != 1 || s.CheckpointFailures != 1 {
		t.Errorf("fault counters wrong: %+v", s)
	}
	if s.Health != HealthOK {
		t.Errorf("Health = %v, want ok", s.Health)
	}
	if tr.Health() != HealthOK {
		t.Errorf("Tracer.Health = %v, want ok", tr.Health())
	}

	evs := tr.Events()
	var healthEvents []Event
	var restart *Event
	for i, e := range evs {
		switch e.Kind {
		case KindHealthChanged:
			healthEvents = append(healthEvents, e)
		case KindWorkerRestarted:
			restart = &evs[i]
		}
	}
	if len(healthEvents) != 2 {
		t.Fatalf("health transitions = %d, want 2 (duplicate dropped): %+v", len(healthEvents), healthEvents)
	}
	if healthEvents[0].Health != "degraded" || healthEvents[1].Health != "ok" {
		t.Errorf("health transition sequence wrong: %+v", healthEvents)
	}
	if restart == nil || restart.Shard != 3 || restart.Attempt != 1 || restart.Reason != "worker panic: injected" {
		t.Errorf("restart event = %+v", restart)
	}

	var b strings.Builder
	if err := s.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"videodrift_quarantined_frames_total 2\n",
		"videodrift_worker_restarts_total 1\n",
		"videodrift_training_failures_total 1\n",
		"videodrift_checkpoint_failures_total 1\n",
		"videodrift_degraded 0\n",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("Prometheus output missing %q:\n%s", want, b.String())
		}
	}

	tr.HealthChanged(HealthFailed, "crash loop")
	var b2 strings.Builder
	if err := tr.WritePrometheusTo(&b2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b2.String(), "videodrift_degraded 2\n") {
		t.Errorf("degraded gauge did not follow failure:\n%s", b2.String())
	}
}

// TestHealthJSONRoundTrip locks the Health JSON encoding.
func TestHealthJSONRoundTrip(t *testing.T) {
	for h := Health(0); h < healthCount; h++ {
		raw, err := json.Marshal(h)
		if err != nil {
			t.Fatal(err)
		}
		var back Health
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		if back != h {
			t.Errorf("health %v round-tripped to %v", h, back)
		}
	}
	var bad Health
	if err := json.Unmarshal([]byte(`"wedged"`), &bad); err == nil {
		t.Error("unknown health name decoded without error")
	}
}

// TestEnumJSONRoundTrip exhaustively round-trips every value of every
// exported enum through JSON: each value must encode to a distinct,
// non-numeric name and decode back to itself, and an unknown name must
// be rejected — so exported snapshots stay greppable and new enum values
// cannot ship without a name.
func TestEnumJSONRoundTrip(t *testing.T) {
	seen := map[string]bool{}
	roundTrip := func(enum string, v json.Marshaler, decodeInto func([]byte) (any, error)) {
		t.Helper()
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("%s %v: %v", enum, v, err)
		}
		var name string
		if err := json.Unmarshal(raw, &name); err != nil || name == "" {
			t.Fatalf("%s %v encoded to %s, want a non-empty string", enum, v, raw)
		}
		if key := enum + "/" + name; seen[key] {
			t.Errorf("%s name %q is not distinct", enum, name)
		} else {
			seen[key] = true
		}
		back, err := decodeInto(raw)
		if err != nil {
			t.Fatalf("%s: decode %s: %v", enum, raw, err)
		}
		if back != any(v) {
			t.Errorf("%s %v round-tripped to %v", enum, v, back)
		}
	}
	for k := Kind(0); k < kindCount; k++ {
		roundTrip("kind", k, func(raw []byte) (any, error) {
			var back Kind
			err := json.Unmarshal(raw, &back)
			return back, err
		})
	}
	for s := State(0); s < stateCount; s++ {
		roundTrip("state", s, func(raw []byte) (any, error) {
			var back State
			err := json.Unmarshal(raw, &back)
			return back, err
		})
	}
	for h := Health(0); h < healthCount; h++ {
		roundTrip("health", h, func(raw []byte) (any, error) {
			var back Health
			err := json.Unmarshal(raw, &back)
			return back, err
		})
	}
	// Snapshot's EventCounts walks every kind: one event of each is one
	// counter each, in enum order.
	tr := New(Config{RingSize: 1})
	for k := Kind(0); k < kindCount; k++ {
		tr.emit(Event{Kind: k}, false)
	}
	counts := tr.Snapshot().EventCounts
	if len(counts) != int(kindCount) {
		t.Fatalf("EventCounts with every kind counted = %d entries, want %d", len(counts), kindCount)
	}
	for k, c := range counts {
		if c.Kind != Kind(k).String() || c.Count != 1 {
			t.Errorf("EventCounts[%d] = %+v, want {%s 1}", k, c, Kind(k))
		}
	}
	var k Kind
	if err := json.Unmarshal([]byte(`"not_a_kind"`), &k); err == nil {
		t.Error("unknown kind name decoded without error")
	}
	var s State
	if err := json.Unmarshal([]byte(`"daydreaming"`), &s); err == nil {
		t.Error("unknown state name decoded without error")
	}
}

// TestHistogramQuantilePinned pins the interpolation math on a
// hand-computed distribution: 4 observations of 100 ns (bucket [64,128)),
// 4 of 1000 ns (bucket [512,1024)) and 2 of 10000 ns (bucket
// [8192,16384)). Rank r inside a bucket with c observations and bounds
// [lo, hi) interpolates to lo + (hi−lo)·r/c, capped at the exact max.
func TestHistogramQuantilePinned(t *testing.T) {
	var h Histogram
	for i := 0; i < 4; i++ {
		h.Observe(100 * time.Nanosecond)
	}
	for i := 0; i < 4; i++ {
		h.Observe(1000 * time.Nanosecond)
	}
	for i := 0; i < 2; i++ {
		h.Observe(10000 * time.Nanosecond)
	}
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{
		{0, 80},      // rank 1 of 4 in [64,128): 64 + 64·1/4
		{0.3, 112},   // rank 3 of 4 in [64,128): 64 + 64·3/4
		{0.5, 640},   // rank 5 → rank 1 of 4 in [512,1024): 512 + 512·1/4
		{0.8, 1024},  // rank 8 → rank 4 of 4 in [512,1024): the bucket's hi
		{0.9, 10000}, // rank 9 interpolates past the max and is capped to it
		{1, 10000},   // exact max
	} {
		if got := h.Quantile(tc.q); got != tc.want {
			t.Errorf("Quantile(%g) = %v, want %vns", tc.q, got, tc.want)
		}
	}

	// The same distribution's cumulative export: one entry per occupied
	// bucket, counts monotone, last count == total, bounds in seconds.
	want := []BucketCount{
		{LeSeconds: 128e-9, Count: 4},
		{LeSeconds: 1024e-9, Count: 8},
		{LeSeconds: 16384e-9, Count: 10},
	}
	got := h.snapshot("pinned").Buckets
	if len(got) != len(want) {
		t.Fatalf("cumulative buckets %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}
