package videodrift

import (
	"strings"
	"testing"

	"videodrift/internal/core"
	"videodrift/internal/dataset"
	"videodrift/internal/experiments"
	"videodrift/internal/telemetry"
	"videodrift/internal/vidsim"
)

// TestTelemetryDriftEventsMatchBDD runs the unsupervised pipeline over the
// BDD analog and checks that every ground-truth drift point produces a
// DriftDeclared trace event within the detector's nominal lag budget of
// W × SampleEvery frames — the telemetry analog of the paper's BDD
// detection-lag experiment (Table 2 reports ≈28-frame lags; our stride-10
// sampling bounds the lag at 40).
func TestTelemetryDriftEventsMatchBDD(t *testing.T) {
	ds := dataset.BDD(0.01)
	cfg := experiments.QuickConfig()
	env := experiments.BuildEnvUnsupervised(ds, cfg)

	// The BDD warmup segment runs under the LAST condition in the
	// registry, but the pipeline deploys the first entry; rotate so the
	// deployed model matches the warmup distribution.
	ents := env.Registry.Entries()
	reordered := append([]*core.ModelEntry{ents[len(ents)-1]}, ents[:len(ents)-1]...)
	reg := core.NewRegistry(reordered...)

	pcfg := core.DefaultPipelineConfig(ds.FrameDim(), 2)
	pcfg.Selector = core.SelectorMSBI
	pcfg.Provision = env.Provision
	pcfg.NewModelFrames = cfg.TrainFrames
	tr := telemetry.New(telemetry.Config{RingSize: 8192})
	pcfg.Tracer = tr

	pipe := core.NewPipeline(reg, nil, pcfg)
	stream := ds.Stream()
	for {
		f, ok := stream.Next()
		if !ok {
			break
		}
		pipe.Process(f)
	}

	dic := core.DefaultDIConfig()
	tol := dic.W * dic.SampleEvery

	var declared []int
	var lags []int
	for _, e := range tr.Events() {
		if e.Kind == telemetry.KindDriftDeclared {
			declared = append(declared, e.Frame)
			lags = append(lags, e.Lag)
		}
	}
	drifts := stream.DriftPoints()
	if len(declared) != len(drifts) {
		t.Fatalf("declared %d drifts at frames %v, want %d at points %v",
			len(declared), declared, len(drifts), drifts)
	}
	for i, dp := range drifts {
		frame := declared[i]
		if frame <= dp || frame > dp+tol {
			t.Errorf("drift %d declared at frame %d, want within (%d, %d]", i, frame, dp, dp+tol)
		}
		// The event's lag field counts frames observed since the
		// inspector's last reset; the reset happened at or before the
		// drift point, so the observation span must cover the true lag.
		if lags[i] < frame-dp {
			t.Errorf("drift %d reports lag %d, shorter than true lag %d", i, lags[i], frame-dp)
		}
	}

	// Each drift should resolve a selection; the counters must line up
	// with the pipeline's own metrics.
	s := tr.Snapshot()
	m := pipe.Metrics()
	if s.Drifts != uint64(m.DriftsDetected) {
		t.Errorf("tracer drifts %d != pipeline metrics %d", s.Drifts, m.DriftsDetected)
	}
	if s.Selections != uint64(m.ModelsSelected) {
		t.Errorf("tracer selections %d != pipeline metrics %d", s.Selections, m.ModelsSelected)
	}
	if m.SelectingFrames == 0 {
		t.Error("Metrics.SelectingFrames stayed 0 across drifts")
	}
	if s.Frames != uint64(m.Frames) {
		t.Errorf("tracer frames %d != pipeline frames %d", s.Frames, m.Frames)
	}
}

// TestFacadeTelemetry exercises the public wiring: Options.Tracer flows to
// Monitor.Telemetry(), per-state frame accounting reaches Stats(), and
// the Prometheus export carries the documented metric names.
func TestFacadeTelemetry(t *testing.T) {
	opts := Defaults(facadeDim, facadeClasses)
	day := BuildModel("day", facadeFrames(facadeCond(vidsim.Day()), 200, 1), facadeLabeler, opts)
	night := BuildModel("night", facadeFrames(facadeCond(vidsim.Night()), 200, 2), facadeLabeler, opts)

	tracer := NewTracer(TracerConfig{RingSize: 512})
	opts.Tracer = tracer
	dayStream := vidsim.GenerateTrainingStride(facadeCond(vidsim.Day()), 16, 16, 150, 1, 3)
	nightStream := vidsim.GenerateTrainingStride(facadeCond(vidsim.Night()), 16, 16, 250, 1, 4)
	mon := NewMonitor([]*Model{day, night}, truthOracle(t, dayStream, nightStream), opts)
	if mon.Telemetry() != tracer {
		t.Fatal("Monitor.Telemetry() did not return the configured tracer")
	}

	for _, f := range dayStream {
		mon.Process(f)
	}
	switched := false
	for _, f := range nightStream {
		if ev := mon.Process(f); ev.SwitchedTo == "night" {
			switched = true
			break
		}
	}
	if !switched {
		t.Fatal("monitor never deployed the night model")
	}

	st := mon.Stats()
	if st.SelectingFrames == 0 {
		t.Errorf("Stats().SelectingFrames = 0 after a drift; stats = %+v", st)
	}
	snap := tracer.Snapshot()
	if snap.Drifts == 0 || snap.Selections == 0 || snap.Deployments < 2 {
		t.Errorf("snapshot counters wrong: %+v", snap)
	}
	if snap.Model != "night" {
		t.Errorf("snapshot deployed model = %q", snap.Model)
	}
	if got := uint64(st.Frames); snap.Frames != got {
		t.Errorf("tracer frames %d != Stats().Frames %d", snap.Frames, got)
	}

	var b strings.Builder
	if err := tracer.WritePrometheusTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, name := range []string{
		"videodrift_drifts_total 1",
		`videodrift_stage_latency_seconds{stage="featurize",quantile="0.5"}`,
		`videodrift_stage_latency_seconds{stage="classify",quantile="0.99"}`,
		"videodrift_martingale_value ",
		`videodrift_deployed_model{model="night"} 1`,
	} {
		if !strings.Contains(out, name) {
			t.Errorf("Prometheus output missing %q", name)
		}
	}
}
