package core

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"videodrift/internal/stats"
	"videodrift/internal/telemetry"
	"videodrift/internal/vidsim"
)

// corruptNaN returns a copy of the frame with one NaN pixel.
func corruptNaN(f vidsim.Frame) vidsim.Frame {
	f.Pixels = append([]float64(nil), f.Pixels...)
	f.Pixels[len(f.Pixels)/2] = math.NaN()
	return f
}

// corruptShort returns a copy of the frame with a truncated pixel
// vector.
func corruptShort(f vidsim.Frame) vidsim.Frame {
	f.Pixels = append([]float64(nil), f.Pixels[:len(f.Pixels)/2]...)
	f.W, f.H = 0, 0 // geometry metadata lost too
	return f
}

// corruptDims returns a copy of the frame declaring the wrong geometry.
func corruptDims(f vidsim.Frame) vidsim.Frame {
	f.W *= 2
	return f
}

func TestFrameProblem(t *testing.T) {
	good := streamFrames(dayC(), 1, 301)[0]
	if reason := FrameProblem(good, testW, testH); reason != "" {
		t.Fatalf("well-formed frame rejected: %s", reason)
	}
	inf := good
	inf.Pixels = append([]float64(nil), inf.Pixels...)
	inf.Pixels[0] = math.Inf(-1)
	for name, bad := range map[string]vidsim.Frame{
		"nan":   corruptNaN(good),
		"short": corruptShort(good),
		"dims":  corruptDims(good),
		"inf":   inf,
	} {
		if FrameProblem(bad, testW, testH) == "" {
			t.Errorf("%s frame admitted", name)
		}
	}
}

// TestAdmissionGateEquivalence is the quarantine invariant: a pipeline
// fed good frames interleaved with malformed ones ends bit-identical —
// martingale, RNG position, deployments — to a pipeline that never saw
// the bad frames.
func TestAdmissionGateEquivalence(t *testing.T) {
	fx := getFixture()
	stream := append(streamFrames(dayC(), 80, 302), streamFrames(nightC(), 120, 303)...)
	label := truthOracle(t, stream)
	mkPipe := func() *Pipeline {
		cfg := DefaultPipelineConfig(testDim, testNumClasses)
		cfg.Provision = quickProvision(51)
		return NewPipeline(NewRegistry(fx.day, fx.night), label, cfg)
	}
	dirty, clean := mkPipe(), mkPipe()

	tr := telemetry.New(telemetry.Config{})
	dirtyTraced := func() *Pipeline {
		cfg := DefaultPipelineConfig(testDim, testNumClasses)
		cfg.Provision = quickProvision(51)
		cfg.Tracer = tr
		return NewPipeline(NewRegistry(fx.day, fx.night), label, cfg)
	}()

	quarantined := 0
	for i, f := range stream {
		bad := f
		switch i % 7 {
		case 2:
			bad = corruptNaN(f)
		case 5:
			bad = corruptShort(f)
		}
		if i%7 == 2 || i%7 == 5 {
			for _, p := range []*Pipeline{dirty, dirtyTraced} {
				out := p.Process(bad)
				if !out.Quarantined || out.Invocations != 0 {
					t.Fatalf("frame %d: malformed frame not quarantined: %+v", i, out)
				}
			}
			quarantined++
		}
		a, b, c := dirty.Process(f), clean.Process(f), dirtyTraced.Process(f)
		if a != b || c.Quarantined != a.Quarantined || c.SwitchedTo != a.SwitchedTo || c.Drift != a.Drift {
			t.Fatalf("frame %d: outcomes diverge: dirty=%+v clean=%+v traced=%+v", i, a, b, c)
		}
	}
	if dirty.Current() != clean.Current() {
		t.Errorf("deployed models diverge: %q vs %q", dirty.Current().Name, clean.Current().Name)
	}
	if !reflect.DeepEqual(dirty.Snapshot().DI, clean.Snapshot().DI) {
		t.Error("drift-inspector state diverges after quarantined frames")
	}
	md, mc := dirty.Metrics(), clean.Metrics()
	if md.QuarantinedFrames != quarantined {
		t.Errorf("QuarantinedFrames = %d, want %d", md.QuarantinedFrames, quarantined)
	}
	if md.Frames != mc.Frames+quarantined || md.ModelInvocations != mc.ModelInvocations {
		t.Errorf("metrics diverge: dirty=%+v clean=%+v", md, mc)
	}
	s := tr.Snapshot()
	if s.Quarantined != uint64(quarantined) {
		t.Errorf("telemetry Quarantined = %d, want %d", s.Quarantined, quarantined)
	}
}

// TestDIObserveRejectsMalformed covers the DriftInspector.Observe
// boundary directly (the only gate for callers not going through a
// pipeline).
func TestDIObserveRejectsMalformed(t *testing.T) {
	fx := getFixture()
	cfg := DefaultDIConfig()
	cfg.SampleEvery = 1
	di := NewDriftInspector(fx.day, cfg, stats.NewRNG(9))
	for _, f := range streamFrames(dayC(), 20, 304) {
		di.Observe(f.Pixels)
	}
	before := di.Snapshot()

	bad := append([]float64(nil), streamFrames(dayC(), 1, 305)[0].Pixels...)
	bad[3] = math.NaN()
	if di.Observe(bad) {
		t.Fatal("malformed pixels declared a drift")
	}
	if di.Observe(bad[:10]) {
		t.Fatal("short pixels declared a drift")
	}
	if di.Quarantined() != 2 {
		t.Errorf("Quarantined = %d, want 2", di.Quarantined())
	}
	after := di.Snapshot()
	if !reflect.DeepEqual(before.Mart, after.Mart) || before.Sampled != after.Sampled ||
		before.PSum != after.PSum || before.RNG != after.RNG {
		t.Errorf("malformed pixels touched martingale state: before=%+v after=%+v", before, after)
	}
	if math.IsNaN(di.MartingaleValue()) || math.IsNaN(di.MeanP()) {
		t.Error("NaN leaked into martingale state")
	}
}

// TestTrainingRetryThenRecovery injects two training failures and
// asserts the pipeline retries with frame-count backoff, trains on the
// third attempt, and reports degraded → ok health transitions.
func TestTrainingRetryThenRecovery(t *testing.T) {
	fx := getFixture()
	tr := telemetry.New(telemetry.Config{})
	cfg := DefaultPipelineConfig(testDim, testNumClasses)
	cfg.Selector = SelectorMSBI
	cfg.Provision = quickProvision(52)
	cfg.NewModelFrames = 100
	cfg.TrainAttempts = 3
	cfg.TrainBackoffFrames = 8
	cfg.TrainBackoffCap = 16
	cfg.Tracer = tr
	failures := 0
	cfg.TrainFault = func() error {
		if failures < 2 {
			failures++
			return errors.New("injected training fault")
		}
		return nil
	}
	day, night := streamFrames(dayC(), 60, 306), streamFrames(nightC(), 600, 307)
	p := NewPipeline(NewRegistry(fx.day), truthOracle(t, day, night), cfg)
	for _, f := range day {
		p.Process(f)
	}
	trained := false
	for _, f := range night {
		if out := p.Process(f); out.TrainedNew {
			trained = true
			break
		}
	}
	if !trained {
		t.Fatal("pipeline never recovered from injected training failures")
	}
	m := p.Metrics()
	if m.TrainingFailures != 2 || m.ModelsTrained != 1 {
		t.Errorf("metrics = %+v, want 2 failures then 1 trained", m)
	}
	s := tr.Snapshot()
	if s.TrainingFailures != 2 {
		t.Errorf("telemetry TrainingFailures = %d", s.TrainingFailures)
	}
	if s.Health != telemetry.HealthOK {
		t.Errorf("health = %v after recovery, want ok", s.Health)
	}
	degraded := false
	for _, e := range tr.Events() {
		if e.Kind == telemetry.KindHealthChanged && e.Health == "degraded" {
			degraded = true
		}
	}
	if !degraded {
		t.Error("no degraded health transition was traced")
	}
}

// TestTrainingDegradedMode exhausts all training attempts and asserts
// the pipeline degrades instead of wedging: the deployed model keeps
// serving, monitoring resumes (the state machine leaves stateTraining),
// and health reports degraded.
func TestTrainingDegradedMode(t *testing.T) {
	fx := getFixture()
	tr := telemetry.New(telemetry.Config{})
	cfg := DefaultPipelineConfig(testDim, testNumClasses)
	cfg.Selector = SelectorMSBI
	cfg.Provision = quickProvision(53)
	cfg.NewModelFrames = 80
	cfg.TrainAttempts = 2
	cfg.TrainBackoffFrames = 4
	cfg.TrainBackoffCap = 8
	cfg.Tracer = tr
	cfg.TrainFault = func() error { return errors.New("persistent training fault") }
	p := NewPipeline(NewRegistry(fx.day), testLabeler, cfg)
	for _, f := range streamFrames(dayC(), 60, 308) {
		p.Process(f)
	}
	for _, f := range streamFrames(nightC(), 800, 309) {
		if out := p.Process(f); out.TrainedNew {
			t.Fatal("training succeeded despite a persistent fault")
		}
	}
	if p.Current() != fx.day {
		t.Errorf("deployed model = %q, want the original day model still serving", p.Current().Name)
	}
	m := p.Metrics()
	if m.TrainingFailures < 2 || m.ModelsTrained != 0 {
		t.Errorf("metrics = %+v", m)
	}
	if p.Registry().Len() != 1 {
		t.Errorf("registry grew to %d entries despite failed training", p.Registry().Len())
	}
	if tr.Health() != telemetry.HealthDegraded {
		t.Errorf("health = %v, want degraded", tr.Health())
	}
	// Degraded mode resumed monitoring: the drift must have re-fired
	// after the first abandoned window (DI reset + persisting night
	// stream), proving the pipeline is not wedged in training.
	if m.DriftsDetected < 2 {
		t.Errorf("DriftsDetected = %d, want >= 2 (monitoring resumed after degrade)", m.DriftsDetected)
	}
}

// TestTrainingPanicIsCaught routes a panic out of the training path into
// the retry machinery.
func TestTrainingPanicIsCaught(t *testing.T) {
	fx := getFixture()
	cfg := DefaultPipelineConfig(testDim, testNumClasses)
	cfg.Selector = SelectorMSBI
	cfg.Provision = quickProvision(54)
	cfg.NewModelFrames = 80
	cfg.TrainAttempts = 1
	calls := 0
	cfg.TrainFault = func() error { calls++; panic("injected panic in training") }
	p := NewPipeline(NewRegistry(fx.day), testLabeler, cfg)
	for _, f := range streamFrames(dayC(), 60, 310) {
		p.Process(f)
	}
	for _, f := range streamFrames(nightC(), 400, 311) {
		p.Process(f)
	}
	if calls == 0 {
		t.Fatal("training path never reached")
	}
	if p.Metrics().TrainingFailures != calls {
		t.Errorf("TrainingFailures = %d, want %d", p.Metrics().TrainingFailures, calls)
	}
}

// TestSnapshotRoundTripMidRetry proves the training-retry state
// (TrainFails, RetryWait) survives a checkpoint: a restored pipeline
// behaves identically to the original from the snapshot point on.
func TestSnapshotRoundTripMidRetry(t *testing.T) {
	fx := getFixture()
	mkCfg := func() PipelineConfig {
		cfg := DefaultPipelineConfig(testDim, testNumClasses)
		cfg.Selector = SelectorMSBI
		cfg.Provision = quickProvision(55)
		cfg.NewModelFrames = 80
		cfg.TrainAttempts = 3
		cfg.TrainBackoffFrames = 16
		cfg.TrainBackoffCap = 64
		cfg.TrainFault = func() error { return errors.New("always failing") }
		return cfg
	}
	p := NewPipeline(NewRegistry(fx.day), testLabeler, mkCfg())
	stream := append(streamFrames(dayC(), 60, 312), streamFrames(nightC(), 500, 313)...)
	cut := -1
	for i, f := range stream {
		p.Process(f)
		if p.Metrics().TrainingFailures == 1 && cut < 0 {
			cut = i + 1
			break
		}
	}
	if cut < 0 {
		t.Fatal("never reached a mid-retry state")
	}
	snap := p.Snapshot()
	if snap.TrainFails != 1 || snap.RetryWait == 0 {
		t.Fatalf("snapshot retry state = fails %d wait %d, want mid-backoff", snap.TrainFails, snap.RetryWait)
	}
	q, err := RestorePipeline(p.Registry(), testLabeler, mkCfg(), snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range stream[cut:] {
		a, b := p.Process(f), q.Process(f)
		if a != b {
			t.Fatalf("restored pipeline diverges: %+v vs %+v", a, b)
		}
	}
	if p.Metrics() != q.Metrics() {
		t.Errorf("metrics diverge: %+v vs %+v", p.Metrics(), q.Metrics())
	}
}
