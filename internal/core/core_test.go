package core

import (
	"encoding/binary"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"videodrift/internal/classifier"
	"videodrift/internal/stats"
	"videodrift/internal/vae"
	"videodrift/internal/vidsim"
	"videodrift/internal/vision"
)

const (
	testW          = 16
	testH          = 16
	testDim        = testW * testH
	testNumClasses = 6
)

// testLabeler labels frames with their exact car count, capped — the
// paper's count query at core-test scale, with the oracle-annotator role
// played by ground truth (experiments wire the real detector here). Exact
// counts keep a constant-output model from ever matching a window, which
// is what MSBO's Brier separation relies on.
func testLabeler(f vidsim.Frame) int {
	c := f.CountClass(vidsim.Car)
	if c >= testNumClasses {
		c = testNumClasses - 1
	}
	return c
}

// truthOracle is testLabeler for the frames a pipeline keeps, which carry
// position and pixels only (vidsim.Frame.Keep): it recognises each frame
// of the given streams by its pixels and answers with the label its
// ground truth gives. A frame that still carries its ground truth — a
// provisioning clip — it labels from that. A kept frame no stream holds
// fails the test: labelled 0, it would turn a selection window or a
// training set into noise unseen.
func truthOracle(t testing.TB, streams ...[]vidsim.Frame) Labeler {
	labels := map[string]int{}
	for _, s := range streams {
		for _, f := range s {
			labels[pixelKey(f.Pixels)] = testLabeler(f)
		}
	}
	return func(f vidsim.Frame) int {
		if f.Condition != "" {
			return testLabeler(f)
		}
		l, ok := labels[pixelKey(f.Pixels)]
		if !ok {
			t.Errorf("labeler asked for frame %d, which no stream of the test holds", f.Index)
		}
		return l
	}
}

// pixelKey is a frame's pixels, bit for bit, as a map key.
func pixelKey(px []float64) string {
	b := make([]byte, 0, 8*len(px))
	for _, v := range px {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return string(b)
}

// lightTraffic scales a condition's vehicle rates down for the 16×16 test
// frames: at full Table-5 rates objects would cover ~40% of so small a
// frame and ordinary traffic bursts would dominate every frame statistic.
// (Experiments run 32×32 frames at full rates.)
func lightTraffic(c vidsim.Condition) vidsim.Condition {
	// Enough cars that empty-road frames are rare (rare modes need K
	// nearest neighbours in Σ to score as ordinary), few enough that the
	// 16×16 frames stay uncluttered. No buses: they confound
	// occupancy-based counting (1 bus ≈ 2.7 cars of pixel mass); the
	// experiments exercise the full mix.
	c.CarRate = 5.5
	c.BusRate = 0
	return c
}

func dayC() vidsim.Condition   { return lightTraffic(vidsim.Day()) }
func nightC() vidsim.Condition { return lightTraffic(vidsim.Night()) }
func rainC() vidsim.Condition  { return lightTraffic(vidsim.RainCond()) }

// quickProvision is a scaled-down ProvisionConfig that keeps test training
// fast.
func quickProvision(seed int64) ProvisionConfig {
	return ProvisionConfig{
		VAE:          vae.Config{InputDim: testDim, HiddenDim: 32, LatentDim: 6, Beta: 0.5, LR: 2e-3},
		VAEEpochs:    4,
		SampleCount:  80,
		K:            5,
		Classifier:   classifier.Config{InputDim: vision.QueryDim, HiddenDim: 24, NumClasses: testNumClasses, LR: 5e-3, Epochs: 30},
		EnsembleSize: 3,
		Seed:         seed,
	}
}

// fixture holds the expensive shared test setup: provisioned entries for
// day and night conditions.
type fixture struct {
	day, night, rain *ModelEntry
}

var (
	fixOnce sync.Once
	fix     fixture
)

func getFixture() fixture {
	fixOnce.Do(func() {
		dayFrames := vidsim.GenerateTraining(dayC(), testW, testH, 200, 11)
		nightFrames := vidsim.GenerateTraining(nightC(), testW, testH, 200, 12)
		rainFrames := vidsim.GenerateTraining(rainC(), testW, testH, 200, 13)
		fix.day = Provision("day", slices.Values(dayFrames), testLabeler, quickProvision(21))
		fix.night = Provision("night", slices.Values(nightFrames), testLabeler, quickProvision(22))
		fix.rain = Provision("rain", slices.Values(rainFrames), testLabeler, quickProvision(23))
	})
	return fix
}

// streamFrames renders a consecutive live clip (stride 1: full temporal
// correlation, unlike training data which is strided).
// fogCond is a condition genuinely novel relative to the fixture's three:
// objects are nearly invisible in fog (contrast ~= 0.05), so no fixture
// classifier's count features transfer (counting hidden objects from
// pixels is impossible), while the pixel distribution itself (uniform
// mid-gray, no dark-object mass) is distinct from day, night and rain.
func fogCond() vidsim.Condition {
	return vidsim.Condition{
		Name: "fog", Background: 0.50, BgNoise: 0.05, BgDrift: 0.004,
		CarRate: 5.5, BusRate: 0, Burst: 0.5,
		CarIntensity: 0.55, BusIntensity: 0.44, ObjNoise: 0.03,
		ObjScale: 1.2, BandLo: 0.2, BandHi: 0.6, SpeedX: 0.7, SpeedVar: 0.3,
	}
}

func streamFrames(cond vidsim.Condition, n int, seed int64) []vidsim.Frame {
	return vidsim.GenerateTrainingStride(cond, testW, testH, n, 1, seed)
}

func TestProvisionBuildsEntry(t *testing.T) {
	f := getFixture()
	e := f.day
	if e.Name != "day" {
		t.Errorf("name = %q", e.Name)
	}
	if len(e.SampleFeats) != 80 {
		t.Errorf("|Σ| = %d", len(e.SampleFeats))
	}
	if len(e.CalibRaw) != 120 || e.Calib.Len() != 120 {
		t.Errorf("calibration scores = %d/%d", len(e.CalibRaw), e.Calib.Len())
	}
	if e.Classifier == nil || e.Ensemble == nil {
		t.Error("supervised entry missing classifier or ensemble")
	}
	if e.Ensemble.Size() != 3 {
		t.Errorf("ensemble size = %d", e.Ensemble.Size())
	}
	if len(e.CalibSample) == 0 || len(e.CalibSample) > 32 {
		t.Errorf("calibration sample = %d", len(e.CalibSample))
	}
}

// TestServedDIConfigIsTested: the served detector parameters are the ones
// whose null alarm rate internal/conformal's
// TestCUSUMStaysSmallUnderUniform measures (its W = 4 row). Change them
// there, with the new design rate, before changing them here.
func TestServedDIConfigIsTested(t *testing.T) {
	if c := DefaultDIConfig(); c.W != 4 || c.Kappa != 4 || c.R != 0.5 {
		t.Errorf("DefaultDIConfig() = %+v, the tested configuration is W = 4, κ = 4, r = 0.5", c)
	}
}

func TestProvisionUnsupervised(t *testing.T) {
	frames := streamFrames(dayC(), 60, 13)
	e := Provision("unsup", slices.Values(frames), nil, quickProvision(23))
	if e.Classifier != nil || e.Ensemble != nil || e.CalibSample != nil {
		t.Error("unsupervised entry has supervised artifacts")
	}
	if len(e.SampleFeats) == 0 {
		t.Error("unsupervised entry missing Σ samples")
	}
}

func TestProvisionEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Provision with no frames did not panic")
		}
	}()
	Provision("x", slices.Values([]vidsim.Frame(nil)), nil, quickProvision(1))
}

func TestRegistry(t *testing.T) {
	f := getFixture()
	r := NewRegistry(f.day)
	r.Add(f.night)
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
	if r.Get("night") != f.night || r.Get("missing") != nil {
		t.Error("Get wrong")
	}
	names := r.Names()
	if names[0] != "day" || names[1] != "night" {
		t.Errorf("Names = %v", names)
	}
	if r.String() == "" {
		t.Error("String empty")
	}
}

func TestDriftInspectorNoFalsePositivesInDistribution(t *testing.T) {
	f := getFixture()
	di := NewDriftInspector(f.day, DefaultDIConfig(), stats.NewRNG(31))
	for i, frame := range streamFrames(dayC(), 400, 14) {
		if di.ObserveFrame(frame) {
			t.Fatalf("false drift on in-distribution frame %d", i)
		}
	}
	if di.Observed() != 400 {
		t.Errorf("Observed = %d", di.Observed())
	}
}

func TestDriftInspectorDetectsConditionSwitch(t *testing.T) {
	f := getFixture()
	di := NewDriftInspector(f.day, DefaultDIConfig(), stats.NewRNG(32))
	for _, frame := range streamFrames(dayC(), 100, 15) {
		if di.ObserveFrame(frame) {
			t.Fatal("false positive during day phase")
		}
	}
	lag := -1
	for i, frame := range streamFrames(nightC(), 60, 16) {
		if di.ObserveFrame(frame) {
			lag = i + 1
			break
		}
	}
	if lag < 0 {
		t.Fatal("drift never detected after day→night switch")
	}
	if lag > 55 {
		t.Errorf("detection lag = %d frames, want detection within ~W×SampleEvery", lag)
	}
	di.Reset()
	if di.Observed() != 0 || di.MartingaleValue() != 0 {
		t.Error("Reset left state behind")
	}
}

// TestInspectorReadsClassifierFeatures pins the hand-off in
// Pipeline.Process: the deployed classifier's front-end computes the
// frame's appearance features on the way to its query vector, and an
// inspector fed those traces the same p-values and martingale, update for
// update, as one featurizing every sampled frame itself — through a drift
// and its declaration, for both built-in front-ends.
func TestInspectorReadsClassifierFeatures(t *testing.T) {
	training := vidsim.GenerateTraining(dayC(), testW, testH, 200, 11)
	stream := append(streamFrames(dayC(), 120, 51), streamFrames(nightC(), 120, 52)...)
	type update struct{ p, value, delta float64 }
	for _, fn := range []vision.FeatureFunc{vision.QueryFeatures, vision.SpatialFeatures} {
		cfg := DefaultPipelineConfig(testDim, testNumClasses)
		cfg.Selector = SelectorMSBI
		cfg.Provision = quickProvision(21).For(SelectorMSBI)
		cfg.Provision.QueryFn = fn
		entry := Provision("day", slices.Values(training), testLabeler, cfg.Provision)
		p := NewPipeline(NewRegistry(entry), testLabeler, cfg)
		// The pipeline's inspector draws its tie-breaks from the first split
		// of the pipeline's generator.
		self := NewDriftInspector(entry, cfg.DI, stats.NewRNG(cfg.Seed).Split())
		var handed, featurized []update
		p.Inspector().SetProbe(func(pv, v, d float64) { handed = append(handed, update{pv, v, d}) })
		self.SetProbe(func(pv, v, d float64) { featurized = append(featurized, update{pv, v, d}) })
		declared := -1
		for i, f := range stream {
			out := p.Process(f)
			if fired := self.ObserveFrame(f); fired != out.Drift {
				t.Fatalf("%s frame %d: the pipeline's inspector declared %v, the self-featurizing one %v", vision.FeatureFuncName(fn), i, out.Drift, fired)
			}
			if out.Drift {
				declared = i
				break
			}
		}
		if declared < len(stream)/2 {
			t.Fatalf("%s: declared at frame %d, want a declaration after the drift at %d", vision.FeatureFuncName(fn), declared, len(stream)/2)
		}
		if len(handed) != len(featurized) || len(handed) < 2*cfg.DI.W {
			t.Fatalf("%s: %d updates handed, %d featurized", vision.FeatureFuncName(fn), len(handed), len(featurized))
		}
		// The hand-off is taken: the pipeline's inspector never featurized a
		// frame of its own (its featurizer is still the zero value).
		if !reflect.DeepEqual(p.Inspector().fz, vision.Featurizer{}) || reflect.DeepEqual(self.fz, vision.Featurizer{}) {
			t.Fatalf("%s: the pipeline's inspector featurized frames itself", vision.FeatureFuncName(fn))
		}
		for k := range handed {
			h, s := handed[k], featurized[k]
			if math.Float64bits(h.p) != math.Float64bits(s.p) || math.Float64bits(h.value) != math.Float64bits(s.value) || math.Float64bits(h.delta) != math.Float64bits(s.delta) {
				t.Fatalf("%s update %d: handed features %+v, featurized %+v", vision.FeatureFuncName(fn), k, h, s)
			}
		}
	}
}

func TestDriftInspectorValidation(t *testing.T) {
	f := getFixture()
	for i, fn := range []func(){
		func() { NewDriftInspector(nil, DefaultDIConfig(), stats.NewRNG(1)) },
		func() { NewDriftInspector(f.day, DIConfig{W: 0, R: 0.5, K: 5, Kappa: 4}, stats.NewRNG(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestMSBISelectsMatchingModel(t *testing.T) {
	f := getFixture()
	entries := []*ModelEntry{f.day, f.night, f.rain}
	window := vidsim.KeepAll(streamFrames(nightC(), 40, 17))
	res := MSBI(window, entries, DefaultMSBIConfig(), stats.NewRNG(33))
	if res.Selected != f.night {
		name := "<nil>"
		if res.Selected != nil {
			name = res.Selected.Name
		}
		t.Errorf("MSBI selected %s, want night", name)
	}
	if res.FramesUsed == 0 {
		t.Error("FramesUsed = 0")
	}
}

func TestMSBIFlagsNovelDistribution(t *testing.T) {
	f := getFixture()
	entries := []*ModelEntry{f.day, f.night, f.rain}
	window := vidsim.KeepAll(streamFrames(fogCond(), 40, 18))
	res := MSBI(window, entries, DefaultMSBIConfig(), stats.NewRNG(34))
	if res.Selected != nil {
		t.Errorf("MSBI selected %s for a novel distribution, want nil", res.Selected.Name)
	}
}

func TestMSBIEmptyInputs(t *testing.T) {
	f := getFixture()
	if res := MSBI(nil, []*ModelEntry{f.day}, DefaultMSBIConfig(), stats.NewRNG(35)); res.Selected != nil {
		t.Error("MSBI on empty window selected a model")
	}
	window := vidsim.KeepAll(streamFrames(dayC(), 5, 19))
	if res := MSBI(window, nil, DefaultMSBIConfig(), stats.NewRNG(36)); res.Selected != nil {
		t.Error("MSBI with no entries selected a model")
	}
}

func labeledWindow(cond vidsim.Condition, n int, seed int64) []classifier.Sample {
	frames := streamFrames(cond, n, seed)
	out := make([]classifier.Sample, len(frames))
	for i, f := range frames {
		out[i] = classifier.Sample{X: vision.QueryFeatures(f.Pixels, testW, testH), Label: testLabeler(f)}
	}
	return out
}

func TestCalibrateMSBOThresholds(t *testing.T) {
	f := getFixture()
	th := CalibrateMSBO([]*ModelEntry{f.day, f.night, f.rain})
	for _, name := range []string{"day", "night", "rain"} {
		limit, ok := th.Threshold(name)
		if !ok {
			t.Fatalf("no threshold for %s", name)
		}
		if avg := th.PCAvg[name]; avg <= 0 || avg > 2 {
			t.Errorf("%s PCAvg = %v", name, avg)
		}
		if limit <= 0 {
			t.Errorf("%s threshold = %v — off-distribution baseline should be clearly positive", name, limit)
		}
	}
	if _, ok := th.Threshold("missing"); ok {
		t.Error("threshold for unknown model")
	}
}

func TestMSBOSelectsMatchingModel(t *testing.T) {
	f := getFixture()
	entries := []*ModelEntry{f.day, f.night, f.rain}
	th := CalibrateMSBO(entries)
	res := MSBO(labeledWindow(nightC(), 10, 20), entries, th, DefaultMSBOConfig())
	if res.Selected != f.night {
		t.Errorf("MSBO selected %+v, want night (briers %v)", res.Selected, res.Briers)
	}
	if res.Briers["night"] >= res.Briers["day"] {
		t.Errorf("night brier %v >= day brier %v on night data", res.Briers["night"], res.Briers["day"])
	}
}

func TestMSBOFlagsNovelDistribution(t *testing.T) {
	f := getFixture()
	entries := []*ModelEntry{f.day, f.night, f.rain}
	th := CalibrateMSBO(entries)
	// A strided window: consecutive frames can share one sticky count and
	// accidentally match a constant prediction; a representative sample
	// is what the decision is really about.
	window := make([]classifier.Sample, 0, 20)
	for _, f := range vidsim.GenerateTraining(fogCond(), testW, testH, 20, 21) {
		window = append(window, classifier.Sample{X: vision.QueryFeatures(f.Pixels, testW, testH), Label: testLabeler(f)})
	}
	cfg := DefaultMSBOConfig()
	cfg.WT = 20
	res := MSBO(window, entries, th, cfg)
	if res.Selected != nil {
		t.Errorf("MSBO selected %s for novel fog data (briers %v)", res.Selected.Name, res.Briers)
	}
}

func TestMSBOSingleModelFallback(t *testing.T) {
	f := getFixture()
	entries := []*ModelEntry{f.day}
	th := CalibrateMSBO(entries) // empty: no other distributions
	if len(th.PCAvg) != 0 {
		t.Fatalf("single-model calibration should be empty, got %v", th.PCAvg)
	}
	// In-distribution window: accepted via the absolute fallback bound.
	res := MSBO(labeledWindow(dayC(), 10, 22), entries, th, DefaultMSBOConfig())
	if res.Selected != f.day {
		t.Errorf("fallback did not accept the matching model (brier %v)", res.BestBrier)
	}
}

func TestMSBOEmptyInputs(t *testing.T) {
	f := getFixture()
	th := MSBOThresholds{PCAvg: map[string]float64{}, Sigma: map[string]float64{}}
	if res := MSBO(nil, []*ModelEntry{f.day}, th, DefaultMSBOConfig()); res.Selected != nil {
		t.Error("MSBO on empty window selected a model")
	}
}

func TestPipelineSwitchesOnDrift(t *testing.T) {
	f := getFixture()
	reg := NewRegistry(f.day, f.night)
	cfg := DefaultPipelineConfig(testDim, testNumClasses)
	cfg.Provision = quickProvision(41)
	day, night := streamFrames(dayC(), 150, 23), streamFrames(nightC(), 120, 24)
	p := NewPipeline(reg, truthOracle(t, day, night), cfg)
	if p.Current() != f.day {
		t.Fatal("pipeline did not deploy the first entry")
	}

	for _, frame := range day {
		out := p.Process(frame)
		if out.Drift {
			t.Fatal("false drift during day phase")
		}
	}
	switched := false
	for _, frame := range night {
		out := p.Process(frame)
		if out.SwitchedTo == "night" {
			switched = true
			break
		}
		if out.TrainedNew {
			t.Fatal("pipeline trained a new model although the night model exists")
		}
	}
	if !switched {
		t.Fatal("pipeline never switched to the night model")
	}
	m := p.Metrics()
	if m.DriftsDetected < 1 || m.ModelsSelected < 1 {
		t.Errorf("metrics = %+v", m)
	}
	if m.ModelInvocations != m.Frames {
		t.Errorf("invocations %d != frames %d — pipeline must use exactly one model per frame", m.ModelInvocations, m.Frames)
	}
}

func TestPipelineTrainsNewModelOnNovelDrift(t *testing.T) {
	f := getFixture()
	reg := NewRegistry(f.day, f.night)
	cfg := DefaultPipelineConfig(testDim, testNumClasses)
	cfg.Provision = quickProvision(42)
	cfg.NewModelFrames = 100
	day, fog, more := streamFrames(dayC(), 100, 25), streamFrames(fogCond(), 300, 26), streamFrames(fogCond(), 100, 27)
	p := NewPipeline(reg, truthOracle(t, day, fog, more), cfg)

	for _, frame := range day {
		p.Process(frame)
	}
	trained := false
	for _, frame := range fog {
		out := p.Process(frame)
		if out.TrainedNew {
			trained = true
			if out.SwitchedTo != "novel-1" {
				t.Errorf("new model name = %q", out.SwitchedTo)
			}
			break
		}
	}
	if !trained {
		t.Fatal("pipeline never trained a model for the novel distribution")
	}
	if p.Registry().Len() != 3 {
		t.Errorf("registry size = %d, want 3", p.Registry().Len())
	}
	if p.Metrics().ModelsTrained != 1 {
		t.Errorf("ModelsTrained = %d", p.Metrics().ModelsTrained)
	}
	// The new model now covers fog: continued fog frames should not
	// immediately re-trigger training.
	before := p.Metrics().ModelsTrained
	for _, frame := range more {
		p.Process(frame)
	}
	if p.Metrics().ModelsTrained != before {
		t.Error("pipeline retrained on the distribution it just learned")
	}
}

func TestPipelineMSBISelector(t *testing.T) {
	f := getFixture()
	reg := NewRegistry(f.day, f.night)
	cfg := DefaultPipelineConfig(testDim, testNumClasses)
	cfg.Selector = SelectorMSBI
	cfg.Provision = quickProvision(43)
	cfg.NewModelFrames = 120
	p := NewPipeline(reg, testLabeler, cfg)
	for _, frame := range streamFrames(dayC(), 120, 28) {
		p.Process(frame)
	}
	switched := false
	for _, frame := range streamFrames(nightC(), 250, 29) {
		if out := p.Process(frame); out.SwitchedTo == "night" {
			switched = true
			break
		}
	}
	if !switched {
		t.Fatal("MSBI pipeline never switched to the night model")
	}
}

func TestPipelineValidation(t *testing.T) {
	f := getFixture()
	cfg := DefaultPipelineConfig(testDim, testNumClasses)
	for i, fn := range []func(){
		func() { NewPipeline(NewRegistry(), testLabeler, cfg) },
		func() { NewPipeline(NewRegistry(f.day), nil, cfg) }, // MSBO needs labeler
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestSelectorKindString(t *testing.T) {
	if SelectorMSBI.String() != "MSBI" || SelectorMSBO.String() != "MSBO" {
		t.Error("SelectorKind.String wrong")
	}
}
