package core

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"

	"videodrift/internal/vidsim"
)

// requireSameButEnsemble fails unless lean is full minus its ensemble:
// the same reference sample, features, calibration scores, retained
// calibration sample and classifier weights, bit for bit. (ModelEntry
// carries a func and a sync.Once, so DeepEqual on the whole does not
// apply.)
func requireSameButEnsemble(t *testing.T, lean, full *ModelEntry) {
	t.Helper()
	if lean.Ensemble != nil {
		t.Errorf("%s: the lean entry has a %d-member ensemble", lean.Name, lean.Ensemble.Size())
	}
	for _, f := range []struct {
		field      string
		lean, full any
	}{
		{"Name", lean.Name, full.Name},
		{"W×H", [2]int{lean.W, lean.H}, [2]int{full.W, full.H}},
		{"VAE", lean.VAE, full.VAE},
		{"SampleFeats", lean.SampleFeats, full.SampleFeats},
		{"CalibRaw", lean.CalibRaw, full.CalibRaw},
		{"Calib", lean.Calib, full.Calib},
		{"CalibSample", lean.CalibSample, full.CalibSample},
	} {
		if !reflect.DeepEqual(f.lean, f.full) {
			t.Errorf("%s: %s differs between the lean entry and the full one", full.Name, f.field)
		}
	}
	lw, err := lean.Classifier.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	fw, err := full.Classifier.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lw, fw) {
		t.Errorf("%s: classifier weights differ between the lean entry and the full one", full.Name)
	}
	if reflect.ValueOf(lean.QueryFn()).Pointer() != reflect.ValueOf(full.QueryFn()).Pointer() {
		t.Errorf("%s: query front-ends differ", full.Name)
	}
}

// TestProvisionWithoutEnsemble: EnsembleSize 0 provisions the full entry
// minus Ensemble — it burns the ensemble's two RNG splits, so the
// calibration sample drawn after them is the full entry's — and a
// pipeline's post-drift training does so exactly when its selector is
// MSBI, leaving the pipeline's own generator where a full training
// leaves it. (internal/store's TestLeanEntryEncoding holds the encodings
// to the same rule.)
func TestProvisionWithoutEnsemble(t *testing.T) {
	frames := vidsim.GenerateTraining(dayC(), testW, testH, 200, 11)
	cfg := quickProvision(21)
	cfg.EnsembleSize = 5
	full := Provision("day", slices.Values(frames), testLabeler, cfg)
	if full.Ensemble.Size() != 5 {
		t.Fatalf("the full entry has %d ensemble members, want 5", full.Ensemble.Size())
	}
	lean := Provision("day", slices.Values(frames), testLabeler, cfg.For(SelectorMSBI))
	requireSameButEnsemble(t, lean, full)
	if got := cfg.For(SelectorMSBO); !reflect.DeepEqual(got.Classifier, cfg.Classifier) || got.EnsembleSize != 5 {
		t.Errorf("For(MSBO) changed the configuration: %+v", got)
	}

	f := getFixture()
	train := func(sel SelectorKind) (*Pipeline, *ModelEntry) {
		pcfg := DefaultPipelineConfig(testDim, testNumClasses)
		pcfg.Selector = sel
		pcfg.Provision = quickProvision(42)
		p := NewPipeline(NewRegistry(f.day, f.night), testLabeler, pcfg)
		p.buffer = vidsim.KeepAll(streamFrames(fogCond(), 100, 26))
		e, err := p.trainNewModel()
		if err != nil {
			t.Fatal(err)
		}
		return p, e
	}
	pi, ei := train(SelectorMSBI)
	po, eo := train(SelectorMSBO)
	if eo.Ensemble.Size() != 3 {
		t.Fatalf("the MSBO pipeline trained a %d-member ensemble, want 3", eo.Ensemble.Size())
	}
	requireSameButEnsemble(t, ei, eo)
	if a, b := pi.rng.State(), po.rng.State(); a != b {
		t.Errorf("pipeline RNG after a lean training %+v, after a full one %+v", a, b)
	}
}

// TestSelectorModelMismatch: MSBO cannot select among supervised entries
// that have no ensemble — it used to skip them silently and train a new
// model at every drift — so building or restoring such a pipeline fails
// at once; MSBI over full entries works and calibrates nothing.
func TestSelectorModelMismatch(t *testing.T) {
	f := getFixture()
	n := f.night
	lean := &ModelEntry{ // night without its ensemble
		Name: n.Name, W: n.W, H: n.H, SampleFeats: n.SampleFeats,
		CalibRaw: n.CalibRaw, Calib: n.Calib, Classifier: n.Classifier, CalibSample: n.CalibSample,
	}
	lean.SetQueryFn(n.QueryFn())
	msbo := DefaultPipelineConfig(testDim, testNumClasses)
	msbi := msbo
	msbi.Selector = SelectorMSBI

	func() {
		defer func() {
			if r, _ := recover().(string); !strings.Contains(r, `model "night"`) || !strings.Contains(r, "no MSBO ensemble") {
				t.Errorf("NewPipeline(MSBO) over an ensemble-less entry: recovered %q, want a panic naming the model and the cause", r)
			}
		}()
		NewPipeline(NewRegistry(f.day, lean), testLabeler, msbo)
	}()

	// The snapshot an MSBI pipeline over those entries leaves behind
	// restores under MSBI and is refused under MSBO.
	p := NewPipeline(NewRegistry(f.day, lean), testLabeler, msbi)
	for _, frame := range streamFrames(dayC(), 30, 25) {
		p.Process(frame)
	}
	if _, err := RestorePipeline(NewRegistry(f.day, lean), testLabeler, msbi, p.Snapshot()); err != nil {
		t.Errorf("RestorePipeline(MSBI) over an ensemble-less entry: %v", err)
	}
	if _, err := RestorePipeline(NewRegistry(f.day, lean), testLabeler, msbo, p.Snapshot()); err == nil || !strings.Contains(err.Error(), "no MSBO ensemble") {
		t.Errorf("RestorePipeline(MSBO) over an ensemble-less entry: %v, want an error naming the cause", err)
	}

	// The other direction is fine: MSBI reads no ensemble, so it runs over
	// full entries, and it skips the threshold calibration only MSBO reads.
	full := NewPipeline(NewRegistry(f.day, f.night), testLabeler, msbi)
	if full.th.PCAvg != nil {
		t.Error("an MSBI pipeline calibrated MSBO thresholds")
	}
	if r, err := RestorePipeline(NewRegistry(f.day, f.night), testLabeler, msbi, full.Snapshot()); err != nil || r.th.PCAvg != nil {
		t.Errorf("RestorePipeline(MSBI) over full entries: %v, thresholds %v", err, r.th.PCAvg)
	}
	if got := NewPipeline(NewRegistry(f.day, f.night), testLabeler, msbo).th; len(got.PCAvg) != 2 {
		t.Errorf("an MSBO pipeline calibrated %d thresholds, want 2", len(got.PCAvg))
	}
	// Unsupervised entries have nothing for MSBO to score and never had;
	// they stay accepted (and skipped).
	unsup := Provision("bare", vidsim.TrainingStream(dayC(), testW, testH, 60, vidsim.TrainingStride, 3), nil, quickProvision(5))
	if err := CheckSelector(SelectorMSBO, []*ModelEntry{f.day, unsup}); err != nil {
		t.Errorf("CheckSelector(MSBO) over an unsupervised entry: %v", err)
	}
}
