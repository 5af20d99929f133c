package core

import (
	"fmt"
	"time"

	"videodrift/internal/classifier"
	"videodrift/internal/stats"
	"videodrift/internal/telemetry"
	"videodrift/internal/tensor"
	"videodrift/internal/vidsim"
)

// SelectorKind picks the model-selection algorithm the pipeline runs on a
// drift.
type SelectorKind int

// Selector kinds.
const (
	SelectorMSBI SelectorKind = iota
	SelectorMSBO
)

// String returns the selector's paper name.
func (s SelectorKind) String() string {
	if s == SelectorMSBO {
		return "MSBO"
	}
	return "MSBI"
}

// PipelineConfig configures the end-to-end drift-aware pipeline.
type PipelineConfig struct {
	DI       DIConfig
	MSBI     MSBIConfig
	MSBO     MSBOConfig
	Selector SelectorKind

	// Provision is used to train a new model when no provisioned model
	// fits the post-drift data (the trainNewModel path of §5.4).
	Provision ProvisionConfig
	// NewModelFrames is how many post-drift frames are collected before
	// training a new model (paper: 5k; scaled down by default here).
	NewModelFrames int
	// TrainAttempts is how many times a failed post-drift training is
	// retried before the pipeline gives up and degrades to the deployed
	// model (<=0 means 1: no retries). Failures include panics inside
	// Provision, which are caught and converted to errors.
	TrainAttempts int
	// TrainBackoffFrames is the backoff before the first training retry,
	// measured in frames rather than wall time so replay stays
	// deterministic (no clock). Doubles per attempt, capped at
	// TrainBackoffCap.
	TrainBackoffFrames int
	// TrainBackoffCap bounds the frame backoff growth (<=0 means no
	// cap).
	TrainBackoffCap int
	// TrainFault, when non-nil, is consulted before each training
	// attempt; a non-nil error fails the attempt. It is the
	// fault-injection hook (internal/faults) and must be deterministic
	// for replayable runs.
	TrainFault func() error
	// Seed drives the pipeline's tie-break randomness.
	Seed int64
	// Tracer receives structured events and stage latencies. Nil (the
	// default) disables tracing; the per-frame cost is then a pointer
	// compare per instrumented call site.
	Tracer *telemetry.Tracer
}

// DefaultPipelineConfig returns paper-parameter defaults scaled to the
// repo's synthetic frames.
func DefaultPipelineConfig(frameDim, numClasses int) PipelineConfig {
	return PipelineConfig{
		DI:             DefaultDIConfig(),
		MSBI:           DefaultMSBIConfig(),
		MSBO:           DefaultMSBOConfig(),
		Selector:       SelectorMSBO,
		Provision:      DefaultProvisionConfig(frameDim, numClasses),
		NewModelFrames: 256,

		TrainAttempts:      3,
		TrainBackoffFrames: 32,
		TrainBackoffCap:    256,

		Seed: 7,
	}
}

// pipelineState is the pipeline's processing mode.
type pipelineState int

const (
	stateMonitoring pipelineState = iota // DI watches every frame
	stateSelecting                       // collecting the selection window
	stateTraining                        // collecting frames for a new model
)

// Outcome reports what the pipeline did with one frame.
type Outcome struct {
	Prediction  int    // deployed model's query prediction for this frame
	Drift       bool   // a drift was declared on this frame
	SwitchedTo  string // non-empty when a model was deployed this frame
	TrainedNew  bool   // the switch deployed a freshly trained model
	Invocations int    // model invocations spent on this frame (1, or 0 when quarantined)
	Quarantined bool   // the admission gate rejected the frame before any processing
}

// Metrics accumulates pipeline statistics for the end-to-end evaluation
// (§6.3). SelectingFrames and TrainingFrames count the frames spent in
// the post-drift recovery states, so time-to-recover after a drift (the
// paper's §6.2 lag metric) is computable from metrics alone:
// recovery frames = SelectingFrames + TrainingFrames.
type Metrics struct {
	Frames            int
	ModelInvocations  int
	DriftsDetected    int
	ModelsSelected    int
	ModelsTrained     int
	SelectingFrames   int // frames spent collecting a selection window
	TrainingFrames    int // frames spent collecting new-model training data
	QuarantinedFrames int // malformed frames rejected by the admission gate
	TrainingFailures  int // failed post-drift training attempts (retried with backoff)
}

// Pipeline is the operational architecture of Figure 1: frames flow
// through the deployed model and the Drift Inspector; on a drift the Model
// Selector picks a provisioned model or triggers new-model training, the
// winner is deployed, and monitoring resumes. It is not safe for
// concurrent use.
type Pipeline struct {
	cfg     PipelineConfig
	reg     *Registry
	labeler Labeler
	rng     *stats.RNG

	current *ModelEntry
	di      *DriftInspector
	th      MSBOThresholds

	state pipelineState
	// buffer holds the selection or training window: held copies of the
	// frames, which Process only borrows (vidsim.Frame).
	buffer  []vidsim.Held
	novel   int // counter for naming trained models
	predict predictScratch

	// Degraded-mode training-retry state: consecutive failed attempts
	// for the current training window, and how many more frames to wait
	// before the next attempt (frame-count backoff — deterministic, no
	// clock).
	trainFails int
	retryWait  int

	metrics Metrics
}

// NewPipeline deploys the registry's first entry and starts monitoring.
// The labeler (the annotation oracle) is required for SelectorMSBO and for
// the new-model training path; it may be nil for an unsupervised
// MSBI-only pipeline whose entries were provisioned without classifiers.
func NewPipeline(reg *Registry, labeler Labeler, cfg PipelineConfig) *Pipeline {
	if reg == nil || reg.Len() == 0 {
		panic("core: NewPipeline needs a non-empty registry")
	}
	if cfg.Selector == SelectorMSBO && labeler == nil {
		panic("core: SelectorMSBO requires a labeler for the W_T window")
	}
	p := &Pipeline{
		cfg:     cfg,
		reg:     reg,
		labeler: labeler,
		rng:     stats.NewRNG(cfg.Seed),
	}
	entries := reg.Snapshot().Entries()
	if err := CheckSelector(cfg.Selector, entries); err != nil {
		panic(err.Error())
	}
	p.calibrate()
	p.deploy(entries[0])
	return p
}

// calibrate recomputes the MSBO thresholds over the registry. Only MSBO
// reads them, so an MSBI pipeline skips the m×(m−1) ensemble scorings.
func (p *Pipeline) calibrate() {
	if p.cfg.Selector == SelectorMSBO {
		p.th = CalibrateMSBO(p.reg.Snapshot().Entries())
	}
}

// Current returns the deployed model entry.
func (p *Pipeline) Current() *ModelEntry { return p.current }

// Metrics returns the accumulated pipeline statistics.
func (p *Pipeline) Metrics() Metrics { return p.metrics }

// Registry returns the pipeline's model registry (it grows when novel
// distributions force new models).
func (p *Pipeline) Registry() *Registry { return p.reg }

// Tracer returns the pipeline's telemetry tracer (nil when tracing is
// off).
func (p *Pipeline) Tracer() *telemetry.Tracer { return p.cfg.Tracer }

// Config returns a copy of the pipeline's configuration (forensics
// replay rebuilds a pipeline with the same monitoring parameters).
func (p *Pipeline) Config() PipelineConfig { return p.cfg }

// Monitoring reports whether the pipeline is in its monitoring state
// (the Drift Inspector watching every frame, as opposed to collecting a
// post-drift selection or training window).
func (p *Pipeline) Monitoring() bool { return p.state == stateMonitoring }

// Inspector returns the deployed model's Drift Inspector. It is replaced
// on every deployment; callers should not retain it across frames.
func (p *Pipeline) Inspector() *DriftInspector { return p.di }

func (p *Pipeline) deploy(e *ModelEntry) {
	p.current = e
	p.di = NewDriftInspector(e, p.cfg.DI, p.rng.Split())
	p.di.SetTracer(p.cfg.Tracer)
	p.state = stateMonitoring
	p.buffer = nil
	p.trainFails = 0
	p.retryWait = 0
	p.cfg.Tracer.ModelDeployed(e.Name)
	// A successful deployment is full recovery; the tracer drops the
	// transition when health was already ok.
	p.cfg.Tracer.HealthChanged(telemetry.HealthOK, "model deployed: "+e.Name)
}

// selectionWindow returns how many frames the active selector needs.
func (p *Pipeline) selectionWindow() int {
	if p.cfg.Selector == SelectorMSBO {
		return p.cfg.MSBO.WT
	}
	return p.cfg.MSBI.WN
}

// Process runs one frame through the pipeline and returns what happened.
// The deployed model predicts on every frame regardless of state (the
// stream keeps being served during selection and training, as in the
// paper's end-to-end evaluation). f is borrowed: a frame the selection or
// training window keeps is copied, so the caller may reuse f's arrays
// once Process returns.
func (p *Pipeline) Process(f vidsim.Frame) Outcome {
	tr := p.cfg.Tracer
	p.metrics.Frames++
	tr.FrameObserved(telemetryState(p.state))
	// Admission gate: a malformed frame (wrong dimensions, non-finite
	// pixels) is quarantined before it can reach the classifier, the
	// Drift Inspector's martingale, or a selection/training buffer — a
	// run over the surviving frames is bit-identical to one that never
	// saw the bad frames.
	if reason := FrameProblem(f, p.current.W, p.current.H); reason != "" {
		p.metrics.QuarantinedFrames++
		tr.FrameQuarantined(reason)
		return Outcome{Quarantined: true}
	}
	p.metrics.ModelInvocations++
	out := Outcome{Invocations: 1}
	// Stage timestamps come from the tracer's injected clock (see
	// DriftInspector.Observe): time.Now here would break deterministic
	// replay under a test clock, and driftlint's determinism analyzer
	// rejects it. The classifier's front-end computes the frame's
	// appearance features on the way to its query vector (a built-in one
	// does); the inspector reads those instead of featurizing the frame a
	// second time.
	var app tensor.Vector
	if p.current.Classifier != nil {
		if tr != nil {
			t0 := tr.Now()
			out.Prediction, app = p.current.predictInto(&p.predict, f)
			tr.ObserveStage(telemetry.StageClassify, tr.Now().Sub(t0))
		} else {
			out.Prediction, app = p.current.predictInto(&p.predict, f)
		}
	}

	switch p.state {
	case stateMonitoring:
		if p.di.observe(f.Pixels, app) {
			p.metrics.DriftsDetected++
			out.Drift = true
			p.state = stateSelecting
			p.buffer = p.buffer[:0]
			tr.SelectionStarted(p.cfg.Selector.String())
		}

	case stateSelecting:
		p.metrics.SelectingFrames++
		p.buffer = append(p.buffer, f.Keep())
		if len(p.buffer) >= p.selectionWindow() {
			var t0 time.Time
			if tr != nil {
				t0 = tr.Now()
			}
			selected, candidates, used := p.runSelector()
			if tr != nil {
				tr.ObserveStage(telemetry.StageSelect, tr.Now().Sub(t0))
				name := ""
				if selected != nil {
					name = selected.Name
				}
				tr.SelectionResolved(p.cfg.Selector.String(), name, used, candidates)
			}
			if selected != nil {
				p.metrics.ModelsSelected++
				p.deploy(selected)
				out.SwitchedTo = selected.Name
			} else {
				p.state = stateTraining
			}
		}

	case stateTraining:
		p.metrics.TrainingFrames++
		p.buffer = append(p.buffer, f.Keep())
		if p.retryWait > 0 {
			p.retryWait--
			break
		}
		if len(p.buffer) >= p.cfg.NewModelFrames {
			var t0 time.Time
			if tr != nil {
				t0 = tr.Now()
			}
			e, err := p.trainNewModel()
			if tr != nil {
				tr.ObserveStage(telemetry.StageTrain, tr.Now().Sub(t0))
			}
			if err != nil {
				p.trainingFailed(err)
				break
			}
			tr.ModelTrained(e.Name, len(p.buffer))
			p.metrics.ModelsTrained++
			p.reg.Add(e)
			p.calibrate()
			p.deploy(e)
			out.SwitchedTo = e.Name
			out.TrainedNew = true
		}
	}
	return out
}

// trainingFailed handles one failed training attempt: retry with capped
// frame-count backoff while attempts remain, then degrade — abandon the
// window, keep serving the deployed model, and resume monitoring so a
// persisting drift re-fires and re-enters selection.
func (p *Pipeline) trainingFailed(err error) {
	tr := p.cfg.Tracer
	p.metrics.TrainingFailures++
	p.trainFails++
	name := fmt.Sprintf("novel-%d", p.novel+1)
	tr.TrainingFailed(name, p.trainFails, err.Error())
	attempts := p.cfg.TrainAttempts
	if attempts <= 0 {
		attempts = 1
	}
	if p.trainFails < attempts {
		backoff := p.cfg.TrainBackoffFrames << (p.trainFails - 1)
		if p.cfg.TrainBackoffCap > 0 && backoff > p.cfg.TrainBackoffCap {
			backoff = p.cfg.TrainBackoffCap
		}
		p.retryWait = backoff
		tr.HealthChanged(telemetry.HealthDegraded,
			fmt.Sprintf("training %s failed (attempt %d/%d), retrying in %d frames", name, p.trainFails, attempts, backoff))
		return
	}
	// Degraded mode: the deployed model keeps serving; monitoring
	// restarts so a persisting drift is re-declared and re-enters
	// selection instead of wedging the pipeline in stateTraining.
	tr.HealthChanged(telemetry.HealthDegraded,
		fmt.Sprintf("training %s failed %d times, serving %s degraded", name, p.trainFails, p.current.Name))
	p.state = stateMonitoring
	p.buffer = nil
	p.trainFails = 0
	p.retryWait = 0
	p.di.Reset()
}

// telemetryState maps the pipeline state onto the telemetry taxonomy.
func telemetryState(s pipelineState) telemetry.State {
	switch s {
	case stateSelecting:
		return telemetry.StateSelecting
	case stateTraining:
		return telemetry.StateTraining
	default:
		return telemetry.StateMonitoring
	}
}

// runSelector executes the configured model-selection algorithm on the
// buffered post-drift window, returning the winner (nil = train new),
// the per-candidate outcomes and the number of window frames consumed.
func (p *Pipeline) runSelector() (*ModelEntry, []telemetry.Candidate, int) {
	if p.cfg.Selector == SelectorMSBO {
		labeled := make([]classifier.Sample, 0, len(p.buffer))
		for f := range vidsim.Lend(p.buffer) {
			labeled = append(labeled, p.current.QuerySample(f, p.labeler(f)))
		}
		res := MSBO(labeled, p.reg.Snapshot().Entries(), p.th, p.cfg.MSBO)
		return res.Selected, res.Candidates, res.FramesUsed
	}
	res := MSBI(p.buffer, p.reg.Snapshot().Entries(), p.cfg.MSBI, p.rng.Split())
	return res.Selected, res.Candidates, res.FramesUsed
}

// trainNewModel provisions a model from the buffered post-drift frames
// (§5.4: collect frames, annotate them, train the VAE and classifiers) —
// without the MSBO ensemble under MSBI, which never reads one.
// Failures — the injected fault hook or a panic inside Provision — are
// returned as errors for the retry/degrade path. The fault hook runs
// before the RNG seed draw and the novel-counter bump, so a failed
// attempt leaves the pipeline's replay-critical state untouched.
func (p *Pipeline) trainNewModel() (e *ModelEntry, err error) {
	defer func() {
		if r := recover(); r != nil {
			e, err = nil, fmt.Errorf("training panic: %v", r)
		}
	}()
	if p.cfg.TrainFault != nil {
		if ferr := p.cfg.TrainFault(); ferr != nil {
			return nil, ferr
		}
	}
	name := fmt.Sprintf("novel-%d", p.novel+1)
	cfg := p.cfg.Provision
	cfg.Seed = p.rng.Int63()
	e = Provision(name, vidsim.Lend(p.buffer), p.labeler, cfg.For(p.cfg.Selector))
	p.novel++
	return e, nil
}
