// Package videodrift is a pure-Go reproduction of "Coping With Data Drift
// in Online Video Analytics" (Xarchakos & Koudas, EDBT 2025): lightweight
// conformal-martingale drift detection for video streams (the Drift
// Inspector), model selection after a drift (MSBI and MSBO), and the
// drift-aware end-to-end processing pipeline that ties them together.
//
// The package is a thin facade over the implementation in internal/…; it
// exposes the vocabulary a stream-processing application needs:
//
//	models := []*videodrift.Model{
//	    videodrift.BuildModel("day", dayFrames, labeler, videodrift.Defaults(frameDim, numClasses)),
//	    videodrift.BuildModel("night", nightFrames, labeler, videodrift.Defaults(frameDim, numClasses)),
//	}
//	mon := videodrift.NewMonitor(models, labeler, videodrift.Defaults(frameDim, numClasses))
//	for frame := range stream {
//	    ev := mon.Process(frame)
//	    use(ev.Prediction)
//	    if ev.SwitchedTo != "" { log.Printf("deployed %s", ev.SwitchedTo) }
//	}
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured evaluation.
package videodrift

import (
	"fmt"
	"slices"

	"videodrift/internal/core"
	"videodrift/internal/dataset"
	"videodrift/internal/forensics"
	"videodrift/internal/query"
	"videodrift/internal/stats"
	"videodrift/internal/telemetry"
	"videodrift/internal/vidsim"
)

// Frame is one video frame: flattened grayscale pixels plus scene
// metadata. Applications adapting real video should fill W, H and Pixels
// (row-major, values in [0,1]).
type Frame = vidsim.Frame

// Condition parameterizes a synthetic scene distribution (used by the
// bundled stream simulator).
type Condition = vidsim.Condition

// Dataset is a scripted evaluation stream with known drift points.
type Dataset = dataset.Dataset

// Model is a provisioned model entry: the query classifier plus
// everything the drift machinery needs (reference sample, calibration
// scores, uncertainty ensemble).
type Model = core.ModelEntry

// Labeler annotates a frame with its query label (e.g. a car-count
// bucket) from its pixels — the frames a monitor keeps for a selection or
// training window carry position and pixels only; the bundled Annotator
// wraps the detector oracle.
type Labeler = core.Labeler

// Annotator derives query labels from the built-in object detector (the
// Mask R-CNN stand-in).
type Annotator = query.Annotator

// QueryKind selects which of the paper's two queries a model answers.
type QueryKind = query.Kind

// The paper's two queries.
const (
	CountQuery   = query.Count
	SpatialQuery = query.Spatial
)

// Event reports what the monitor did with one frame.
type Event = core.Outcome

// Metrics summarizes a monitor's activity (frames, invocations, drifts,
// selections, trainings).
type Metrics = core.Metrics

// Selector picks the model-selection algorithm the monitor runs on a
// drift (set Options.Pipeline.Selector).
type Selector = core.SelectorKind

// The paper's two model-selection algorithms: MSBO (output/uncertainty
// based, needs labels for the post-drift window) and MSBI (input based,
// fully unsupervised).
const (
	MSBO = core.SelectorMSBO
	MSBI = core.SelectorMSBI
)

// Tracer is the telemetry collector: a ring-buffered structured event
// sink (drifts, selections, trainings, deployments), per-stage latency
// histograms and JSON/Prometheus exporters. All methods are nil-safe
// no-ops, so tracing off (the default) costs one pointer compare per
// instrumented call site.
type Tracer = telemetry.Tracer

// TracerConfig parameterizes NewTracer (ring size, per-frame events).
type TracerConfig = telemetry.Config

// TelemetryEvent is one structured trace record.
type TelemetryEvent = telemetry.Event

// TelemetrySnapshot is a consistent point-in-time export of a tracer's
// counters, gauges, stage latencies and retained events.
type TelemetrySnapshot = telemetry.Snapshot

// NewTracer builds a telemetry tracer to set as Options.Tracer.
func NewTracer(cfg TracerConfig) *Tracer { return telemetry.New(cfg) }

// Health is a monitor's degradation state: HealthOK (normal operation),
// HealthDegraded (serving continues on the deployed model while
// post-drift training retries with backoff, or a worker is wedged) or
// HealthFailed (a shard's crash-loop breaker tripped; its frames are
// dropped).
type Health = telemetry.Health

// The degradation states, ordered by severity.
const (
	HealthOK       = telemetry.HealthOK
	HealthDegraded = telemetry.HealthDegraded
	HealthFailed   = telemetry.HealthFailed
)

// ForensicsConfig sizes the drift-forensics recorder (see
// Options.Forensics): pre-roll window length and how many declarations
// to retain.
type ForensicsConfig = forensics.Config

// ForensicsRecorder captures drift declarations with their evidence and
// enough pipeline state to replay them (see internal/forensics).
type ForensicsRecorder = forensics.Recorder

// DriftDeclaration is one captured drift declaration: evidence,
// attribution and replayable pre-roll.
type DriftDeclaration = forensics.Declaration

// DriftReport is the full forensic explanation of one declaration —
// what `drifttool explain` renders and driftserve's /drift/<id> serves.
type DriftReport = forensics.Report

// DimShift is one dimension's entry in a drift's attribution ranking.
type DimShift = telemetry.DimShift

// Options bundles the tunables of provisioning and monitoring. The zero
// value is not usable; start from Defaults.
type Options struct {
	Provision core.ProvisionConfig
	Pipeline  core.PipelineConfig
	// Tracer enables telemetry when non-nil (see NewTracer); it is
	// wired into the monitor's pipeline and drift inspector.
	Tracer *Tracer
	// Forensics enables the drift-forensics recorder when
	// Forensics.Enabled is true: every drift declaration is captured
	// with its attribution and a replayable pre-roll, at the cost of
	// retaining, per shard, the frames the inspector read of a pre-roll of
	// Window to Window+Window/8 and of Keep declarations' pre-rolls.
	Forensics ForensicsConfig
}

// Defaults returns paper-parameter options for frames with frameDim
// pixels and query labels in [0, numClasses).
func Defaults(frameDim, numClasses int) Options {
	return Options{
		Provision: core.DefaultProvisionConfig(frameDim, numClasses),
		Pipeline:  core.DefaultPipelineConfig(frameDim, numClasses),
	}
}

// BuildModel trains a model entry from labeled training frames: the query
// classifier, the MSBO uncertainty ensemble, and the conformal reference
// sample and calibration the Drift Inspector monitors against. A nil
// labeler builds an unsupervised entry (drift detection and MSBI only).
func BuildModel(name string, frames []Frame, labeler Labeler, opts Options) *Model {
	return core.Provision(name, slices.Values(frames), labeler, opts.Provision)
}

// Monitor is the drift-aware processing loop of the paper's Figure 1.
type Monitor struct {
	pipe *core.Pipeline
	rec  *forensics.Recorder
}

// NewMonitor deploys the first model and starts monitoring. The labeler
// is consulted when MSBO evaluates a post-drift window and when a novel
// distribution forces a new model to be trained.
func NewMonitor(models []*Model, labeler Labeler, opts Options) *Monitor {
	reg := core.NewRegistry(models...)
	opts.Pipeline.Provision = opts.Provision
	if opts.Tracer != nil {
		opts.Pipeline.Tracer = opts.Tracer
	}
	m := &Monitor{pipe: core.NewPipeline(reg, labeler, opts.Pipeline)}
	if opts.Forensics.Enabled {
		m.rec = forensics.NewRecorder(opts.Forensics, opts.Pipeline.Tracer, m.pipe)
	}
	return m
}

// Process runs one frame through the deployed model and the drift
// machinery. The frame is borrowed: what the monitor keeps of it (the
// post-drift selection or training window, the forensics pre-roll) it
// copies, so the caller may overwrite f's arrays once Process returns.
func (m *Monitor) Process(f Frame) Event {
	out := m.pipe.Process(f)
	m.rec.Record(m.pipe, f, out)
	return out
}

// Forensics returns the monitor's drift-forensics recorder, nil when
// Options.Forensics was not enabled. The recorder is safe to read
// (Declarations, Get, State) from other goroutines while the monitor
// processes frames.
func (m *Monitor) Forensics() *ForensicsRecorder { return m.rec }

// Entries returns the monitor's model entries in registry order
// (forensics replay needs the live objects, not just their names).
func (m *Monitor) Entries() []*Model { return m.pipe.Registry().Entries() }

// Explain replays the retained drift declaration with the given ID (see
// telemetry drift_declared events or Forensics().Declarations()) and
// returns its full forensic report.
func (m *Monitor) Explain(id string) (DriftReport, error) {
	d, ok := m.rec.Get(id)
	if !ok {
		return DriftReport{}, fmt.Errorf("videodrift: no retained declaration %q (forensics disabled, or evicted past Keep)", id)
	}
	return forensics.BuildReport(m.pipe.Registry().Entries(), m.pipe.Config(), d)
}

// Current returns the name of the deployed model.
func (m *Monitor) Current() string { return m.pipe.Current().Name }

// Models returns the names of all provisioned models (including any
// trained during monitoring).
func (m *Monitor) Models() []string { return m.pipe.Registry().Names() }

// Stats summarizes the monitor's activity so far.
func (m *Monitor) Stats() core.Metrics { return m.pipe.Metrics() }

// Health returns the monitor's degradation state as reported through its
// tracer: HealthDegraded while post-drift training is retrying or the
// pipeline is serving without a replacement model, HealthOK otherwise.
// Always HealthOK when tracing is off.
func (m *Monitor) Health() Health { return m.pipe.Tracer().Health() }

// Telemetry returns the monitor's tracer (nil when Options.Tracer was
// not set). The tracer is safe for concurrent use: snapshot or export it
// from other goroutines while the monitor processes frames.
func (m *Monitor) Telemetry() *Tracer { return m.pipe.Tracer() }

// Detector is a standalone Drift Inspector for one model — use it when
// only drift detection is needed.
type Detector struct {
	di *core.DriftInspector
}

// NewDetector builds a Drift Inspector monitoring the distribution
// captured by model, with the paper's default parameters.
func NewDetector(model *Model, seed int64) *Detector {
	return &Detector{di: core.NewDriftInspector(model, core.DefaultDIConfig(), stats.NewRNG(seed))}
}

// Observe folds one frame into the detector and reports whether a drift
// is declared.
func (d *Detector) Observe(f Frame) bool { return d.di.ObserveFrame(f) }

// SetTracer attaches a telemetry tracer to the standalone detector
// (martingale updates, stage latencies, drift events).
func (d *Detector) SetTracer(tr *Tracer) { d.di.SetTracer(tr) }

// Reset clears the detector's state (after handling a drift).
func (d *Detector) Reset() { d.di.Reset() }

// NewAnnotator returns the built-in annotation oracle with count labels
// capped at maxCount.
func NewAnnotator(maxCount int) *Annotator { return query.NewAnnotator(maxCount) }

// The bundled dataset analogs of the paper's evaluation streams.
var (
	// BDD builds the Berkeley-Deep-Drive analog (night/rain/snow/day).
	BDD = dataset.BDD
	// Detrac builds the 5-camera-angle traffic analog.
	Detrac = dataset.Detrac
	// Tokyo builds the 3-angle intersection analog.
	Tokyo = dataset.Tokyo
	// SlowDrift builds the gradual day→night live-camera analog.
	SlowDrift = dataset.SlowDrift
)
