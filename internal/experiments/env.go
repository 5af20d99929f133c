// Package experiments contains one runner per table and figure of the
// paper's evaluation (§6), built on the dataset analogs, the core
// pipeline, the ODIN baseline and the detector baselines. Each runner
// returns a structured result plus an ASCII rendering; cmd/driftbench and
// the repository-level benchmarks drive them, and EXPERIMENTS.md records
// paper-versus-measured numbers.
package experiments

import (
	"fmt"

	"videodrift/internal/classifier"
	"videodrift/internal/core"
	"videodrift/internal/dataset"
	"videodrift/internal/odin"
	"videodrift/internal/parallel"
	"videodrift/internal/query"
)

// Config scales the experiments. Scale 1.0 reproduces the paper's stream
// sizes (and takes correspondingly long); the default keeps a full
// regeneration pass in the minutes range.
type Config struct {
	Scale       float64 // dataset stream scale (1.0 = paper sizes)
	TrainFrames int     // training frames per provisioned condition
	MaxCount    int     // count-query label cap
	EvalStride  int     // ground-truth accuracy is computed on every k-th frame
	Seed        int64
}

// DefaultConfig returns the scale used by the committed experiment runs.
func DefaultConfig() Config {
	return Config{Scale: 0.05, TrainFrames: 300, MaxCount: 30, EvalStride: 4, Seed: 99}
}

// QuickConfig returns a miniature configuration for tests.
func QuickConfig() Config {
	return Config{Scale: 0.01, TrainFrames: 150, MaxCount: 30, EvalStride: 4, Seed: 99}
}

// Env is a prepared evaluation environment for one dataset and query
// kind: the annotation oracle, one provisioned model per sequence, and
// the assembled registry.
type Env struct {
	Cfg       Config
	DS        *dataset.Dataset
	Kind      query.Kind
	Annotator *query.Annotator
	Registry  *core.Registry
	Provision core.ProvisionConfig
}

// provisionConfig builds the experiment-scale provisioning setup for a
// dataset and query kind.
func provisionConfig(ds *dataset.Dataset, ann *query.Annotator, kind query.Kind, seed int64) core.ProvisionConfig {
	cfg := core.DefaultProvisionConfig(ds.FrameDim(), ann.NumClasses(kind))
	cfg.Classifier = classifier.Config{
		HiddenDim:  48,
		NumClasses: ann.NumClasses(kind),
		LR:         5e-3,
		Epochs:     60,
	}
	cfg.QueryFn = kind.FeatureFn()
	cfg.Seed = seed
	return cfg
}

// BuildEnvShell prepares the environment — annotation oracle, provision
// and pipeline configuration — without provisioning any models. It is
// the warm-restart path: the models arrive from a checkpoint instead of
// being trained, so the expensive per-sequence Provision calls are
// skipped entirely. The returned Env's Registry is empty.
func BuildEnvShell(ds *dataset.Dataset, cfg Config, kind query.Kind) *Env {
	ann := query.NewAnnotator(cfg.MaxCount)
	env := &Env{Cfg: cfg, DS: ds, Kind: kind, Annotator: ann}
	env.Provision = provisionConfig(ds, ann, kind, cfg.Seed)
	env.Registry = core.NewRegistry()
	return env
}

// BuildEnv provisions one model per dataset sequence (trained on that
// condition's training frames, annotated by the oracle — §5.4) and
// assembles the registry the Model Selector chooses from. Each sequence
// is provisioned straight from its training stream, so set-up holds one
// rendered frame a provision, never a sequence's clip. The sequences are
// provisioned concurrently, one goroutine a core; each has its own seed
// and the registry keeps dataset order, so the result does not depend on
// the pool's size.
func BuildEnv(ds *dataset.Dataset, cfg Config, kind query.Kind) *Env {
	return buildEnv(ds, cfg, kind, core.SelectorMSBO, parallel.New(0))
}

// BuildEnvFor is BuildEnv for a deployment that runs one selector for
// good (driftserve): under MSBI the entries are BuildEnv's minus their
// MSBO ensembles — four of every five network fits — and only an MSBI
// pipeline accepts them (core.CheckSelector).
func BuildEnvFor(ds *dataset.Dataset, cfg Config, kind query.Kind, selector core.SelectorKind) *Env {
	return buildEnv(ds, cfg, kind, selector, parallel.New(0))
}

func buildEnv(ds *dataset.Dataset, cfg Config, kind query.Kind, selector core.SelectorKind, pool *parallel.Pool) *Env {
	env := BuildEnvShell(ds, cfg, kind)
	labeler := env.Labeler()

	entries := make([]*core.ModelEntry, len(ds.Sequences))
	pool.ForEach(len(entries), func(i int) {
		p := env.Provision.For(selector)
		p.Seed = cfg.Seed + int64(i)*31
		entries[i] = core.Provision(ds.Sequences[i].Name, ds.TrainingStream(i, cfg.TrainFrames), labeler, p)
	})
	env.Registry = core.NewRegistry(entries...)
	return env
}

// Labeler returns the environment's annotation function.
func (e *Env) Labeler() core.Labeler { return core.Labeler(e.Annotator.Labeler(e.Kind)) }

// PipelineConfig assembles the paper-parameter pipeline configuration for
// this environment.
func (e *Env) PipelineConfig(selector core.SelectorKind) core.PipelineConfig {
	cfg := core.DefaultPipelineConfig(e.DS.FrameDim(), e.Annotator.NumClasses(e.Kind))
	cfg.Selector = selector
	cfg.Provision = e.Provision
	// Models trained mid-stream see fresh, matched data; fewer epochs and
	// a smaller ensemble suffice and keep the recovery path cheap.
	cfg.Provision.Classifier.Epochs = 20
	cfg.Provision.EnsembleSize = 3
	cfg.NewModelFrames = e.Cfg.TrainFrames
	cfg.Seed = e.Cfg.Seed
	return cfg
}

// NewODIN assembles the ODIN baseline system with clusters and models
// bootstrapped from the same per-sequence training data the pipeline's
// registry uses.
func (e *Env) NewODIN() *odin.System {
	clf := e.Provision.Classifier
	clf.InputDim = dimOf(e.Kind)
	sys := odin.NewSystem(odin.DefaultConfig(), e.DS.W, e.DS.H, e.Kind.FeatureFn(),
		odin.Labeler(e.Annotator.Labeler(e.Kind)), clf, e.Cfg.Seed)
	for i := range e.DS.Sequences {
		sys.Bootstrap(e.DS.TrainingFrames(i, e.Cfg.TrainFrames))
	}
	return sys
}

func dimOf(kind query.Kind) int {
	probe := make([]float64, 64)
	return len(kind.FeatureFn()(probe, 8, 8))
}

// fmtSeconds renders a duration in seconds with sensible precision.
func fmtSeconds(sec float64) string {
	switch {
	case sec >= 100:
		return fmt.Sprintf("%.0f", sec)
	case sec >= 1:
		return fmt.Sprintf("%.2f", sec)
	default:
		return fmt.Sprintf("%.4f", sec)
	}
}
