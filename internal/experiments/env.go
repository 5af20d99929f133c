// Package experiments contains one runner per table and figure of the
// paper's evaluation (§6), built on the dataset analogs, the core
// pipeline, the ODIN baseline and the detector baselines. Each runner
// returns a structured result plus an ASCII rendering; cmd/driftbench and
// the repository-level benchmarks drive them, and EXPERIMENTS.md records
// paper-versus-measured numbers.
package experiments

import (
	"fmt"

	"videodrift/internal/core"
	"videodrift/internal/dataset"
	"videodrift/internal/modelset"
	"videodrift/internal/odin"
	"videodrift/internal/query"
)

// Config scales the experiments. Scale 1.0 reproduces the paper's stream
// sizes (and takes correspondingly long); the default keeps a full
// regeneration pass in the minutes range.
type Config struct {
	modelset.Config         // the provisioned models: training frames, label cap, seed
	Scale           float64 // dataset stream scale (1.0 = paper sizes)
	EvalStride      int     // ground-truth accuracy is computed on every k-th frame
}

// DefaultConfig returns the scale used by the committed experiment runs.
func DefaultConfig() Config {
	return Config{Config: modelset.Config{TrainFrames: 300, MaxCount: 30, Seed: 99}, Scale: 0.05, EvalStride: 4}
}

// QuickConfig returns a miniature configuration for tests.
func QuickConfig() Config {
	return Config{Config: modelset.Config{TrainFrames: 150, MaxCount: 30, Seed: 99}, Scale: 0.01, EvalStride: 4}
}

// Env is a prepared evaluation environment for one dataset and query
// kind: the model set (internal/modelset) under the experiment's Config.
type Env struct {
	*modelset.Set
	Cfg Config
}

// BuildEnvShell is modelset.Shell: the environment without models.
func BuildEnvShell(ds *dataset.Dataset, cfg Config, kind query.Kind) *Env {
	return &Env{Set: modelset.Shell(ds, cfg.Config, kind), Cfg: cfg}
}

// BuildEnv is BuildEnvFor under MSBO: every entry carries its ensemble.
func BuildEnv(ds *dataset.Dataset, cfg Config, kind query.Kind) *Env {
	return BuildEnvFor(ds, cfg, kind, core.SelectorMSBO)
}

// BuildEnvFor is modelset.Build: one model per sequence, provisioned for
// the selector.
func BuildEnvFor(ds *dataset.Dataset, cfg Config, kind query.Kind, selector core.SelectorKind) *Env {
	return &Env{Set: modelset.Build(ds, cfg.Config, kind, selector), Cfg: cfg}
}

// NewODIN assembles the ODIN baseline system with clusters and models
// bootstrapped from the same per-sequence training data the pipeline's
// registry uses.
func (e *Env) NewODIN() *odin.System {
	clf := e.Provision.Classifier
	clf.InputDim = len(e.Kind.FeatureFn()(make([]float64, 64), 8, 8)) // an 8×8 probe's query features
	sys := odin.NewSystem(odin.DefaultConfig(), e.DS.W, e.DS.H, e.Kind.FeatureFn(),
		odin.Labeler(e.Annotator.Labeler(e.Kind)), clf, e.Cfg.Seed)
	for i := range e.DS.Sequences {
		sys.Bootstrap(e.DS.TrainingFrames(i, e.Cfg.TrainFrames))
	}
	return sys
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
