// Package modelset builds the served model set: the annotation oracle,
// one provisioned model per dataset sequence, the registry the Model
// Selector chooses from, and the pipeline configuration a served shard
// runs. driftserve and drifttool boot from it, and the paper's
// evaluation (internal/experiments) builds on it, so a server never
// links the paper runs.
package modelset

import (
	"fmt"

	"videodrift/internal/classifier"
	"videodrift/internal/core"
	"videodrift/internal/dataset"
	"videodrift/internal/parallel"
	"videodrift/internal/query"
)

// Config is what a model set is built from.
type Config struct {
	TrainFrames int // training frames per provisioned condition
	MaxCount    int // count-query label cap
	Seed        int64
}

// DefaultConfig returns the served set's configuration (-train sets
// TrainFrames).
func DefaultConfig() Config { return Config{TrainFrames: 300, MaxCount: 30, Seed: 99} }

var selectors = map[string]core.SelectorKind{"msbi": core.SelectorMSBI, "msbo": core.SelectorMSBO}

// ParseSelector reads the -selector flag both servers take: msbi or
// msbo, nothing else.
func ParseSelector(name string) (core.SelectorKind, error) {
	if sel, ok := selectors[name]; ok {
		return sel, nil
	}
	return 0, fmt.Errorf("-selector must be msbi or msbo, got %q", name)
}

// Set is a model set for one dataset and query kind.
type Set struct {
	DS        *dataset.Dataset
	Kind      query.Kind
	Annotator *query.Annotator
	Registry  *core.Registry
	Provision core.ProvisionConfig
	cfg       Config
}

// Shell prepares the set — annotation oracle, provision and pipeline
// configuration — without provisioning any models: the warm-restart
// path, whose models arrive from a checkpoint. Its Registry is empty.
func Shell(ds *dataset.Dataset, cfg Config, kind query.Kind) *Set {
	ann := query.NewAnnotator(cfg.MaxCount)
	p := core.DefaultProvisionConfig(ds.FrameDim(), ann.NumClasses(kind))
	p.Classifier = classifier.Config{HiddenDim: 48, NumClasses: ann.NumClasses(kind), LR: 5e-3, Epochs: 60}
	p.QueryFn = kind.FeatureFn()
	p.Seed = cfg.Seed
	return &Set{DS: ds, Kind: kind, Annotator: ann, Registry: core.NewRegistry(), Provision: p, cfg: cfg}
}

// Build provisions one model per dataset sequence (trained on that
// condition's training frames, annotated by the oracle — §5.4) for the
// selector: under MSBI without the MSBO ensembles — four of every five
// network fits — which only an MSBI pipeline accepts
// (core.CheckSelector). Each sequence is provisioned straight from its
// training stream, concurrently, one goroutine a core; each has its own
// seed and the registry keeps dataset order, so the result does not
// depend on the pool's size.
func Build(ds *dataset.Dataset, cfg Config, kind query.Kind, selector core.SelectorKind) *Set {
	return build(ds, cfg, kind, selector, parallel.New(0))
}

func build(ds *dataset.Dataset, cfg Config, kind query.Kind, selector core.SelectorKind, pool *parallel.Pool) *Set {
	s := Shell(ds, cfg, kind)
	labeler := s.Labeler()
	entries := make([]*core.ModelEntry, len(ds.Sequences))
	pool.ForEach(len(entries), func(i int) {
		p := s.Provision.For(selector)
		p.Seed = cfg.Seed + int64(i)*31
		entries[i] = core.Provision(ds.Sequences[i].Name, ds.TrainingStream(i, cfg.TrainFrames), labeler, p)
	})
	s.Registry = core.NewRegistry(entries...)
	return s
}

// Labeler returns the set's annotation function.
func (s *Set) Labeler() core.Labeler { return core.Labeler(s.Annotator.Labeler(s.Kind)) }

// PipelineConfig assembles the paper-parameter pipeline configuration for
// this set.
func (s *Set) PipelineConfig(selector core.SelectorKind) core.PipelineConfig {
	cfg := core.DefaultPipelineConfig(s.DS.FrameDim(), s.Annotator.NumClasses(s.Kind))
	cfg.Selector = selector
	cfg.Provision = s.Provision
	// Models trained mid-stream see fresh, matched data; fewer epochs and
	// a smaller ensemble suffice and keep the recovery path cheap.
	cfg.Provision.Classifier.Epochs = 20
	cfg.Provision.EnsembleSize = 3
	cfg.NewModelFrames = s.cfg.TrainFrames
	cfg.Seed = s.cfg.Seed
	return cfg
}
