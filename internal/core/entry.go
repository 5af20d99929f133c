// Package core implements the paper's contribution: the Drift Inspector
// (Algorithm 1), the MSBI and MSBO model-selection algorithms (Algorithms
// 2 and 3), and the end-to-end drift-aware pipeline of Figure 1 that ties
// them to a registry of provisioned models.
package core

import (
	"fmt"
	"iter"
	"slices"
	"sync"
	"sync/atomic"

	"videodrift/internal/classifier"
	"videodrift/internal/conformal"
	"videodrift/internal/nn"
	"videodrift/internal/stats"
	"videodrift/internal/tensor"
	"videodrift/internal/vae"
	"videodrift/internal/vidsim"
	"videodrift/internal/vision"
)

// Labeler maps a frame to its query label (e.g. the car count bucket) —
// the role Mask R-CNN annotation plays in the paper (§5.4). It annotates
// from the pixels: a selection or training window holds kept frames,
// which carry position and pixels only (vidsim.Frame.Keep).
type Labeler func(f vidsim.Frame) int

// SampleSource selects where an entry's reference sample Σ_{T_i} comes
// from.
type SampleSource int

const (
	// SourceHeldOut draws Σ_{T_i} from the training frames themselves
	// (temporally strided, so approximately independent). It skips VAE
	// training and preserves full appearance detail — the default,
	// because decoded VAE samples are blurry enough to blunt the
	// non-conformity measure on subtle drifts (see DESIGN.md §2; the
	// ablation benchmark quantifies the gap).
	SourceHeldOut SampleSource = iota
	// SourceVAE is the paper-faithful mode: train the VAE A_{T_i} and
	// decode z ~ N(0,I) into Σ_{T_i}.
	SourceVAE
)

// ProvisionConfig controls how a ModelEntry is built from training frames.
type ProvisionConfig struct {
	Source       SampleSource
	VAE          vae.Config
	VAEEpochs    int
	SampleCount  int // |Σ_Ti|, the size of the reference sample
	K            int // kNN parameter for the calibration scores
	Classifier   classifier.Config
	EnsembleSize int // L, the MSBO deep-ensemble size; 0 provisions no ensemble (see For)
	Seed         int64
	// QueryFn is the classifier front-end mapping frame pixels to the
	// query model's input (vision.QueryFeatures when nil; use
	// vision.SpatialFeatures for spatial-constrained queries). The
	// classifier's InputDim is derived from it.
	QueryFn vision.FeatureFunc
}

// DefaultProvisionConfig returns the repo's scaled-down defaults for the
// paper's training setup (§6: VAE per distribution, VGG-style classifier,
// ensemble of L members).
func DefaultProvisionConfig(frameDim, numClasses int) ProvisionConfig {
	return ProvisionConfig{
		VAE:          vae.DefaultConfig(frameDim),
		VAEEpochs:    8,
		SampleCount:  100,
		K:            5,
		Classifier:   classifier.Config{HiddenDim: 48, NumClasses: numClasses, LR: 5e-3, Epochs: 60},
		EnsembleSize: 5,
		Seed:         1,
	}
}

// For returns the configuration trimmed to what a pipeline running sel
// reads from an entry: MSBI (Algorithm 2) needs only Σ_{T_i} and A_i and
// never scores an ensemble, so none is fitted. Every model a deployment
// provisions — at boot or after a drift — goes through it.
func (c ProvisionConfig) For(sel SelectorKind) ProvisionConfig {
	if sel == SelectorMSBI {
		c.EnsembleSize = 0
	}
	return c
}

// ModelEntry bundles everything provisioned alongside one model M_i: the
// VAE A_{T_i}, the i.i.d. sample Σ_{T_i} in the feature space the
// non-conformity measure reads, the precomputed calibration scores A_i,
// the query classifier, and the MSBO uncertainty ensemble (Table 1 of the
// paper). The pixel-space samples exist only inside Provision: an entry
// that kept them would pin the frames it was trained on for the life of
// the process.
type ModelEntry struct {
	Name string
	W, H int // frame geometry the entry was provisioned for

	VAE         *vae.VAE
	SampleFeats []tensor.Vector // Σ_{T_i} in feature space — what DI and MSBI measure against
	CalibRaw    []float64       // A_i, scores of training frames against Σ
	Calib       *conformal.SortedCalib

	Classifier *classifier.Classifier // query model (nil when unsupervised)
	Ensemble   *classifier.Ensemble   // MSBO ensemble (nil when unsupervised or provisioned for MSBI)
	queryFn    vision.FeatureFunc     // classifier front-end

	// featMat is SampleFeats flattened for the kNN fast path, built
	// lazily because replayed/ad-hoc entries may never be scored. The
	// sync.Once makes the build safe when shards share one entry.
	featMat     *tensor.RefMatrix
	featMatOnce sync.Once

	// CalibSample is a labeled random sample S_{T_i} of the training data
	// retained for MSBO threshold calibration (§5.2.2).
	CalibSample []classifier.Sample
}

// Provision builds a ModelEntry from training frames: trains the VAE,
// draws the i.i.d. sample Σ_{T_i}, precomputes calibration scores, and —
// when a labeler is supplied — trains the query classifier and the MSBO
// ensemble on labeler-annotated frames (§5.4). A nil labeler produces an
// unsupervised entry usable by DI and MSBI only. EnsembleSize 0 produces
// the full entry minus Ensemble, bit for bit: usable by MSBI only too.
//
// Provision walks frames once and borrows each frame only until the
// next: a frame is featurized (vision.Featurizer.Query, whose appearance
// slice is what Σ and A_i are measured in), labelled and let go, so the
// frames may be rendered one at a time into a single buffer
// (vidsim.TrainingStream). Only SourceVAE, which fits the VAE on the
// pixels, copies them. Everything random is drawn after the walk, in the
// order it always was, so the entry does not depend on how frames are
// produced.
func Provision(name string, frames iter.Seq[vidsim.Frame], labeler Labeler, cfg ProvisionConfig) *ModelEntry {
	if labeler != nil && cfg.QueryFn == nil {
		cfg.QueryFn = vision.QueryFeatures
	}
	var (
		fz      vision.Featurizer
		w, h    int
		apps    []float64 // every frame's appearance features, AppearanceDim each
		labeled []classifier.Sample
		pixels  []tensor.Vector // SourceVAE's copies
	)
	for f := range frames {
		if apps == nil {
			w, h = f.W, f.H
			cfg.VAE.InputDim = len(f.Pixels)
		}
		var app tensor.Vector
		if labeler != nil {
			var q tensor.Vector
			q, app = fz.Query(cfg.QueryFn, f.Pixels, w, h)
			labeled = append(labeled, classifier.Sample{X: slices.Clone(q), Label: labeler(f)})
		}
		if app == nil {
			app = fz.Appearance(f.Pixels, w, h)
		}
		apps = append(apps, app...)
		if cfg.Source == SourceVAE {
			pixels = append(pixels, slices.Clone(f.Pixels))
		}
	}
	n := len(apps) / vision.AppearanceDim
	if n == 0 {
		panic("core: Provision with no training frames")
	}
	appOf := func(i int) tensor.Vector {
		return apps[i*vision.AppearanceDim : (i+1)*vision.AppearanceDim]
	}
	rng := stats.NewRNG(cfg.Seed)
	if cfg.SampleCount > n {
		cfg.SampleCount = n
	}

	// Calibration scores A_i must come from real frames DISJOINT from the
	// reference sample Σ: a frame scored against a sample containing
	// itself gets a deflated kNN score, which would bias every live
	// p-value small and flood the martingale with false drifts. (The
	// paper precomputes A_i from the Σ elements themselves; decoded VAE
	// samples are mutually smoother than real frames, so we calibrate on
	// real frames instead — the standard inductive-conformal recipe. See
	// DESIGN.md §2.)
	var v *vae.VAE
	var feats []tensor.Vector
	perm := rng.Perm(n)
	calIdx := perm // frames used for calibration (all of them, in VAE mode)
	switch cfg.Source {
	case SourceVAE:
		v = vae.New(cfg.VAE, rng.Split())
		v.Fit(pixels, cfg.VAEEpochs)
		feats = vision.FeaturizeFrames(v.Sample(cfg.SampleCount), w, h)
	default: // SourceHeldOut
		nSamp := min(cfg.SampleCount, (n+1)/2)
		feats = make([]tensor.Vector, nSamp)
		for i, idx := range perm[:nSamp] {
			feats[i] = slices.Clone(appOf(idx))
		}
		if rest := perm[nSamp:]; len(rest) > 0 {
			calIdx = rest
		}
	}
	nCal := min(len(calIdx), 256)
	scorer := conformal.NewKNNScorer(cfg.K, tensor.FlattenVectors(feats))
	calib := make([]float64, nCal)
	for i := range calib {
		calib[i] = scorer.Score(appOf(calIdx[i]))
	}

	e := &ModelEntry{
		Name:        name,
		W:           w,
		H:           h,
		VAE:         v,
		SampleFeats: feats,
		CalibRaw:    calib,
		Calib:       conformal.NewSortedCalib(calib),
	}

	if labeler != nil {
		e.queryFn = cfg.QueryFn
		cfg.Classifier.InputDim = len(labeled[0].X)
		e.Classifier = classifier.New(cfg.Classifier, rng.Split())
		e.Classifier.Fit(labeled, rng.Split())
		if cfg.EnsembleSize == 0 {
			// Burn the ensemble's two Splits, so CalibSample below is the
			// one the full entry retains.
			rng.Int63()
			rng.Int63()
		} else {
			e.Ensemble = classifier.NewEnsemble(cfg.EnsembleSize, cfg.Classifier, rng.Split())
			e.Ensemble.Fit(labeled, rng.Split())
		}
		// Retain a fixed-size labeled sample for MSBO calibration.
		perm := rng.Perm(len(labeled))
		e.CalibSample = make([]classifier.Sample, min(len(labeled), 32))
		for i := range e.CalibSample {
			e.CalibSample[i] = labeled[perm[i]]
		}
	}
	return e
}

// FeatMatrix returns the entry's reference features Σ_{T_i} flattened
// into the contiguous matrix the kNN fast path streams over. It is built
// on first use and shared by every inspector (and every stream shard)
// monitoring this entry; concurrent first calls are safe.
func (e *ModelEntry) FeatMatrix() *tensor.RefMatrix {
	e.featMatOnce.Do(func() {
		e.featMat = tensor.FlattenVectors(e.SampleFeats)
	})
	return e.featMat
}

// Registry is the collection of provisioned models M_1 … M_m the Model
// Selector chooses from. A registry may be read by many goroutines (and,
// with checkpointing, outlive the process that built it) while new
// models trained after novel drifts are appended; every method is safe
// for concurrent use. Entries themselves are immutable once provisioned.
//
// Reads are lock-free: the entry list lives in an immutable
// RegistrySnap published through an atomic pointer (copy-on-write), so
// the per-frame hot path never contends with a concurrent Add. Writers
// serialize on mu, copy the entry slice, and publish a new snapshot —
// readers holding the old snapshot keep a consistent prefix view.
type Registry struct {
	mu   sync.Mutex // serializes writers; readers go through snap only
	snap atomic.Pointer[RegistrySnap]
}

// RegistrySnap is one immutable registry generation: the entry list as
// of one Add. Neither the snapshot nor its slice is ever mutated after
// publication; callers may hold or iterate it freely without copying.
type RegistrySnap struct {
	entries []*ModelEntry
}

// Entries returns the snapshot's entry list in insertion order. The
// slice is the snapshot's own immutable storage — callers must not
// mutate it.
func (s *RegistrySnap) Entries() []*ModelEntry { return s.entries }

// Len returns the number of entries in the snapshot.
func (s *RegistrySnap) Len() int { return len(s.entries) }

// NewRegistry builds a registry from entries.
func NewRegistry(entries ...*ModelEntry) *Registry {
	r := &Registry{}
	r.snap.Store(&RegistrySnap{entries: append([]*ModelEntry(nil), entries...)})
	return r
}

// Snapshot returns the current registry generation, lock-free. The
// result is immutable: an Add after the call publishes a NEW snapshot
// and never mutates outstanding ones.
func (r *Registry) Snapshot() *RegistrySnap { return r.snap.Load() }

// Add appends an entry (e.g. a freshly trained model after a novel
// drift) by publishing a copy-on-write snapshot.
func (r *Registry) Add(e *ModelEntry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := r.snap.Load()
	r.snap.Store(&RegistrySnap{
		entries: append(append(make([]*ModelEntry, 0, len(cur.entries)+1), cur.entries...), e),
	})
}

// Entries returns a copy of the registry's entries in insertion order.
// The returned slice is the caller's own; for the allocation-free hot
// path use Snapshot().Entries() instead.
func (r *Registry) Entries() []*ModelEntry {
	return append([]*ModelEntry(nil), r.Snapshot().entries...)
}

// Len returns the number of provisioned models.
func (r *Registry) Len() int { return len(r.Snapshot().entries) }

// Get returns the entry with the given name, or nil.
func (r *Registry) Get(name string) *ModelEntry {
	for _, e := range r.Snapshot().entries {
		if e.Name == name {
			return e
		}
	}
	return nil
}

// Names returns the entry names in insertion order.
func (r *Registry) Names() []string {
	entries := r.Snapshot().entries
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name
	}
	return names
}

// Predict runs the entry's query classifier on a frame (through the
// shared query-feature front-end). It panics on unsupervised entries.
func (e *ModelEntry) Predict(f vidsim.Frame) int {
	if e.Classifier == nil {
		panic("core: Predict on an unsupervised entry")
	}
	return e.Classifier.Predict(e.queryFn(f.Pixels, e.W, e.H))
}

// predictScratch is one pipeline's classification scratch — the query
// features and the network's layer outputs, reused frame to frame. It
// cannot live on the entry: shards classify through one entry at once.
type predictScratch struct {
	fz  vision.Featurizer
	net nn.Scratch
}

// predictInto is Predict through s: the same class, and no allocation
// once s is warm. Beside the class it returns the frame's appearance
// features when the entry's front-end computed them on the way (a
// built-in one: vision.Featurizer.Query), nil otherwise; they live in s
// until the next call.
func (e *ModelEntry) predictInto(s *predictScratch, f vidsim.Frame) (int, tensor.Vector) {
	q, app := s.fz.Query(e.queryFn, f.Pixels, e.W, e.H)
	return e.Classifier.PredictInto(&s.net, q), app
}

// QuerySample converts a frame and its label into the classifier sample
// format (query features + label) used for MSBO windows.
func (e *ModelEntry) QuerySample(f vidsim.Frame, label int) classifier.Sample {
	return classifier.Sample{X: e.queryFn(f.Pixels, e.W, e.H), Label: label}
}

// QueryFn returns the classifier front-end the entry was provisioned
// with (nil for unsupervised entries) — the checkpoint codec persists it
// by registered name.
func (e *ModelEntry) QueryFn() vision.FeatureFunc { return e.queryFn }

// SetQueryFn installs the classifier front-end on a restored entry.
func (e *ModelEntry) SetQueryFn(fn vision.FeatureFunc) { e.queryFn = fn }

// String implements fmt.Stringer for diagnostics.
func (r *Registry) String() string {
	names := r.Names()
	return fmt.Sprintf("Registry(%d models: %v)", len(names), names)
}
