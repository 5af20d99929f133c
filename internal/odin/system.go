package odin

import (
	"fmt"
	"iter"
	"slices"

	"videodrift/internal/classifier"
	"videodrift/internal/stats"
	"videodrift/internal/tensor"
	"videodrift/internal/vidsim"
	"videodrift/internal/vision"
)

// Labeler produces the query label for a frame (the annotation oracle).
type Labeler func(f vidsim.Frame) int

// Outcome reports what the ODIN system did with one frame.
type Outcome struct {
	Prediction  int
	Invocations int  // models invoked for this frame (>1 for ensembles)
	Drift       bool // a cluster was promoted on this frame
	Specialized bool // a new model was trained on this frame
}

// Metrics accumulates ODIN statistics mirroring the pipeline's.
type Metrics struct {
	Frames           int
	ModelInvocations int
	DriftsDetected   int
	ModelsTrained    int
	EnsembleFrames   int // frames processed by more than one model
}

// System is the full ODIN baseline: Detect + Select + Specialize. Frames
// flow through the clustering on every step; the frame's prediction comes
// from the model of its cluster, from an equal-weight ensemble when it
// falls in several bands (the paper's §6.2 behaviour), or from the
// nearest cluster's model while it sits in a temporary cluster. It is not
// safe for concurrent use.
type System struct {
	det      *Detector
	features vision.FeatureFunc
	labeler  Labeler
	clfCfg   classifier.Config
	rng      *stats.RNG
	w, h     int

	models    map[int]*classifier.Classifier
	tempBuf   []vidsim.Held // frames of the current temporary cluster
	maxBuffer int

	metrics Metrics
}

// NewSystem builds an ODIN system. The labeler annotates frames for
// ODIN-Specialize; features is the classifier front-end.
func NewSystem(cfg Config, w, h int, features vision.FeatureFunc, labeler Labeler, clfCfg classifier.Config, seed int64) *System {
	if features == nil || labeler == nil {
		panic("odin: NewSystem needs features and labeler")
	}
	return &System{
		det:       NewDetector(cfg, w, h),
		features:  features,
		labeler:   labeler,
		clfCfg:    clfCfg,
		rng:       stats.NewRNG(seed),
		w:         w,
		h:         h,
		models:    map[int]*classifier.Classifier{},
		maxBuffer: 512,
	}
}

// Detector exposes the underlying ODIN-Detect instance.
func (s *System) Detector() *Detector { return s.det }

// Metrics returns the accumulated statistics.
func (s *System) Metrics() Metrics { return s.metrics }

// Bootstrap seeds one permanent cluster and its model from provisioned
// training frames (the models available before the stream starts).
func (s *System) Bootstrap(frames []vidsim.Frame) int {
	id := s.det.Bootstrap(frames)
	s.models[id] = s.train(slices.Values(frames))
	return id
}

// train fits a classifier on labeler-annotated frames — ODIN-Specialize.
func (s *System) train(frames iter.Seq[vidsim.Frame]) *classifier.Classifier {
	var samples []classifier.Sample
	for f := range frames {
		samples = append(samples, classifier.Sample{X: s.features(f.Pixels, s.w, s.h), Label: s.labeler(f)})
	}
	c := classifier.New(s.clfCfg, s.rng.Split())
	c.Fit(samples, s.rng.Split())
	return c
}

// Process runs one frame through Detect, Select and (on promotion)
// Specialize, returning the query prediction and the number of model
// invocations it cost. f is borrowed: the Specialize buffer keeps a copy.
func (s *System) Process(f vidsim.Frame) Outcome {
	s.metrics.Frames++
	tempBefore := s.det.TempSize()
	res := s.det.Observe(f)
	out := Outcome{}

	// Keep the Specialize buffer in sync with the detector's temporary
	// cluster: a discarded (aged-out) temp cluster must not leave stale
	// frames behind.
	if s.det.TempSize() <= 1 && tempBefore > 1 && !res.Drift {
		s.tempBuf = s.tempBuf[:0]
	}

	// Specialize BEFORE serving: a cluster promoted on this very frame is
	// already visible to nearest-cluster lookups and must have its model.
	if res.Drift {
		s.metrics.DriftsDetected++
		out.Drift = true
		if len(s.tempBuf) > 0 {
			s.models[res.Promoted] = s.train(vidsim.Lend(s.tempBuf))
			s.metrics.ModelsTrained++
			out.Specialized = true
			s.tempBuf = s.tempBuf[:0]
		} else {
			// Degenerate promotion with no buffered frames: reuse the
			// nearest pre-existing model.
			s.models[res.Promoted] = s.models[s.nearestModeled(f, res.Promoted)]
		}
	}

	x := s.features(f.Pixels, s.w, s.h)
	switch {
	case len(res.Assigned) == 1:
		out.Prediction = s.models[res.Assigned[0]].Predict(x)
		out.Invocations = 1
	case len(res.Assigned) > 1:
		// Equal-weight ensemble across the assigned clusters' models.
		var mix tensor.Vector
		for _, id := range res.Assigned {
			p := s.models[id].PredictProba(x)
			if mix == nil {
				mix = p.Clone()
			} else {
				mix.AddInPlace(p)
			}
		}
		out.Prediction = mix.ArgMax()
		out.Invocations = len(res.Assigned)
		s.metrics.EnsembleFrames++
	default:
		// Temporary-cluster frame: buffer it for Specialize and serve it
		// with the nearest permanent cluster's model. The frame is
		// borrowed: the buffer keeps a copy (DESIGN.md §14).
		if len(s.tempBuf) < s.maxBuffer {
			s.tempBuf = append(s.tempBuf, f.Keep())
		}
		out.Prediction = s.models[s.nearestCluster(f)].Predict(x)
		out.Invocations = 1
	}
	s.metrics.ModelInvocations += out.Invocations
	return out
}

// nearestCluster returns the permanent cluster whose centroid is closest
// to the frame in the detector's feature space. It panics when no cluster
// exists (Bootstrap must run first).
func (s *System) nearestCluster(f vidsim.Frame) int {
	return s.nearestModeled(f, -1)
}

// nearestModeled is nearestCluster, optionally excluding one cluster ID
// (used during promotion, when the promoted cluster has no model yet).
func (s *System) nearestModeled(f vidsim.Frame, exclude int) int {
	x := vision.Featurize(f.Pixels, s.w, s.h)
	best, bestDist := -1, 0.0
	for _, c := range s.det.Clusters() {
		if c.ID == exclude {
			continue
		}
		if d := x.Dist(c.Centroid()); best < 0 || d < bestDist {
			best, bestDist = c.ID, d
		}
	}
	if best < 0 {
		panic(fmt.Sprintf("odin: no permanent clusters (bootstrap first); frame dim %d", len(x)))
	}
	return best
}
