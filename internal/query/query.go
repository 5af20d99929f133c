// Package query implements the paper's two evaluation queries (§6.3) over
// a video stream — the count query ("how many cars are in the frame") and
// the spatial-constrained query ("a bus is on the left side of a car") —
// together with the annotation oracle that defines their ground truth and
// the query accuracy metric A_q.
//
// As in the paper, ground truth is whatever the Mask R-CNN annotator
// outputs (here the maskrcnn-sim detector), so the annotator itself scores
// A_q = 1.0 by construction, and every other method is judged against it.
package query

import (
	"videodrift/internal/detect"
	"videodrift/internal/vidsim"
	"videodrift/internal/vision"
)

// Kind selects the query being evaluated.
type Kind int

// The paper's two queries.
const (
	Count Kind = iota
	Spatial
)

// String returns the query's name.
func (k Kind) String() string {
	if k == Spatial {
		return "spatial"
	}
	return "count"
}

// FeatureFn returns the classifier front-end appropriate for the query.
func (k Kind) FeatureFn() vision.FeatureFunc {
	if k == Spatial {
		return vision.SpatialFeatures
	}
	return vision.QueryFeatures
}

// Annotator turns detector output into query labels — the role Mask R-CNN
// plays in the paper (§5.4, §6.3). It is safe for concurrent use when its
// detector is; the sliding-window detectors keep no state between calls,
// and boot provisions every sequence at once through one Annotator.
//
// Count labels are reported in buckets of Bucket cars (default 2): the
// occupancy statistics the classifiers run on resolve counts to roughly
// one vehicle of pixel mass, so exact-count classes would be at chance
// and every comparison in Figures 5–7 would collapse. Bucketing is
// applied identically to every method, so A_q comparisons are unaffected
// (see DESIGN.md §2).
type Annotator struct {
	det      detect.Detector
	maxCount int
	bucket   int
}

// NewAnnotator builds the ground-truth annotator around the maskrcnn-sim
// detector. Count labels are capped at maxCount and bucketed by 2.
func NewAnnotator(maxCount int) *Annotator {
	return NewAnnotatorWith(detect.NewMaskRCNNSim(), maxCount)
}

// NewAnnotatorWith builds an annotator around an arbitrary detector (used
// to turn yolo-sim into a drift-oblivious query baseline).
func NewAnnotatorWith(det detect.Detector, maxCount int) *Annotator {
	if maxCount < 1 {
		panic("query: NewAnnotatorWith needs maxCount >= 1")
	}
	return &Annotator{det: det, maxCount: maxCount, bucket: 2}
}

// DetectorName identifies the underlying detector.
func (a *Annotator) DetectorName() string { return a.det.Name() }

// NumClasses returns the label-space size for the query kind.
func (a *Annotator) NumClasses(kind Kind) int {
	if kind == Spatial {
		return 2
	}
	return a.maxCount/a.bucket + 1
}

// CountLabel returns the bucketed number of cars the detector finds.
func (a *Annotator) CountLabel(f vidsim.Frame) int {
	n := detect.CountClass(a.det.Detect(f), vidsim.Car)
	if n > a.maxCount {
		n = a.maxCount
	}
	return n / a.bucket
}

// SpatialLabel returns 1 when the detector finds a bus strictly to the
// left of some car (the paper's §6.3.2 predicate), else 0.
func (a *Annotator) SpatialLabel(f vidsim.Frame) int {
	dets := a.det.Detect(f)
	for _, b := range dets {
		if b.Class != vidsim.Bus {
			continue
		}
		for _, c := range dets {
			if c.Class == vidsim.Car && b.X < c.X {
				return 1
			}
		}
	}
	return 0
}

// Label returns the label for the query kind.
func (a *Annotator) Label(kind Kind, f vidsim.Frame) int {
	if kind == Spatial {
		return a.SpatialLabel(f)
	}
	return a.CountLabel(f)
}

// Labeler returns the label function for the query kind, in the shape the
// pipeline and ODIN take.
func (a *Annotator) Labeler(kind Kind) func(vidsim.Frame) int {
	return func(f vidsim.Frame) int { return a.Label(kind, f) }
}

// Accuracy returns A_q: the fraction of frames where the prediction
// matches ground truth (0 for empty input).
func Accuracy(pred, truth []int) float64 {
	if len(pred) != len(truth) {
		panic("query: Accuracy length mismatch")
	}
	if len(pred) == 0 {
		return 0
	}
	correct := 0
	for i := range pred {
		if pred[i] == truth[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(pred))
}
