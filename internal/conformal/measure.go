// Package conformal implements the conformal-prediction machinery of
// paper §4: the kNN non-conformity measure (§4.2.3), conformal p-values
// (Eq. 1), betting functions (§4.2.4), the additive exchangeability
// martingale the paper constructs, and the windowed Hoeffding–Azuma drift
// test (Eq. 15) — the Drift Inspector's Algorithm 1. The measure has one
// fast scorer, KNNScorer, and one reference, KNN.BruteScore. The classic
// multiplicative power martingale it improves on lives beside its one
// caller, the ablation in internal/experiments.
package conformal

import (
	"fmt"
	"math"
	"sort"

	"videodrift/internal/tensor"
)

// KNN is the k-nearest-neighbour non-conformity measure the paper adopts:
// the average Euclidean distance from the observation to its K closest
// elements of the reference sample (§4.2.3 with K from §6.1). The larger
// the score, the stranger the observation is with respect to the
// reference. KNNScorer computes it; BruteScore is its reference.
type KNN struct {
	K int
}

// BruteScore is the allocate-and-sort-all implementation, the reference
// KNNScorer is property-tested against (and the worked-example baseline
// of Tables 2–4). When the reference holds fewer than K elements, all of
// them are used; K <= 0 means 1. It panics on an empty reference.
func (m KNN) BruteScore(x tensor.Vector, ref []tensor.Vector) float64 {
	if len(ref) == 0 {
		panic("conformal: KNN.BruteScore with empty reference")
	}
	k := clampK(m.K, len(ref))
	dists := make([]float64, len(ref))
	for i, r := range ref {
		dists[i] = x.Dist(r)
	}
	sort.Float64s(dists)
	sum := 0.0
	for _, d := range dists[:k] {
		sum += d
	}
	return sum / float64(k)
}

func clampK(k, n int) int {
	if k <= 0 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// KNNScorer is the zero-allocation kNN non-conformity scorer every Σ is
// scored with: squared distances stream out of a flattened contiguous
// reference matrix and a size-K max-heap of scratch storage keeps the
// current K nearest. Every Σ the system builds is vision.Featurize
// output, 4 wide, and that width has a register path of its own; any
// other width takes one exact loop over RefMatrix.SqDistRow. Scores are
// bit-identical to KNN.BruteScore over the same reference (the
// sqrt/sum arithmetic and its ordering are preserved). A KNNScorer reuses
// internal scratch and is NOT safe for concurrent use; the RefMatrix it
// reads is immutable and may be shared by any number of scorers.
type KNNScorer struct {
	k    int
	ref  *tensor.RefMatrix
	heap []float64 // size-k max-heap of the smallest squared distances
}

// NewKNNScorer builds a scorer for k nearest neighbours over the
// flattened reference. It panics on an empty reference; k is clamped the
// same way KNN.BruteScore clamps it.
func NewKNNScorer(k int, ref *tensor.RefMatrix) *KNNScorer {
	if ref == nil || ref.Len() == 0 {
		panic("conformal: NewKNNScorer with empty reference")
	}
	k = clampK(k, ref.Len())
	return &KNNScorer{k: k, ref: ref, heap: make([]float64, 0, k)}
}

// K returns the (clamped) neighbour count.
func (s *KNNScorer) K() int { return s.k }

// Score returns the mean distance from x to its K nearest reference rows.
func (s *KNNScorer) Score(x tensor.Vector) float64 { return s.ScoreSkip(x, -1) }

// ScoreSkip scores x against the reference with row `skip` excluded —
// the leave-one-out primitive Calibrate builds on (skip < 0 excludes
// nothing). It panics when skipping leaves the reference empty.
func (s *KNNScorer) ScoreSkip(x tensor.Vector, skip int) float64 {
	n := s.ref.Len()
	avail := n
	if skip >= 0 && skip < n {
		avail--
	}
	if avail == 0 {
		panic("conformal: KNNScorer.ScoreSkip with empty reference")
	}
	k := s.k
	if k > avail {
		k = avail
	}
	h := s.heap[:0]
	if s.ref.Dim() == 4 && len(x) == 4 {
		// The default appearance features are exactly 4-dim; hoisting the
		// probe into locals lets the whole distance drop into registers.
		// Accumulation order matches SqDistRow (ascending j), so scores
		// stay bit-identical.
		x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
		for i := 0; i < n; i++ {
			if i == skip {
				continue
			}
			row := s.ref.Row(i)[:4]
			d0 := x0 - row[0]
			d1 := x1 - row[1]
			d2v := x2 - row[2]
			d3 := x3 - row[3]
			d2 := d0 * d0
			d2 += d1 * d1
			d2 += d2v * d2v
			d2 += d3 * d3
			if len(h) < k {
				h = append(h, d2)
				siftUp(h)
				continue
			}
			if d2 < h[0] {
				h[0] = d2
				siftDown(h)
			}
		}
	} else {
		for i := 0; i < n; i++ {
			if i == skip {
				continue
			}
			d2 := s.ref.SqDistRow(x, i)
			if len(h) < k {
				h = append(h, d2)
				siftUp(h)
				continue
			}
			if d2 < h[0] {
				h[0] = d2
				siftDown(h)
			}
		}
	}
	s.heap = h
	// Sum sqrt'ed distances in ascending order — the same ordering the
	// sorted brute-force path uses, keeping the float accumulation
	// bit-identical. k is small (paper: 5); insertion sort is free.
	insertionSort(h)
	sum := 0.0
	for _, d2 := range h {
		sum += math.Sqrt(d2)
	}
	return sum / float64(k)
}

// siftUp restores the max-heap property after appending to h.
func siftUp(h []float64) {
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent] >= h[i] {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

// siftDown restores the max-heap property after replacing h[0].
func siftDown(h []float64) {
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < len(h) && h[l] > h[largest] {
			largest = l
		}
		if r < len(h) && h[r] > h[largest] {
			largest = r
		}
		if largest == i {
			return
		}
		h[i], h[largest] = h[largest], h[i]
		i = largest
	}
}

func insertionSort(a []float64) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

// Calibrate returns the leave-one-out non-conformity score of every
// element of ref against the rest — the precomputed A_i list of
// Algorithm 1 — computed in place over one flattened reference matrix by
// skipping row i during scoring. It panics when ref has fewer than two
// elements.
func Calibrate(m KNN, ref []tensor.Vector) []float64 {
	if len(ref) < 2 {
		panic(fmt.Sprintf("conformal: Calibrate needs >= 2 reference points, got %d", len(ref)))
	}
	scorer := NewKNNScorer(m.K, tensor.FlattenVectors(ref))
	scores := make([]float64, len(ref))
	for i, x := range ref {
		scores[i] = scorer.ScoreSkip(x, i)
	}
	return scores
}

// PValue computes the conformal p-value of Eq. 1 / Algorithm 1 lines 4–9:
// the fraction of calibration scores strictly greater than a, with ties
// broken by the uniform draw u in [0,1). Small p-values mean strange
// observations. It panics on an empty calibration list.
func PValue(calib []float64, a float64, u float64) float64 {
	if len(calib) == 0 {
		panic("conformal: PValue with empty calibration scores")
	}
	score := 0.0
	for _, c := range calib {
		switch {
		case c > a:
			score++
		case c == a: // exact ties are defined behaviour: Eq. 1 weights them by the uniform draw u
			score += u
		}
	}
	return score / float64(len(calib))
}

// SortedCalib is a calibration list pre-sorted for O(log n) p-values,
// used on the hot monitoring path.
type SortedCalib struct {
	scores []float64
}

// NewSortedCalib copies and sorts calibration scores.
func NewSortedCalib(calib []float64) *SortedCalib {
	if len(calib) == 0 {
		panic("conformal: NewSortedCalib with empty calibration scores")
	}
	s := append([]float64(nil), calib...)
	sort.Float64s(s)
	return &SortedCalib{scores: s}
}

// Len returns the number of calibration scores.
func (s *SortedCalib) Len() int { return len(s.scores) }

// PValue returns the Eq. 1 p-value of score a with tie-break draw u,
// computed by binary search.
func (s *SortedCalib) PValue(a float64, u float64) float64 {
	n := len(s.scores)
	lo := sort.SearchFloat64s(s.scores, a)                            // first index with score >= a
	hi := sort.Search(n, func(i int) bool { return s.scores[i] > a }) // first > a
	greater := float64(n - hi)
	ties := float64(hi - lo)
	return (greater + u*ties) / float64(n)
}
