package core

import (
	"sort"

	"videodrift/internal/stats"
	"videodrift/internal/telemetry"
	"videodrift/internal/tensor"
	"videodrift/internal/vision"
)

const (
	// featBins is the per-dimension bin count of the attribution
	// histograms. The binning is FIXED at construction from the reference
	// sample — bin edges never depend on the recent window — so the
	// divergences are a deterministic function of the observed features
	// and replay bit-identically (the driftlint determinism analyzer
	// covers this package).
	featBins = 16
	// featRecentCap bounds the recent window, in sampled frames. At the
	// default SampleEvery=10 it spans ~640 stream frames, comfortably
	// covering the detection lag of any drift it is asked to explain.
	featRecentCap = 64
	// featPad widens the reference range on each side by this fraction of
	// the reference span, so moderately out-of-range drifted values land
	// in interior bins instead of piling onto the clamped edge bins.
	featPad = 0.25
)

// FeatWindowStats maintains streaming reference-versus-recent statistics
// over the featurizer's appearance dimensions — the "what moved" half of
// drift forensics. The reference distribution (per-dimension histogram,
// mean and variance) is frozen at construction from the model entry's
// reference sample; Observe folds the recent sampled frames into a
// bounded ring; Attribution compares the two and ranks the dimensions by
// divergence. It is not safe for concurrent use (the owning
// DriftInspector serializes access).
type FeatWindowStats struct {
	dim     int
	lo, hi  []float64   // per-dim fixed bin range, reference-derived
	refProb [][]float64 // per-dim smoothed reference bin probabilities
	refMean []float64
	refVar  []float64

	recent  []float64 // flat ring of recent feature vectors, featRecentCap×dim
	n, head int
	// snap is State's capture of the ring as it stands, nil once the ring
	// has changed. It is handed out and never written again.
	snap []tensor.Vector
}

// NewFeatWindowStats builds the accumulator against a non-empty
// reference feature sample (one vector per reference frame, equal
// lengths).
func NewFeatWindowStats(ref []tensor.Vector) *FeatWindowStats {
	if len(ref) == 0 {
		panic("core: NewFeatWindowStats with empty reference")
	}
	dim := len(ref[0])
	fw := &FeatWindowStats{
		dim:     dim,
		lo:      make([]float64, dim),
		hi:      make([]float64, dim),
		refProb: make([][]float64, dim),
		refMean: make([]float64, dim),
		refVar:  make([]float64, dim),
		recent:  make([]float64, featRecentCap*dim),
	}
	col := make([]float64, len(ref))
	for d := 0; d < dim; d++ {
		for i, v := range ref {
			col[i] = v[d]
		}
		mn, mx := stats.Min(col), stats.Max(col)
		pad := featPad * (mx - mn)
		if pad < 1e-9 {
			pad = 1e-9
		}
		fw.lo[d], fw.hi[d] = mn-pad, mx+pad
		fw.refProb[d] = fw.histProb(d, col)
		fw.refMean[d] = stats.Mean(col)
		fw.refVar[d] = stats.Variance(col)
	}
	return fw
}

// histProb bins xs over dimension d's fixed range and returns the
// additive-smoothed probabilities (strictly positive, so divergences
// stay finite).
func (fw *FeatWindowStats) histProb(d int, xs []float64) []float64 {
	h := stats.NewHistogram(fw.lo[d], fw.hi[d], featBins)
	for _, x := range xs {
		h.Add(x)
	}
	return h.Probabilities()
}

// Observe folds one sampled frame's feature vector into the recent ring.
// The vector is copied (the featurizer reuses its output buffer).
func (fw *FeatWindowStats) Observe(feat tensor.Vector) {
	if len(feat) != fw.dim {
		return
	}
	fw.snap = nil
	copy(fw.recent[fw.head*fw.dim:(fw.head+1)*fw.dim], feat)
	fw.head = (fw.head + 1) % featRecentCap
	if fw.n < featRecentCap {
		fw.n++
	}
}

// Recent returns how many sampled frames the recent window holds.
func (fw *FeatWindowStats) Recent() int { return fw.n }

// Reset clears the recent window (after a model switch); the reference
// statistics are immutable and survive.
func (fw *FeatWindowStats) Reset() {
	fw.snap = nil
	fw.n = 0
	fw.head = 0
}

// Attribution compares the recent window against the reference and
// returns every dimension's divergence, ranked most-moved first (by JS
// divergence, ties broken by dimension index so the order is
// deterministic). Returns nil when no frames have been observed yet.
func (fw *FeatWindowStats) Attribution() []telemetry.DimShift {
	if fw.n == 0 {
		return nil
	}
	col := make([]float64, fw.n)
	start := (fw.head - fw.n + featRecentCap) % featRecentCap
	out := make([]telemetry.DimShift, fw.dim)
	mix := make([]float64, featBins)
	for d := 0; d < fw.dim; d++ {
		for i := 0; i < fw.n; i++ {
			col[i] = fw.recent[((start+i)%featRecentCap)*fw.dim+d]
		}
		p := fw.histProb(d, col)
		q := fw.refProb[d]
		for b := range mix {
			mix[b] = 0.5 * (p[b] + q[b])
		}
		denom := fw.refVar[d]
		if denom < 1e-18 {
			denom = 1e-18
		}
		ds := telemetry.DimShift{
			Dim:       d,
			KL:        stats.KLDivergence(p, q),
			JS:        0.5*stats.KLDivergence(p, mix) + 0.5*stats.KLDivergence(q, mix),
			MeanShift: stats.Mean(col) - fw.refMean[d],
			VarRatio:  stats.Variance(col) / denom,
		}
		if fw.dim == vision.AppearanceDim {
			ds.Name = vision.AppearanceDimNames[d]
		}
		out[d] = ds
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].JS > out[j].JS {
			return true
		}
		if out[i].JS < out[j].JS {
			return false
		}
		return out[i].Dim < out[j].Dim
	})
	return out
}

// FeatStatsState is the serializable recent window of a FeatWindowStats
// (the reference statistics are recomputed from the model entry on
// restore, so only the mutable ring is persisted). Vectors are stored
// oldest first.
//
//driftlint:snapshot encode=FeatWindowStats.State decode=FeatWindowStats.SetState
type FeatStatsState struct {
	Recent []tensor.Vector
}

// State captures the recent window for checkpointing. The supervisor
// snapshots every frame and the ring changes on one frame in SampleEvery,
// so the capture — one backing array, the vectors views into it — is kept
// and handed out again until Observe, Reset or SetState changes the ring.
// Captures are shared between the snapshots that hold them: read-only.
func (fw *FeatWindowStats) State() FeatStatsState {
	if fw.snap == nil {
		flat := make([]float64, fw.n*fw.dim)
		fw.snap = make([]tensor.Vector, fw.n)
		start := (fw.head - fw.n + featRecentCap) % featRecentCap
		for i := range fw.snap {
			row := (start + i) % featRecentCap
			fw.snap[i] = flat[i*fw.dim : (i+1)*fw.dim : (i+1)*fw.dim]
			copy(fw.snap[i], fw.recent[row*fw.dim:(row+1)*fw.dim])
		}
	}
	return FeatStatsState{Recent: fw.snap}
}

// SetState replaces the recent window with one captured by State against
// the same reference: subsequent Attribution calls return exactly what
// the snapshotted accumulator would have returned.
func (fw *FeatWindowStats) SetState(s FeatStatsState) {
	fw.Reset()
	for _, v := range s.Recent {
		fw.Observe(v)
	}
}
