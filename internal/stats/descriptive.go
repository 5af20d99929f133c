package stats

import "math"

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 when len(xs) < 2.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n)
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the minimum of xs. It panics on an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs. It panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Welford accumulates a running mean and variance in a single pass using
// Welford's algorithm. The zero value is ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates x into the running statistics.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Count returns the number of observations added so far.
func (w *Welford) Count() int { return w.n }

// Mean returns the running mean (0 before any observations).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the running population variance.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// StdDev returns the running population standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Histogram is an equal-width histogram over a fixed range, used for the
// empirical distributions ODIN's KL-divergence test compares.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	total  int
}

// NewHistogram creates a histogram with bins equal-width bins over
// [lo, hi]. Observations outside the range are clamped to the edge bins.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 {
		panic("stats: NewHistogram with non-positive bin count")
	}
	if hi <= lo {
		panic("stats: NewHistogram with hi <= lo")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	b := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
	if b < 0 {
		b = 0
	}
	if b >= len(h.Counts) {
		b = len(h.Counts) - 1
	}
	h.Counts[b]++
	h.total++
}

// Total returns the number of observations recorded.
func (h *Histogram) Total() int { return h.total }

// Probabilities returns the additive-smoothed bin probabilities. Smoothing
// keeps every bin strictly positive so KL divergences stay finite.
func (h *Histogram) Probabilities() []float64 {
	p := make([]float64, len(h.Counts))
	denom := float64(h.total) + float64(len(h.Counts))
	for i, c := range h.Counts {
		p[i] = (float64(c) + 1) / denom
	}
	return p
}

// Clone returns a deep copy of the histogram.
func (h *Histogram) Clone() *Histogram {
	c := *h
	c.Counts = append([]int(nil), h.Counts...)
	return &c
}

// KLDivergence returns the Kullback–Leibler divergence KL(p || q) in nats
// between two discrete distributions of equal length. Zero entries in p
// contribute nothing; zero entries in q where p is positive yield +Inf.
func KLDivergence(p, q []float64) float64 {
	if len(p) != len(q) {
		panic("stats: KLDivergence length mismatch")
	}
	d := 0.0
	for i := range p {
		if p[i] == 0 { // exact zero mass is a defined case of discrete KL
			continue
		}
		if q[i] == 0 { // exact zero mass yields +Inf by definition
			return math.Inf(1)
		}
		d += p[i] * math.Log(p[i]/q[i])
	}
	return d
}
