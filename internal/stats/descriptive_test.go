package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVarianceKnown(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !almost(m, 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", m)
	}
	if v := Variance(xs); !almost(v, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", v)
	}
	if s := StdDev(xs); !almost(s, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", s)
	}
}

func TestMeanEmptyAndSingle(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if Variance([]float64{3}) != 0 {
		t.Error("Variance of singleton != 0")
	}
	if Mean([]float64{3}) != 3 {
		t.Error("Mean of singleton wrong")
	}
}

func TestMinMaxQuantile(t *testing.T) {
	xs := []float64{5, 1, 9, 3}
	if Min(xs) != 1 || Max(xs) != 9 {
		t.Errorf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
}

func TestWelfordMatchesBatch(t *testing.T) {
	g := NewRNG(21)
	f := func(n uint8) bool {
		size := int(n)%50 + 2
		xs := g.NormalVec(size, 1, 3)
		var w Welford
		for _, x := range xs {
			w.Add(x)
		}
		return almost(w.Mean(), Mean(xs), 1e-9) &&
			almost(w.Variance(), Variance(xs), 1e-9) &&
			w.Count() == size
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	for _, x := range []float64{0.1, 0.3, 0.6, 0.9, -5, 5} {
		h.Add(x)
	}
	if h.Total() != 6 {
		t.Errorf("Total = %d", h.Total())
	}
	// Clamped values land on edge bins.
	if h.Counts[0] != 2 || h.Counts[3] != 2 {
		t.Errorf("edge bins = %v", h.Counts)
	}
	p := h.Probabilities()
	sum := 0.0
	for _, v := range p {
		if v <= 0 {
			t.Errorf("smoothed probability not positive: %v", p)
		}
		sum += v
	}
	if !almost(sum, 1, 1e-12) {
		t.Errorf("probabilities sum to %v", sum)
	}
}

func TestHistogramClone(t *testing.T) {
	h := NewHistogram(0, 1, 3)
	h.Add(0.5)
	c := h.Clone()
	c.Add(0.5)
	if h.Total() == c.Total() {
		t.Error("Clone shares state with original")
	}
}

func TestKLDivergenceProperties(t *testing.T) {
	p := []float64{0.2, 0.3, 0.5}
	if d := KLDivergence(p, p); !almost(d, 0, 1e-12) {
		t.Errorf("KL(p||p) = %v", d)
	}
	q := []float64{0.5, 0.3, 0.2}
	if d := KLDivergence(p, q); d <= 0 {
		t.Errorf("KL(p||q) = %v, want > 0", d)
	}
	if d := KLDivergence([]float64{1, 0}, []float64{0, 1}); !math.IsInf(d, 1) {
		t.Errorf("KL with zero support = %v, want +Inf", d)
	}
}

func TestKLDivergenceNonNegativeProperty(t *testing.T) {
	g := NewRNG(77)
	f := func(seed uint8) bool {
		p := normalize(g.UniformVec(5, 0.01, 1))
		q := normalize(g.UniformVec(5, 0.01, 1))
		return KLDivergence(p, q) >= -1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func normalize(v []float64) []float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x / s
	}
	return out
}
