package conformal

import (
	"math"
	"testing"
	"testing/quick"

	"videodrift/internal/stats"
	"videodrift/internal/tensor"
)

// paperSigma and paperCalib are the worked example of the paper's Tables
// 2–4 (Σ_Ti, A_i with K=3).
func paperSigma() []tensor.Vector {
	return []tensor.Vector{{2, 3}, {3, 1}, {-1, 0}, {4, 4}, {2, 2}}
}

var paperCalib = []float64{1.8, 2.3, 4, 2.71, 1.72}

func TestCalibrateReproducesPaperTable2(t *testing.T) {
	// The paper's printed values are rounded to 1–2 decimals and not
	// always consistently (e.g. 2.742 appears as 2.71), so the tolerance
	// is loose.
	got := Calibrate(KNN{K: 3}, paperSigma())
	for i, want := range paperCalib {
		if math.Abs(got[i]-want) > 0.05 {
			t.Errorf("A[%d] = %v, paper has %v", i, got[i], want)
		}
	}
}

func TestKNNScoreReproducesPaperTable4(t *testing.T) {
	// Table 3 input frames and Table 4 a_f column (same loose rounding as
	// Table 2 — [9,8] prints 7.6 where exact K=3 arithmetic gives 8.07).
	inputs := []tensor.Vector{{8, 6}, {9, 8}, {10, 7}, {6, 7}}
	want := []float64{6.1, 7.6, 8.3, 5.2}
	scorer := NewKNNScorer(3, tensor.FlattenVectors(paperSigma()))
	for i, f := range inputs {
		got := scorer.Score(f)
		if math.Abs(got-want[i]) > 0.5 {
			t.Errorf("a_f(%v) = %v, paper has %v", f, got, want[i])
		}
	}
}

func TestPaperExamplePValuesAreZero(t *testing.T) {
	scorer := NewKNNScorer(3, tensor.FlattenVectors(paperSigma()))
	for _, f := range []tensor.Vector{{8, 6}, {9, 8}, {10, 7}, {6, 7}} {
		if p := PValue(paperCalib, scorer.Score(f), 0.5); p != 0 {
			t.Errorf("p-value of %v = %v, paper has 0", f, p)
		}
	}
}

func TestKNNEdgeCases(t *testing.T) {
	ref := []tensor.Vector{{0, 0}, {2, 0}}
	flat := tensor.FlattenVectors(ref)
	// K larger than the reference uses everything.
	if got := NewKNNScorer(10, flat).Score(tensor.Vector{1, 0}); got != 1 {
		t.Errorf("K>len score = %v, want 1", got)
	}
	if got := (KNN{K: 10}).BruteScore(tensor.Vector{1, 0}, ref); got != 1 {
		t.Errorf("K>len brute score = %v, want 1", got)
	}
	// K <= 0 behaves as 1-NN.
	if got := NewKNNScorer(0, flat).Score(tensor.Vector{0.5, 0}); got != 0.5 {
		t.Errorf("K=0 score = %v, want 0.5", got)
	}
	if got := (KNN{K: 0}).BruteScore(tensor.Vector{0.5, 0}, ref); got != 0.5 {
		t.Errorf("K=0 brute score = %v, want 0.5", got)
	}
	for _, c := range []struct {
		name  string
		score func()
	}{
		{"scorer", func() { NewKNNScorer(1, tensor.FlattenVectors(nil)) }},
		{"brute", func() { (KNN{K: 1}).BruteScore(tensor.Vector{0}, nil) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: empty reference did not panic", c.name)
				}
			}()
			c.score()
		}()
	}
}

func TestCalibrateValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Calibrate with one point did not panic")
		}
	}()
	Calibrate(KNN{K: 1}, []tensor.Vector{{1}})
}

func TestPValueBehaviour(t *testing.T) {
	calib := []float64{1, 2, 3, 4}
	// Stranger than everything → 0.
	if p := PValue(calib, 10, 0.7); p != 0 {
		t.Errorf("max-strange p = %v", p)
	}
	// Less strange than everything → 1.
	if p := PValue(calib, 0, 0); p != 1 {
		t.Errorf("min-strange p = %v", p)
	}
	// Tie handling: a=3 has one greater (4) and one tie.
	if p := PValue(calib, 3, 0.5); math.Abs(p-(1+0.5)/4) > 1e-12 {
		t.Errorf("tie p = %v", p)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("empty calibration did not panic")
			}
		}()
		PValue(nil, 1, 0.5)
	}()
}

// TestPValueUniformUnderExchangeability is Theorem 4.1: when observations
// are i.i.d. with the calibration data, conformal p-values are uniform in
// [0,1]. Verified with our Kolmogorov–Smirnov test.
func TestPValueUniformUnderExchangeability(t *testing.T) {
	rng := stats.NewRNG(42)
	dim := 4
	ref := make([]tensor.Vector, 120)
	for i := range ref {
		ref[i] = tensor.Vector(rng.NormalVec(dim, 0, 1))
	}
	calib := Calibrate(KNN{K: 5}, ref)
	scorer := NewKNNScorer(5, tensor.FlattenVectors(ref))
	ps := make([]float64, 400)
	for i := range ps {
		x := tensor.Vector(rng.NormalVec(dim, 0, 1))
		ps[i] = PValue(calib, scorer.Score(x), rng.Float64())
	}
	// Inductive p-values share one calibration set, so they are only
	// marginally uniform, not independent; KS over a long dependent
	// sequence over-rejects slightly, hence the conservative level.
	if _, p := stats.KSUniform(ps); p < 1e-4 {
		t.Errorf("conformal p-values rejected as uniform (KS p = %v)", p)
	}
}

// TestPValueSmallUnderDrift is the corollary: out-of-distribution
// observations get extreme (small) p-values.
func TestPValueSmallUnderDrift(t *testing.T) {
	rng := stats.NewRNG(43)
	dim := 4
	ref := make([]tensor.Vector, 100)
	for i := range ref {
		ref[i] = tensor.Vector(rng.NormalVec(dim, 0, 1))
	}
	calib := Calibrate(KNN{K: 5}, ref)
	scorer := NewKNNScorer(5, tensor.FlattenVectors(ref))
	total := 0.0
	for i := 0; i < 100; i++ {
		x := tensor.Vector(rng.NormalVec(dim, 5, 1)) // shifted distribution
		total += PValue(calib, scorer.Score(x), rng.Float64())
	}
	if mean := total / 100; mean > 0.05 {
		t.Errorf("mean p-value under drift = %v, want near 0", mean)
	}
}

func TestSortedCalibMatchesPValue(t *testing.T) {
	rng := stats.NewRNG(44)
	f := func(seed uint8) bool {
		// Random calibration with deliberate ties.
		n := rng.Intn(30) + 2
		calib := make([]float64, n)
		for i := range calib {
			calib[i] = float64(rng.Intn(6))
		}
		sc := NewSortedCalib(calib)
		a := float64(rng.Intn(8)) - 1
		u := rng.Float64()
		return math.Abs(PValue(calib, a, u)-sc.PValue(a, u)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSortedCalibLen(t *testing.T) {
	if NewSortedCalib([]float64{1, 2, 3}).Len() != 3 {
		t.Error("SortedCalib.Len wrong")
	}
}
