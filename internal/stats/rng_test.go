package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestRNGSplitIndependentButDeterministic(t *testing.T) {
	a := NewRNG(7)
	b := NewRNG(7)
	ca := a.Split()
	cb := b.Split()
	for i := 0; i < 50; i++ {
		if ca.Float64() != cb.Float64() {
			t.Fatalf("split children from equal parents diverged at %d", i)
		}
	}
	// Parent stream continues and should differ from the child's stream.
	if a.Float64() == ca.Float64() {
		t.Log("parent and child drew the same value once (possible but unlikely)")
	}
}

func TestUniformRange(t *testing.T) {
	g := NewRNG(1)
	for i := 0; i < 1000; i++ {
		x := g.Uniform(-2, 3)
		if x < -2 || x >= 3 {
			t.Fatalf("Uniform(-2,3) = %v out of range", x)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	g := NewRNG(99)
	var w Welford
	for i := 0; i < 20000; i++ {
		w.Add(g.Normal(5, 2))
	}
	if math.Abs(w.Mean()-5) > 0.1 {
		t.Errorf("Normal mean = %v, want ~5", w.Mean())
	}
	if math.Abs(w.StdDev()-2) > 0.1 {
		t.Errorf("Normal stddev = %v, want ~2", w.StdDev())
	}
}

func TestPoissonMean(t *testing.T) {
	g := NewRNG(3)
	for _, lambda := range []float64{0.5, 3, 12, 50} {
		var w Welford
		for i := 0; i < 20000; i++ {
			w.Add(float64(g.Poisson(lambda)))
		}
		if math.Abs(w.Mean()-lambda) > 0.15*lambda+0.1 {
			t.Errorf("Poisson(%v) mean = %v", lambda, w.Mean())
		}
	}
}

func TestPoissonNonNegative(t *testing.T) {
	g := NewRNG(4)
	f := func(scale uint8) bool {
		lambda := float64(scale) / 4
		return g.Poisson(lambda) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPoissonZeroLambda(t *testing.T) {
	g := NewRNG(5)
	if got := g.Poisson(0); got != 0 {
		t.Errorf("Poisson(0) = %d, want 0", got)
	}
	if got := g.Poisson(-1); got != 0 {
		t.Errorf("Poisson(-1) = %d, want 0", got)
	}
}

func TestNormalVecLen(t *testing.T) {
	g := NewRNG(2)
	if got := len(g.NormalVec(17, 0, 1)); got != 17 {
		t.Errorf("NormalVec length = %d, want 17", got)
	}
	if got := len(g.UniformVec(9, 0, 1)); got != 9 {
		t.Errorf("UniformVec length = %d, want 9", got)
	}
}

func TestBernoulliExtremes(t *testing.T) {
	g := NewRNG(11)
	for i := 0; i < 100; i++ {
		if g.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !g.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}
