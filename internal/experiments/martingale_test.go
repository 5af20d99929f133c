package experiments

import (
	"math"
	"testing"

	"videodrift/internal/conformal"
	"videodrift/internal/stats"
)

// integrate numerically integrates f over [0,1] with the midpoint rule.
func integrate(f conformal.BettingFunc, steps int) float64 {
	sum := 0.0
	h := 1.0 / float64(steps)
	for i := 0; i < steps; i++ {
		sum += f((float64(i) + 0.5) * h)
	}
	return sum * h
}

func TestPowerIntegratesToOne(t *testing.T) {
	for _, eps := range []float64{0.3, 0.5, 0.92} {
		if got := integrate(power(eps), 2_000_000); math.Abs(got-1) > 0.01 {
			t.Errorf("∫Power(%v) = %v, want 1", eps, got)
		}
	}
}

func TestMixtureIntegratesToOne(t *testing.T) {
	// The integrand behaves like 1/(p·ln²p) near zero — integrable but too
	// slowly converging for quadrature over [0,1]. Its exact antiderivative
	// is F(p) = (p−1)/ln p with F(0⁺)=0 and F(1⁻)=1, so ∫₀¹ = 1; verify the
	// implementation against F on an interior interval.
	F := func(p float64) float64 { return (p - 1) / math.Log(p) }
	g := mixture()
	lo, hi := 0.001, 0.999
	steps := 1_000_000
	h := (hi - lo) / float64(steps)
	sum := 0.0
	for i := 0; i < steps; i++ {
		sum += g(lo + (float64(i)+0.5)*h)
	}
	numeric := sum * h
	exact := F(hi) - F(lo)
	if math.Abs(numeric-exact) > 1e-3 {
		t.Errorf("∫[%v,%v]Mixture = %v, antiderivative gives %v", lo, hi, numeric, exact)
	}
	// F approaches its limits logarithmically slowly: F(p) ≈ −1/ln p near 0.
	if math.Abs(F(1-1e-9)-1) > 1e-6 || math.Abs(F(1e-300)) > 2e-3 {
		t.Error("antiderivative limits wrong")
	}
}

func TestPowerMartingaleUnderNullAndDrift(t *testing.T) {
	rng := stats.NewRNG(3)
	m := &powerMartingale{bet: mixture()}
	for i := 0; i < 2000; i++ {
		m.update(rng.Float64())
	}
	if m.exceeds(0.01) {
		t.Errorf("power martingale exceeded 100 under the null (log=%v)", m.logM)
	}
	nullLog := m.logM
	// The product has decayed far below 1 — the paper's §4.2.3 drawback.
	if nullLog > 0 {
		t.Errorf("expected decay under the null, log = %v", nullLog)
	}
	for i := 0; i < 50; i++ {
		m.update(0.001)
	}
	if m.logM <= nullLog {
		t.Error("power martingale did not grow under drift")
	}
	// A fresh martingale does cross the Ville threshold under drift.
	m.reset()
	if m.logM != 0 || m.exceeds(0.5) {
		t.Error("reset left state behind")
	}
	for i := 0; i < 50; i++ {
		m.update(0.001)
	}
	if !m.exceeds(0.01) {
		t.Errorf("fresh power martingale did not exceed 100 under drift (log=%v)", m.logM)
	}
}

// TestAdditiveFasterThanMultiplicative reproduces the paper's §4.2.3
// motivation: after a long null phase the multiplicative martingale has
// decayed and takes longer to signal than the additive CUSUM.
func TestAdditiveFasterThanMultiplicative(t *testing.T) {
	rng := stats.NewRNG(4)
	cus := conformal.NewCUSUM(conformal.ShiftedOdd(4), 2, 3)
	pow := &powerMartingale{bet: power(0.5)}
	test := conformal.DriftTest{W: 3, R: 0.5}

	for i := 0; i < 3000; i++ {
		p := rng.Float64()
		cus.Update(p)
		pow.update(p)
	}
	cusAt, powAt := -1, -1
	for i := 0; i < 500; i++ {
		p := 0.005 * rng.Float64()
		cus.Update(p)
		pow.update(p)
		if cusAt < 0 && test.Check(cus) {
			cusAt = i
		}
		if powAt < 0 && pow.logM > math.Log(1/0.05) {
			powAt = i
		}
	}
	if cusAt < 0 {
		t.Fatal("CUSUM never detected")
	}
	if powAt >= 0 && cusAt > powAt {
		t.Errorf("CUSUM detected at %d, after multiplicative at %d", cusAt, powAt)
	}
}
