package conformal

import (
	"math"
	"testing"

	"videodrift/internal/stats"
)

// integrate numerically integrates f over [0,1] with the midpoint rule.
func integrate(f BettingFunc, steps int) float64 {
	sum := 0.0
	h := 1.0 / float64(steps)
	for i := 0; i < steps; i++ {
		sum += f((float64(i) + 0.5) * h)
	}
	return sum * h
}

func TestShiftedOddIntegratesToZero(t *testing.T) {
	for _, kappa := range []float64{1, 2, 4, 6} {
		if got := integrate(ShiftedOdd(kappa), 10000); math.Abs(got) > 1e-9 {
			t.Errorf("∫ShiftedOdd(%v) = %v, want 0", kappa, got)
		}
	}
}

func TestShiftedOddShape(t *testing.T) {
	g := ShiftedOdd(4)
	if g(0) != 2 || g(1) != -2 || g(0.5) != 0 {
		t.Errorf("ShiftedOdd(4) values: g(0)=%v g(1)=%v g(0.5)=%v", g(0), g(1), g(0.5))
	}
	// Strange observations (small p) are rewarded with large values.
	if g(0.1) <= g(0.9) {
		t.Error("betting function not decreasing in p")
	}
}

func TestCUSUMGrowsUnderDrift(t *testing.T) {
	c := NewCUSUM(ShiftedOdd(4), 2, 3)
	for i := 0; i < 5; i++ {
		c.Update(0) // maximally strange
	}
	if got := c.Value(); math.Abs(got-10) > 1e-12 {
		t.Errorf("value after 5 strange frames = %v, want 10", got)
	}
	if got := c.WindowDelta(); math.Abs(got-6) > 1e-12 {
		t.Errorf("window delta = %v, want 6 (3 increments of 2)", got)
	}
}

// TestCUSUMStaysSmallUnderUniform counts alarms of the windowed test
// (Eq. 15) over 20 000 perfectly uniform, independent p-values, resetting
// on alarm as the Drift Inspector does. The floored martingale itself
// wanders like sqrt(n) under the null; only its windowed growth is tested.
//
// At W = 3 the test essentially never fires. At the served W = 4, κ = 4,
// r = 0.5 (core.DefaultDIConfig, pinned to this row by core's
// TestServedDIConfigIsTested) it fires when four consecutive p-values
// sum to under 0.335: probability 0.335⁴/24 ≈ 5 × 10⁻⁴ an update, more
// once the floor is counted in — 9 to 19 alarms a seed. That is the floor
// the served pipeline's false-alarm rate is compared with (ROADMAP item
// 1): not zero, and not r.
func TestCUSUMStaysSmallUnderUniform(t *testing.T) {
	for _, tc := range []struct {
		w        int
		min, max int // alarms per seed
	}{{w: 3, max: 2}, {w: 4, min: 3, max: 30}} {
		for seed := int64(1); seed <= 6; seed++ {
			rng := stats.NewRNG(seed)
			c := NewCUSUM(ShiftedOdd(4), 2, tc.w)
			test := DriftTest{W: tc.w, R: 0.5}
			alarms := 0
			for i := 0; i < 20000; i++ {
				c.Update(rng.Float64())
				if test.Check(c) {
					alarms++
					c.Reset()
				}
			}
			if alarms < tc.min || alarms > tc.max {
				t.Errorf("W=%d seed %d: %d alarms in 20k uniform p-values, want %d–%d", tc.w, seed, alarms, tc.min, tc.max)
			}
		}
	}
}

func TestCUSUMFloorAtZero(t *testing.T) {
	c := NewCUSUM(ShiftedOdd(4), 2, 3)
	for i := 0; i < 10; i++ {
		c.Update(1) // maximally ordinary: increment −2
	}
	if c.Value() != 0 {
		t.Errorf("floored value = %v", c.Value())
	}
}

func TestCUSUMWindowDeltaRing(t *testing.T) {
	c := NewCUSUM(ShiftedOdd(2), 1, 2)
	// Increments: g(0)=1 each time. Values: 1, 2, 3, 4.
	deltas := []float64{1, 2, 2, 2} // window = min(count, 2)
	for i, want := range deltas {
		c.Update(0)
		if got := c.WindowDelta(); math.Abs(got-want) > 1e-12 {
			t.Errorf("step %d: WindowDelta = %v, want %v", i+1, got, want)
		}
	}
}

func TestCUSUMResetAndValidation(t *testing.T) {
	c := NewCUSUM(ShiftedOdd(4), 2, 3)
	c.Update(0)
	c.Reset()
	if c.Value() != 0 || c.Count() != 0 || c.WindowDelta() != 0 {
		t.Error("Reset left state behind")
	}
	for i, fn := range []func(){
		func() { NewCUSUM(ShiftedOdd(2), 1, 0) },
		func() { NewCUSUM(ShiftedOdd(2), 0, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestDriftTestThresholds(t *testing.T) {
	// Paper-literal Eq. 15 with the worked example's W=2, r=0.5 gives 4.
	lit := DriftTest{W: 2, R: 0.5, Mode: ThresholdPaperLiteral}
	if got := lit.Threshold(1); math.Abs(got-4) > 1e-12 {
		t.Errorf("paper-literal threshold = %v, want 4", got)
	}
	// Hoeffding form: c·sqrt(2W·ln(2/r)).
	hoef := DriftTest{W: 3, R: 0.5, Mode: ThresholdHoeffding}
	want := 2 * math.Sqrt(2*3*math.Log(4))
	if got := hoef.Threshold(2); math.Abs(got-want) > 1e-12 {
		t.Errorf("hoeffding threshold = %v, want %v", got, want)
	}
	// Smaller r (stricter) → larger threshold.
	strict := DriftTest{W: 3, R: 0.1, Mode: ThresholdHoeffding}
	if strict.Threshold(2) <= hoef.Threshold(2) {
		t.Error("threshold not monotone in significance")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("invalid significance did not panic")
			}
		}()
		DriftTest{W: 3, R: 0}.Threshold(1)
	}()
}

func TestDriftTestDetectsShift(t *testing.T) {
	rng := stats.NewRNG(2)
	c := NewCUSUM(ShiftedOdd(4), 2, 3)
	test := DriftTest{W: 3, R: 0.5}
	// Null phase.
	for i := 0; i < 500; i++ {
		c.Update(rng.Float64())
		if test.Check(c) {
			t.Fatalf("false alarm at null frame %d", i)
		}
	}
	// Drift phase: p-values collapse.
	detectedAt := -1
	for i := 0; i < 50; i++ {
		c.Update(0.01 * rng.Float64())
		if test.Check(c) {
			detectedAt = i
			break
		}
	}
	if detectedAt < 0 {
		t.Fatal("drift never detected")
	}
	if detectedAt > 10 {
		t.Errorf("drift detected after %d frames, want prompt detection", detectedAt)
	}
}
