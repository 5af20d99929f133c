package conformal

import (
	"fmt"
	"math"
)

// BettingFunc is a betting function over p-values (§4.1–4.2.4). Additive
// martingales use zero-integral functions (∫₀¹ g = 0); multiplicative
// martingales use density-like functions (∫₀¹ g = 1) — the ablation's
// power martingale (internal/experiments) is the one user of those.
type BettingFunc func(p float64) float64

// ShiftedOdd returns the paper's zero-integral betting function family
// g(p) = κ·(1/2 − p) (an odd function shifted to [0,1], §4.2.4 with
// f(p) = −κp). It is bounded by κ/2 in absolute value, returns its maximum
// for the strangest observations (p → 0), and integrates to zero, which
// makes the additive process of Eq. 10 a martingale under exchangeability.
func ShiftedOdd(kappa float64) BettingFunc {
	return func(p float64) float64 { return kappa * (0.5 - p) }
}

// ThresholdMode selects how the windowed drift test derives its threshold
// from the significance level.
type ThresholdMode int

const (
	// ThresholdHoeffding uses the Hoeffding–Azuma bound with the missing
	// logarithm restored: t = c·sqrt(2W·ln(2/r)) for increments bounded by
	// c, giving a windowed false-alarm probability of at most r. This is
	// the statistically correct reading of Eq. 15 and the default.
	ThresholdHoeffding ThresholdMode = iota
	// ThresholdPaperLiteral uses the paper's Eq. 15 exactly as printed,
	// t = sqrt(2W·(2/r)), which drops the logarithm (and the increment
	// bound). Provided for faithful reproduction of the worked example.
	ThresholdPaperLiteral
)

// CUSUM is the additive conformal martingale the Drift Inspector runs
// (Algorithm 1 line 10): S_n = max(0, S_{n−1} + g(p_n)) with a
// zero-integral betting function. Under exchangeability the un-floored
// process is a martingale with bounded increments; the floor at zero turns
// it into the one-sided CUSUM form whose windowed growth rate Eq. 15
// tests. The struct keeps a ring buffer of the last W values so the
// windowed difference S_l − S_{l−W} is O(1) per update.
type CUSUM struct {
	bet    BettingFunc
	bound  float64 // max |g|
	window int

	value float64
	count int
	ring  []float64 // last `window` values, ring[count % window] overwritten next

	probe Probe // observational update hook, nil when unset
}

// NewCUSUM builds an additive martingale with the given betting function,
// its absolute bound, and the observation window W of Eq. 15.
func NewCUSUM(bet BettingFunc, bound float64, window int) *CUSUM {
	if window <= 0 {
		panic("conformal: NewCUSUM with non-positive window")
	}
	if bound <= 0 {
		panic("conformal: NewCUSUM with non-positive bound")
	}
	c := &CUSUM{bet: bet, bound: bound, window: window, ring: make([]float64, window)}
	return c
}

// Probe observes one martingale update: the p-value folded in, the
// post-update value S_l and the windowed growth |S_l − S_{l−w}|. Probes
// are strictly observational — they see state, never change it — which is
// what lets a forensics replay trace every step of a restored martingale
// without perturbing its bit-identical trajectory.
type Probe func(p, value, windowDelta float64)

// SetProbe attaches an update probe (nil detaches). The probe is not
// part of the martingale's state: State/SetState ignore it, and a
// restored martingale starts with no probe.
func (c *CUSUM) SetProbe(fn Probe) { c.probe = fn }

// Update folds one p-value into the martingale and returns the new value.
func (c *CUSUM) Update(p float64) float64 {
	c.ring[c.count%c.window] = c.value
	c.count++
	c.value = math.Max(0, c.value+c.bet(p))
	if c.probe != nil {
		c.probe(p, c.value, c.WindowDelta())
	}
	return c.value
}

// Value returns the current martingale value S_l.
func (c *CUSUM) Value() float64 { return c.value }

// Count returns the number of observations folded in so far.
func (c *CUSUM) Count() int { return c.count }

// WindowDelta returns |S_l − S_{l−w}| where w = min(l, W) — the windowed
// rate of change Eq. 15 thresholds (Algorithm 1 lines 12–13).
func (c *CUSUM) WindowDelta() float64 {
	if c.count == 0 {
		return 0
	}
	w := c.window
	if c.count < w {
		w = c.count
	}
	// ring[(count-w) % window] holds S_{l-w} because the last `window`
	// pre-update values are retained.
	old := c.ring[(c.count-w)%c.window]
	return math.Abs(c.value - old)
}

// CUSUMState is a serializable copy of a CUSUM's mutable state, used by
// checkpointing: the current value, the observation count, and the ring
// of the last W pre-update values the windowed test reads.
//
//driftlint:snapshot encode=CUSUM.StateInto decode=CUSUM.SetState
type CUSUMState struct {
	Value float64
	Count int
	Ring  []float64
}

// State captures the martingale's current state. The returned ring is a
// copy; mutating it does not affect the martingale.
func (c *CUSUM) State() CUSUMState { return c.StateInto(CUSUMState{}) }

// StateInto is State with the ring copied into s.Ring's storage, which it
// reuses when it is large enough.
func (c *CUSUM) StateInto(s CUSUMState) CUSUMState {
	return CUSUMState{
		Value: c.value,
		Count: c.count,
		Ring:  append(s.Ring[:0], c.ring...),
	}
}

// SetState restores state captured by State into a martingale built with
// the same window. It returns an error (and leaves the martingale
// untouched) when the ring length does not match the window.
func (c *CUSUM) SetState(s CUSUMState) error {
	if len(s.Ring) != c.window {
		return fmt.Errorf("conformal: CUSUM state ring has %d slots, window is %d", len(s.Ring), c.window)
	}
	if s.Count < 0 {
		return fmt.Errorf("conformal: CUSUM state has negative count %d", s.Count)
	}
	c.value = s.Value
	c.count = s.Count
	copy(c.ring, s.Ring)
	return nil
}

// Reset clears the martingale to its initial state.
func (c *CUSUM) Reset() {
	c.value = 0
	c.count = 0
	for i := range c.ring {
		c.ring[i] = 0
	}
}

// DriftTest is the windowed significance test of Eq. 15.
type DriftTest struct {
	W    int
	R    float64 // significance level r
	Mode ThresholdMode
}

// Threshold returns the drift-declaration threshold for increments
// bounded by c in absolute value.
func (t DriftTest) Threshold(bound float64) float64 {
	if t.R <= 0 || t.R >= 2 {
		panic(fmt.Sprintf("conformal: DriftTest with invalid significance %v", t.R))
	}
	switch t.Mode {
	case ThresholdPaperLiteral:
		return math.Sqrt(2 * float64(t.W) * (2 / t.R))
	default:
		return bound * math.Sqrt(2*float64(t.W)*math.Log(2/t.R))
	}
}

// Check reports whether the martingale's windowed growth exceeds the
// threshold — a drift declaration.
func (t DriftTest) Check(c *CUSUM) bool {
	return c.WindowDelta() > t.Threshold(c.bound)
}
