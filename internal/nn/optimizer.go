package nn

import (
	"fmt"
	"math"
)

// Adam is the Adam optimizer (Kingma & Ba), the optimizer the paper trains
// its VAE and classifiers with (§6).
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64

	t int
	m [][]float64
	v [][]float64

	// rest is the bit pattern of the largest subnormal |m| seen to
	// satisfy fl(Beta1·m) == m under restBeta (see Step); 0 before any.
	rest     uint64
	restBeta float64
}

// NewAdam returns an Adam optimizer with standard defaults
// (β1=0.9, β2=0.999, ε=1e-8).
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8}
}

// Reset returns the optimizer to its state before the first Step,
// dropping the moments: what a fitted network no longer needs.
func (o *Adam) Reset() {
	o.t, o.m, o.v, o.rest, o.restBeta = 0, nil, nil, 0, 0
}

const (
	signBit       = 1 << 63
	minNormalBits = 1 << 52 // bit pattern of 2^-1022
)

// Step applies one update from the accumulated gradients, which callers
// clear (Network.ZeroGrad) before the next accumulation.
//
// A coordinate whose gradient is zero (a dead ReLU row, an input feature
// that is 0 under one condition) is idle: its first moment decays as
// Beta1^k, and after a few thousand steps of a long fit it is subnormal,
// where every multiply and divide takes a microcode assist — ten times
// the cost of a dense step once half the coordinates idle. Step leaves
// out two pieces of arithmetic on an idle coordinate, each only where the
// result is known beforehand, so m, v and Value hold at every step
// exactly the bits the plain loop (adamStepReference in the tests) would
// have produced. When a precondition fails the plain arithmetic runs.
//
// 1. Rest. Write u = 2^-1074 and a subnormal m = n·u. fl(Beta1·m) is
// Beta1·n rounded to the nearest integer, times u, so m is a fixed point
// exactly when |Beta1·n − n| <= 1/2 (ties to even). If r·u is a fixed
// point then r·|Beta1−1| <= 1/2, so for n < r the distance is strictly
// below 1/2 and n·u is one too: fixed points are downward closed. A
// decaying m therefore comes to rest on one (5u for Beta1 = 0.9, whose
// float64 is a little above nine tenths) and stays. rest remembers the largest fixed point the multiply has
// confirmed under the current Beta1; any non-zero |m| at or below it, with
// g == ±0, has fl(Beta1·m) + (1−Beta1)·g == m + ±0 == m, and the
// multiply is skipped. (m == ±0 is not skipped: −0 + +0 is +0.)
//
// 2. Absorption. Let v >= 0, 0 < |x| <= 2^500 for x = Value, and
// LR, Epsilon, c1, c2 all within [2^-100, 2^100]. The update is
// u = fl(fl(LR·fl(m/c1)) / d) with d = fl(sqrt(fl(v/c2)) + Epsilon) >=
// Epsilon, because v/c2 is in [0, +Inf] and rounding is monotone.
// Rounding to nearest at most doubles a positive real, gradual underflow
// included, so |u| <= 2^3·LR·|m|/(c1·Epsilon). absorbLimit returns
// L <= 2^2·2^-64·c1·Epsilon/LR, so |m| <= fl(L·|x|) <= 2·L·|x| gives
// |u| <= 2^-58·|x|, and every intermediate is that bound times at most
// two hyperparameters: nothing overflows. 2^-58·|x| is less than half
// the gap from x to either neighbour, subnormal x included, so
// fl(x − u) == x, and the divides and the square root are skipped.
// (x == ±0 is not: −0 − −0 is +0.)
//
// Once Beta1^t is below 2^-53 the bias correction c1 = 1 − Beta1^t is
// exactly 1 (step 349 under the default decay) and m/1 is m, except that
// it quiets a signalling NaN, which the multiply by LR then does instead:
// that divide is left out from there on.
//
// The loop below (stepScalar) is the definition of the arithmetic. Where
// there is a vector unit (adam_amd64.go) whole blocks of four coordinates
// take the same IEEE operations in the same order, four lanes at a time;
// the two shortcuts become lane masks there.
func (o *Adam) Step(params []*Param) {
	if o.m == nil {
		o.m = make([][]float64, len(params))
		o.v = make([][]float64, len(params))
		for i, p := range params {
			o.m[i] = make([]float64, len(p.Value))
			o.v[i] = make([]float64, len(p.Value))
		}
	}
	// The vector kernel takes raw pointers: every length it relies on is
	// established here, before a coordinate is touched.
	checkParams(params, o.m, o.v)
	o.t++
	if o.Beta1 != o.restBeta {
		o.rest, o.restBeta = 0, o.Beta1
	}
	k := adamConsts{
		beta1: o.Beta1, omb1: 1 - o.Beta1,
		beta2: o.Beta2, omb2: 1 - o.Beta2,
		c1: 1 - math.Pow(o.Beta1, float64(o.t)),
		c2: 1 - math.Pow(o.Beta2, float64(o.t)),
		lr: o.LR, eps: o.Epsilon,
	}
	k.lim = o.absorbLimit(k.c1, k.c2)
	for i, p := range params {
		done := o.stepBlocks(p.Value, p.Grad, o.m[i], o.v[i], &k)
		o.stepScalar(p.Value[done:], p.Grad[done:], o.m[i][done:], o.v[i][done:], &k)
	}
}

// adamConsts is what one Step holds fixed across coordinates. The vector
// kernel reads it by offset (adam_amd64.s): fields are eight bytes each
// and keep this order.
type adamConsts struct {
	beta1, omb1 float64 // Beta1, 1 − Beta1
	beta2, omb2 float64 // Beta2, 1 − Beta2
	c1, c2      float64 // bias corrections at this step
	lr, eps     float64
	lim         float64 // absorbLimit
	rest        uint64  // Adam.rest when the kernel was entered
}

// stepScalar steps the coordinates of one tensor, or a run of them, one
// at a time. It is the only writer of o.rest.
func (o *Adam) stepScalar(x, grad, m, v []float64, k *adamConsts) {
	for j := range x {
		g := grad[j]
		// mb-1 wraps for m == ±0, which therefore never rests.
		mb := math.Float64bits(m[j]) &^ signBit
		if g != 0 || mb-1 >= o.rest {
			mj := k.beta1*m[j] + k.omb1*g
			if g == 0 && mj == m[j] && mb-1 < minNormalBits-1 {
				o.rest = mb
			}
			m[j] = mj
		}
		v[j] = k.beta2*v[j] + k.omb2*g*g
		// The absorption argument does not need g == 0; only an idle
		// m is ever small enough, so nothing else pays for the test.
		if g == 0 && v[j] >= 0 {
			if a := math.Abs(x[j]); a > 0 && a <= 0x1p500 && math.Abs(m[j]) <= k.lim*a {
				continue
			}
		}
		mHat := m[j]
		if k.c1 != 1 {
			mHat /= k.c1
		}
		vHat := v[j] / k.c2
		x[j] -= k.lr * mHat / (math.Sqrt(vHat) + k.eps)
	}
}

// checkParams panics unless every tensor's gradient is as long as its
// value and the optimizer's per-tensor state, sized on the first Step,
// still has the shape of params.
func checkParams(params []*Param, states ...[][]float64) {
	for _, st := range states {
		if len(st) != len(params) {
			panic(fmt.Sprintf("nn: Adam.Step with %d tensors, its state was sized for %d", len(params), len(st)))
		}
	}
	for i, p := range params {
		if len(p.Grad) != len(p.Value) {
			panic(fmt.Sprintf("nn: Adam.Step tensor %d has %d gradients for %d values", i, len(p.Grad), len(p.Value)))
		}
		for _, st := range states {
			if len(st[i]) != len(p.Value) {
				panic(fmt.Sprintf("nn: Adam.Step tensor %d has %d values, its state was sized for %d", i, len(p.Value), len(st[i])))
			}
		}
	}
}

// absorbLimit returns the L of Step's absorption argument, or -1 (no
// |m| is at or below -|x|) when a hyperparameter or bias correction is
// outside the range the argument covers.
func (o *Adam) absorbLimit(c1, c2 float64) float64 {
	for _, h := range [...]float64{o.LR, o.Epsilon, c1, c2} {
		if !(h >= 0x1p-100 && h <= 0x1p100) {
			return -1
		}
	}
	return 0x1p-64 * c1 * o.Epsilon / o.LR
}

// ClipGrads scales all gradients down so their global L2 norm does not
// exceed maxNorm. It is a no-op when the norm is already within bounds and
// returns the pre-clip norm.
func ClipGrads(params []*Param, maxNorm float64) float64 {
	total := 0.0
	for _, p := range params {
		for _, g := range p.Grad {
			total += g * g
		}
	}
	norm := math.Sqrt(total)
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for _, p := range params {
			for j := range p.Grad {
				p.Grad[j] *= scale
			}
		}
	}
	return norm
}
