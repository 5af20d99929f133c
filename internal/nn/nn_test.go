package nn

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"videodrift/internal/dataset"
	"videodrift/internal/query"
	"videodrift/internal/stats"
	"videodrift/internal/tensor"
	"videodrift/internal/vision"
)

func buildMLP(rng *stats.RNG, dims ...int) *Network {
	var layers []Layer
	for i := 0; i < len(dims)-1; i++ {
		layers = append(layers, NewDense(dims[i], dims[i+1], rng))
		if i < len(dims)-2 {
			layers = append(layers, &ReLU{})
		}
	}
	return NewNetwork(layers...)
}

func TestDenseForwardKnown(t *testing.T) {
	d := NewDense(2, 2, stats.NewRNG(1))
	copy(d.W.Data, []float64{1, 2, 3, 4})
	copy(d.B, []float64{0.5, -0.5})
	out := d.Forward(tensor.Vector{1, 1})
	want := tensor.Vector{3.5, 6.5}
	for i := range want {
		if math.Abs(out[i]-want[i]) > 1e-12 {
			t.Fatalf("Dense forward = %v, want %v", out, want)
		}
	}
}

// TestGradientCheck verifies analytic gradients against central finite
// differences for a Dense→ReLU→Dense network under softmax cross-entropy.
func TestGradientCheck(t *testing.T) {
	rng := stats.NewRNG(42)
	net := buildMLP(rng, 4, 5, 3)
	in := tensor.Vector(rng.NormalVec(4, 0, 1))
	label := 2

	net.ZeroGrad()
	logits := net.Forward(in)
	_, grad := SoftmaxCrossEntropy(logits, label)
	net.Backward(grad)

	const eps = 1e-6
	for pi, p := range net.Params() {
		for j := 0; j < len(p.Value); j += 3 { // sample every third weight
			orig := p.Value[j]
			p.Value[j] = orig + eps
			lp, _ := SoftmaxCrossEntropy(net.Forward(in), label)
			p.Value[j] = orig - eps
			lm, _ := SoftmaxCrossEntropy(net.Forward(in), label)
			p.Value[j] = orig
			numeric := (lp - lm) / (2 * eps)
			analytic := p.Grad[j]
			if math.Abs(numeric-analytic) > 1e-5*(1+math.Abs(numeric)) {
				t.Fatalf("param %d[%d]: analytic %v vs numeric %v", pi, j, analytic, numeric)
			}
		}
	}
}

func TestGradientCheckBCE(t *testing.T) {
	rng := stats.NewRNG(43)
	net := buildMLP(rng, 3, 4, 3)
	in := tensor.Vector(rng.NormalVec(3, 0, 1))
	target := tensor.Vector{0.2, 0.9, 0.5}

	net.ZeroGrad()
	logits := net.Forward(in)
	_, grad := BCEWithLogits(logits, target)
	net.Backward(grad)

	const eps = 1e-6
	p := net.Params()[0]
	for j := 0; j < len(p.Value); j += 2 {
		orig := p.Value[j]
		p.Value[j] = orig + eps
		lp, _ := BCEWithLogits(net.Forward(in), target)
		p.Value[j] = orig - eps
		lm, _ := BCEWithLogits(net.Forward(in), target)
		p.Value[j] = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-p.Grad[j]) > 1e-5*(1+math.Abs(numeric)) {
			t.Fatalf("weight %d: analytic %v vs numeric %v", j, p.Grad[j], numeric)
		}
	}
}

func TestSoftmaxCrossEntropyKnown(t *testing.T) {
	loss, grad := SoftmaxCrossEntropy(tensor.Vector{0, 0}, 0)
	if math.Abs(loss-math.Log(2)) > 1e-12 {
		t.Errorf("loss = %v, want ln 2", loss)
	}
	if math.Abs(grad[0]+0.5) > 1e-12 || math.Abs(grad[1]-0.5) > 1e-12 {
		t.Errorf("grad = %v", grad)
	}
}

func TestBCEWithLogitsMatchesNaive(t *testing.T) {
	rng := stats.NewRNG(44)
	logits := tensor.Vector(rng.NormalVec(8, 0, 2))
	target := tensor.Vector(rng.UniformVec(8, 0, 1))
	loss, _ := BCEWithLogits(logits, target)
	naive := 0.0
	for i, z := range logits {
		s := 1 / (1 + math.Exp(-z))
		naive += -(target[i]*math.Log(s) + (1-target[i])*math.Log(1-s))
	}
	naive /= float64(len(logits))
	if math.Abs(loss-naive) > 1e-9 {
		t.Errorf("stable BCE %v != naive %v", loss, naive)
	}
}

func TestBCEWithLogitsStability(t *testing.T) {
	loss, grad := BCEWithLogits(tensor.Vector{1000, -1000}, tensor.Vector{1, 0})
	if math.IsNaN(loss) || math.IsInf(loss, 0) || grad.HasNaN() {
		t.Errorf("BCE unstable at extreme logits: loss=%v grad=%v", loss, grad)
	}
	if loss > 1e-6 {
		t.Errorf("perfect extreme prediction should have ~0 loss, got %v", loss)
	}
}

func TestMSEKnown(t *testing.T) {
	loss, grad := MSE(tensor.Vector{1, 2}, tensor.Vector{0, 0})
	if math.Abs(loss-2.5) > 1e-12 {
		t.Errorf("MSE = %v, want 2.5", loss)
	}
	if math.Abs(grad[0]-1) > 1e-12 || math.Abs(grad[1]-2) > 1e-12 {
		t.Errorf("MSE grad = %v", grad)
	}
}

func TestBrierScoreProperties(t *testing.T) {
	// Perfect prediction → 0.
	if s := BrierScore(tensor.Vector{1, 0, 0}, 0); s != 0 {
		t.Errorf("perfect Brier = %v", s)
	}
	// Fully wrong one-hot → 2/K.
	if s := BrierScore(tensor.Vector{0, 1, 0}, 0); math.Abs(s-2.0/3) > 1e-12 {
		t.Errorf("wrong one-hot Brier = %v, want 2/3", s)
	}
	g := stats.NewRNG(45)
	f := func(seed uint8) bool {
		probs := tensor.Softmax(tensor.Vector(g.NormalVec(4, 0, 2)))
		label := g.Intn(4)
		s := BrierScore(probs, label)
		return s >= 0 && s <= 0.5
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTrainXORAdam(t *testing.T) {
	rng := stats.NewRNG(7)
	net := buildMLP(rng, 2, 8, 2)
	opt := NewAdam(0.01)
	inputs := []tensor.Vector{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	labels := []int{0, 1, 1, 0}
	for epoch := 0; epoch < 500; epoch++ {
		for i, in := range inputs {
			net.ZeroGrad()
			logits := net.Forward(in)
			_, grad := SoftmaxCrossEntropy(logits, labels[i])
			net.Backward(grad)
			opt.Step(net.Params())
		}
	}
	for i, in := range inputs {
		if got := net.Forward(in).ArgMax(); got != labels[i] {
			t.Fatalf("XOR(%v) predicted %d, want %d", in, got, labels[i])
		}
	}
}

func TestSnapshotRestore(t *testing.T) {
	rng := stats.NewRNG(9)
	net := buildMLP(rng, 3, 4, 2)
	in := tensor.Vector{1, 2, 3}
	before := net.Forward(in).Clone()
	snap := net.Snapshot()

	// Perturb the weights, confirm output changed, then restore.
	for _, p := range net.Params() {
		for j := range p.Value {
			p.Value[j] += 0.5
		}
	}
	if perturbed := net.Forward(in); perturbed.Dist(before) == 0 {
		t.Fatal("perturbation had no effect")
	}
	net.Restore(snap)
	after := net.Forward(in)
	if after.Dist(before) > 1e-12 {
		t.Errorf("Restore did not recover output: %v vs %v", after, before)
	}
}

func TestMarshalRoundtrip(t *testing.T) {
	rng := stats.NewRNG(10)
	a := buildMLP(rng, 3, 5, 2)
	b := buildMLP(stats.NewRNG(11), 3, 5, 2)
	data, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := b.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	in := tensor.Vector{0.1, 0.2, 0.3}
	if a.Forward(in).Dist(b.Forward(in)) > 1e-12 {
		t.Error("weights did not round-trip through MarshalBinary")
	}
	// Mismatched architecture must error, not panic.
	c := buildMLP(stats.NewRNG(12), 4, 5, 2)
	if err := c.UnmarshalBinary(data); err == nil {
		t.Error("UnmarshalBinary into wrong architecture should error")
	}
}

func TestClipGrads(t *testing.T) {
	p := &Param{Value: []float64{0, 0}, Grad: []float64{3, 4}}
	norm := ClipGrads([]*Param{p}, 1)
	if math.Abs(norm-5) > 1e-12 {
		t.Errorf("pre-clip norm = %v", norm)
	}
	clipped := math.Sqrt(p.Grad[0]*p.Grad[0] + p.Grad[1]*p.Grad[1])
	if math.Abs(clipped-1) > 1e-9 {
		t.Errorf("post-clip norm = %v", clipped)
	}
	// Under the limit: untouched.
	p2 := &Param{Value: []float64{0}, Grad: []float64{0.5}}
	ClipGrads([]*Param{p2}, 1)
	if p2.Grad[0] != 0.5 {
		t.Error("ClipGrads touched in-bounds gradient")
	}
}

func TestParamCount(t *testing.T) {
	net := buildMLP(stats.NewRNG(13), 3, 4, 2)
	// Dense(3→4): 12+4, Dense(4→2): 8+2 → 26.
	if got := net.ParamCount(); got != 26 {
		t.Errorf("ParamCount = %d, want 26", got)
	}
}

func TestActivationsShapeAndValues(t *testing.T) {
	var r ReLU
	out := r.Forward(tensor.Vector{-1, 2})
	if out[0] != 0 || out[1] != 2 {
		t.Errorf("ReLU = %v", out)
	}
	back := r.Backward(tensor.Vector{5, 5})
	if back[0] != 0 || back[1] != 5 {
		t.Errorf("ReLU backward = %v", back)
	}
}

// TestInferMatchesForward pins the inference path shards sharing one
// model classify through: Infer returns Forward's output bit for bit,
// for every layer kind, and — unlike Forward, which writes the caches
// Backward reads — any number of goroutines may call it on one network
// (run under -race).
func TestInferMatchesForward(t *testing.T) {
	rng := stats.NewRNG(9)
	net := NewNetwork(NewDense(6, 8, rng), &ReLU{}, NewDense(8, 8, rng), &ReLU{}, NewDense(8, 5, rng))
	inputs := make([]tensor.Vector, 16)
	want := make([]tensor.Vector, len(inputs))
	for i := range inputs {
		inputs[i] = tensor.NewVector(6)
		for j := range inputs[i] {
			inputs[i][j] = rng.StdNormal()
		}
		want[i] = net.Forward(inputs[i]).Clone() // Forward reuses its buffers
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, in := range inputs {
				got := net.Infer(in)
				for j := range got {
					if math.Float64bits(got[j]) != math.Float64bits(want[i][j]) {
						t.Errorf("input %d output %d: Infer %v, Forward %v", i, j, got[j], want[i][j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// adamStepReference is Adam.Step as it stood before the idle-coordinate
// shortcuts: the plain loop, with arithmetic on every coordinate at every
// step. The differential tests hold Step to its bits.
func adamStepReference(o *Adam, params []*Param) {
	if o.m == nil {
		o.m = make([][]float64, len(params))
		o.v = make([][]float64, len(params))
		for i, p := range params {
			o.m[i] = make([]float64, len(p.Value))
			o.v[i] = make([]float64, len(p.Value))
		}
	}
	o.t++
	c1 := 1 - math.Pow(o.Beta1, float64(o.t))
	c2 := 1 - math.Pow(o.Beta2, float64(o.t))
	for i, p := range params {
		m, v := o.m[i], o.v[i]
		for j := range p.Value {
			g := p.Grad[j]
			m[j] = o.Beta1*m[j] + (1-o.Beta1)*g
			v[j] = o.Beta2*v[j] + (1-o.Beta2)*g*g
			mHat := m[j] / c1
			vHat := v[j] / c2
			p.Value[j] -= o.LR * mHat / (math.Sqrt(vHat) + o.Epsilon)
		}
	}
}

// sameBits reports whether two slices hold identical bit patterns, so
// that −0 ≠ +0 and a NaN equals itself.
func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

// adamSchedule is one coordinate's adversarial life: its initial Value,
// its gradient at each step, and optionally a Value written from outside
// (Network.Restore does this to a live optimizer) before a given step.
type adamSchedule struct {
	name    string
	value   float64
	grad    func(step int, rng *stats.RNG) float64
	resetAt int // 0: never
	resetTo float64
}

// laterStep is when TestAdamStepMatchesReference changes hyperparameters
// under a live optimizer.
const laterStep = 12000

func adamSchedules() []adamSchedule {
	noise := func(rng *stats.RNG) float64 { return rng.Normal(0, 1) }
	negZero := math.Copysign(0, -1)
	return []adamSchedule{
		{name: "dense", value: 0.3, grad: func(_ int, rng *stats.RNG) float64 { return noise(rng) }},
		{name: "always-zero", value: -0.7, grad: func(int, *stats.RNG) float64 { return 0 }},
		{name: "zero-after-40", value: 0.2, grad: func(s int, rng *stats.RNG) float64 {
			if s < 40 {
				return noise(rng)
			}
			return 0
		}},
		{name: "zero-after-40-negative", value: 0.2, grad: func(s int, rng *stats.RNG) float64 {
			if s < 40 {
				return -math.Abs(noise(rng))
			}
			return negZero
		}},
		{name: "intermittent", value: 0.05, grad: func(s int, rng *stats.RNG) float64 {
			// Idle runs from a handful of steps to thousands: past
			// absorption, into the subnormals, onto the fixed point.
			if s%9000 < 8200 && s%700 > 3 {
				return 0
			}
			return noise(rng)
		}},
		{name: "sparse-coin", value: -1.5, grad: func(_ int, rng *stats.RNG) float64 {
			if rng.Float64() < 0.9 {
				return 0
			}
			return noise(rng)
		}},
		{name: "tiny-constant", value: 0.4, grad: func(int, *stats.RNG) float64 { return 1e-300 }},
		{name: "zero-then-tiny", value: 0.4, grad: func(s int, rng *stats.RNG) float64 {
			// A returning gradient too small to swamp the resting
			// moment: both must still hold the reference's m.
			switch {
			case s < 30:
				return noise(rng)
			case s%7500 < 7400:
				return 0
			default:
				return 1e-300 * noise(rng)
			}
		}},
		{name: "zero-then-subnormal", value: -0.4, grad: func(s int, rng *stats.RNG) float64 {
			switch {
			case s < 30:
				return noise(rng)
			case s%7500 < 7400:
				return 0
			default:
				return 5e-324 * float64(rng.Intn(90)-45)
			}
		}},
		{name: "value-zero", value: 0, grad: func(s int, rng *stats.RNG) float64 {
			if s%50 == 49 {
				return 1e-300 * noise(rng)
			}
			return 0
		}},
		{name: "value-tiny", value: 1e-300, grad: func(s int, rng *stats.RNG) float64 {
			if s < 20 {
				return 1e-300 * noise(rng)
			}
			return 0
		}},
		{name: "value-subnormal", value: -3e-310, grad: func(s int, rng *stats.RNG) float64 {
			if s < 20 {
				return 1e-315 * noise(rng)
			}
			return 0
		}},
		{name: "value-huge", value: 1e200, grad: func(s int, rng *stats.RNG) float64 {
			if s%3000 < 10 {
				return 1e150 * noise(rng)
			}
			return 0
		}},
		{name: "negzero-then-zero", value: 0.6, grad: func(s int, rng *stats.RNG) float64 {
			// Under a fast decay m underflows to −0 and, while g is −0,
			// stays there; the first +0 gradient makes it +0.
			switch {
			case s < 25:
				return -math.Abs(noise(rng))
			case s < 5000:
				return negZero
			default:
				return 0
			}
		}},
		{name: "value-near-max", value: 1e300, grad: func(s int, rng *stats.RNG) float64 {
			// Bursts end on multiples of 3000, so m is still large when
			// the hyperparameters change at laterStep.
			if s%3000 >= 2990 {
				return 1e300 * noise(rng)
			}
			return 0
		}},
		{name: "restored-to-zero", value: 0.9, resetAt: 9000, resetTo: negZero,
			grad: func(s int, rng *stats.RNG) float64 {
				if s < 25 {
					return -math.Abs(noise(rng))
				}
				return negZero
			}},
		{name: "restored-to-tiny", value: 0.9, resetAt: 300, resetTo: 1e-290,
			grad: func(s int, rng *stats.RNG) float64 {
				if s < 25 {
					return noise(rng)
				}
				return 0
			}},
	}
}

// adamHyper is one row of hyperparameters for the differential tests.
type adamHyper struct {
	name  string
	set   func(o *Adam)
	later func(o *Adam) // applied to a live optimizer, if set
}

func adamHypers() []adamHyper {
	return []adamHyper{
		{name: "default"},
		{name: "classifier", set: func(o *Adam) { o.LR = 5e-3 }},
		{name: "small-lr-big-eps", set: func(o *Adam) { o.LR, o.Epsilon = 1e-6, 1 }},
		{name: "big-lr-small-eps", set: func(o *Adam) { o.LR, o.Epsilon = 10, 1e-20 }},
		{name: "fast-decay", set: func(o *Adam) { o.Beta1 = 0.25 }},
		{name: "slow-decay", set: func(o *Adam) { o.Beta1, o.Beta2 = 0.99, 0.9 }},
		{name: "no-momentum", set: func(o *Adam) { o.Beta1 = 0 }},
		{name: "eps-zero", set: func(o *Adam) { o.Epsilon = 0 }},
		{name: "eps-out-of-range", set: func(o *Adam) { o.Epsilon = 1e-200 }},
		{name: "lr-out-of-range", set: func(o *Adam) { o.LR = 1e-40 }},
		// A resting m is only at rest under the Beta1 that put it there.
		{name: "beta1-changes", later: func(o *Adam) { o.Beta1 = 0.5 }},
		// v turns negative under moments that are already absorbed.
		{name: "beta2-turns-negative", later: func(o *Adam) { o.Beta2 = -0.5 }},
		// c1 collapses to 1e-12 under a large m: m/c1 overflows, and
		// L·|x| overflows with it for the Value near MaxFloat64.
		{name: "m-over-c1-overflows", set: func(o *Adam) { o.LR, o.Epsilon = 0x1p-100, 0x1p100 },
			later: func(o *Adam) { o.Beta1 = 1 - 0x1p-53 }},
	}
}

// forEachAdamKernel runs f as a subtest on each kernel Step can take: the
// vector one where the CPU has it, and the scalar loop with adamVector
// cleared.
func forEachAdamKernel(t *testing.T, f func(t *testing.T)) {
	had := adamVector
	defer func() { adamVector = had }()
	if had {
		t.Run("vector", f)
	}
	adamVector = false
	t.Run("scalar", f)
}

// TestAdamStepMatchesReference drives Step and the retained plain loop
// over the same adversarial gradient schedules and hyperparameters and
// demands the same bits — Value, and both moments — after every step.
// Each guard in Step has a row that fails without it: Epsilon == 0 with
// an always-zero gradient is 0/0 in the reference (the hyperparameter
// range), Beta2 turning negative does the same through v (v >= 0),
// Beta1 = 0.25 with a −0 gradient leaves m on −0, which must not rest
// and which a −0 Value restored under it must not absorb (x > 0), a
// collapsing c1 overflows m/c1 (|x| <= 2^500), and everything else
// leans on |m| <= L·|x|.
func TestAdamStepMatchesReference(t *testing.T) {
	steps := 21000
	if testing.Short() {
		steps = 9500
	}
	for _, h := range adamHypers() {
		t.Run(h.name, func(t *testing.T) {
			forEachAdamKernel(t, func(t *testing.T) { adamStepMatchesReference(t, h, steps) })
		})
	}
}

func adamStepMatchesReference(t *testing.T, h adamHyper, steps int) {
	scheds := adamSchedules()
	// Two tensors, as a layer has, so the per-tensor moment
	// slices are exercised too: schedule k is coordinate j of
	// tensor i.
	half := len(scheds) / 2
	locate := func(k int) (i, j int) {
		if k < half {
			return 0, k
		}
		return 1, k - half
	}
	newParams := func() []*Param {
		ps := []*Param{
			{Value: make([]float64, half), Grad: make([]float64, half)},
			{Value: make([]float64, len(scheds)-half), Grad: make([]float64, len(scheds)-half)},
		}
		for k, s := range scheds {
			i, j := locate(k)
			ps[i].Value[j] = s.value
		}
		return ps
	}
	got, want := newParams(), newParams()
	og, ow := NewAdam(1e-3), NewAdam(1e-3)
	if h.set != nil {
		h.set(og)
		h.set(ow)
	}
	rngs := make([]*stats.RNG, len(scheds))
	for k := range rngs {
		rngs[k] = stats.NewRNG(int64(1000 + k))
	}
	for step := 0; step < steps; step++ {
		if h.later != nil && step == laterStep {
			h.later(og)
			h.later(ow)
		}
		for k, s := range scheds {
			i, j := locate(k)
			g := s.grad(step, rngs[k])
			got[i].Grad[j], want[i].Grad[j] = g, g
			if s.resetAt != 0 && step == s.resetAt {
				got[i].Value[j], want[i].Value[j] = s.resetTo, s.resetTo
			}
		}
		og.Step(got)
		adamStepReference(ow, want)
		for i := range got {
			if !sameBits(got[i].Value, want[i].Value) || !sameBits(og.m[i], ow.m[i]) || !sameBits(og.v[i], ow.v[i]) {
				for j := range got[i].Value {
					k := i*half + j
					t.Logf("%-24s Value %x / %x  m %x / %x  v %x / %x", scheds[k].name,
						got[i].Value[j], want[i].Value[j], og.m[i][j], ow.m[i][j], og.v[i][j], ow.v[i][j])
				}
				t.Fatalf("step %d: Step and the reference diverge (got / want above)", step)
			}
		}
	}
	// The mechanism, not only the outcome: under the default
	// decay a coordinate idle since step 0 or 40 is subnormal
	// by now, and Step must have learnt its resting point —
	// otherwise it is still multiplying subnormals every step.
	if og.Beta1 == 0.9 && steps > 9000 {
		for k, s := range scheds {
			if s.name != "zero-after-40" && s.name != "zero-after-40-negative" {
				continue
			}
			i, j := locate(k)
			mb := math.Float64bits(og.m[i][j]) &^ signBit
			if mb == 0 || mb >= minNormalBits {
				t.Fatalf("%s: m = %x after %d idle steps, expected a non-zero subnormal", s.name, og.m[i][j], steps)
			}
			if mb > og.rest {
				t.Errorf("%s: m = %x is above the learnt resting point %d ulp: Step still multiplies it", s.name, og.m[i][j], og.rest)
			}
		}
	}
}

// queryFit is the fixture behind the experiment-scale query classifier's
// fit (core.Provision under experiments.BuildEnv): 300 BDD training
// frames through vision.QueryFeatures, bucketed car counts as 16 classes,
// a 9→48→16 MLP. It is here, rather than a synthetic gradient stream,
// because the idle coordinates come from this data: ReLU rows that die
// and feature columns that are 0 throughout one condition.
type queryFit struct {
	xs     []tensor.Vector
	labels []int
}

func newQueryFit() queryFit {
	ds := dataset.BDD(0.02)
	ann := query.NewAnnotator(30)
	var f queryFit
	for _, fr := range ds.TrainingFrames(0, 300) {
		f.xs = append(f.xs, vision.QueryFeatures(fr.Pixels, fr.W, fr.H))
		f.labels = append(f.labels, ann.CountLabel(fr))
	}
	return f
}

// epoch runs one shuffled pass of single-example steps, as
// classifier.Fit does.
func (f queryFit) epoch(net *Network, params []*Param, rng *stats.RNG, step func([]*Param)) {
	for _, i := range rng.Perm(len(f.xs)) {
		ZeroGrads(params)
		_, grad := SoftmaxCrossEntropy(net.Forward(f.xs[i]), f.labels[i])
		net.Backward(grad)
		step(params)
	}
}

// TestAdamStepMatchesReferenceOnQueryFit repeats the differential test on
// the training run whose cost the shortcuts exist for, and checks that the
// run still has the property that made it slow.
func TestAdamStepMatchesReferenceOnQueryFit(t *testing.T) {
	epochs := 60
	if testing.Short() {
		epochs = 30 // 9 000 steps: past the ≈ 6 700 a moment needs to go subnormal
	}
	fit := newQueryFit()
	forEachAdamKernel(t, func(t *testing.T) { adamStepMatchesReferenceOnQueryFit(t, fit, epochs) })
}

func adamStepMatchesReferenceOnQueryFit(t *testing.T, fit queryFit, epochs int) {
	got, want := buildMLP(stats.NewRNG(7), 9, 48, 16), buildMLP(stats.NewRNG(7), 9, 48, 16)
	pg, pw := got.Params(), want.Params()
	og, ow := NewAdam(5e-3), NewAdam(5e-3)
	rg, rw := stats.NewRNG(8), stats.NewRNG(8)
	for e := 0; e < epochs; e++ {
		fit.epoch(got, pg, rg, og.Step)
		fit.epoch(want, pw, rw, func(ps []*Param) { adamStepReference(ow, ps) })
		for i := range pg {
			if !sameBits(pg[i].Value, pw[i].Value) || !sameBits(og.m[i], ow.m[i]) || !sameBits(og.v[i], ow.v[i]) {
				t.Fatalf("epoch %d, tensor %d: Step and the reference diverge", e, i)
			}
		}
	}
	subnormal, resting := 0, 0
	for i := range ow.m {
		for _, m := range ow.m[i] {
			if mb := math.Float64bits(m) &^ signBit; mb != 0 && mb < minNormalBits {
				subnormal++
				if mb <= og.rest {
					resting++
				}
			}
		}
	}
	t.Logf("%d of %d first moments subnormal after %d epochs, %d at rest", subnormal, got.ParamCount(), epochs, resting)
	if subnormal < got.ParamCount()/10 {
		t.Errorf("only %d of %d first moments are subnormal: the fixture no longer reproduces the idle coordinates", subnormal, got.ParamCount())
	}
	if resting < subnormal*9/10 {
		t.Errorf("%d of %d subnormal moments are above the learnt resting point: Step still multiplies them", subnormal-resting, subnormal)
	}
}

// BenchmarkAdamStep times one optimizer step over the 1 264 parameters of
// the experiment-scale query classifier (9→48→16). dense: every
// coordinate has a gradient. idle_late: half of them have had none for
// 8 000 steps, as the dead ReLU rows of a 60-epoch fit have, so their
// first moments sit in the subnormals — the regime that cost ten dense
// steps before Step stopped doing arithmetic there.
func BenchmarkAdamStep(b *testing.B) {
	for _, bc := range []struct {
		name   string
		idle   bool
		warmup int
	}{
		{"dense", false, 100},
		{"idle_late", true, 8000},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rng := stats.NewRNG(3)
			params := buildMLP(rng, 9, 48, 16).Params()
			fill := func(idle bool) {
				for _, p := range params {
					for j := range p.Grad {
						p.Grad[j] = rng.Normal(0, 0.1)
						if idle && j < len(p.Grad)/2 {
							p.Grad[j] = 0
						}
					}
				}
			}
			opt := NewAdam(5e-3)
			fill(false)
			for i := 0; i < 50; i++ {
				opt.Step(params)
			}
			fill(bc.idle)
			for i := 0; i < bc.warmup; i++ {
				opt.Step(params)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				opt.Step(params)
			}
		})
	}
}
