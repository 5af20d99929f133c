package nn

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"videodrift/internal/stats"
	"videodrift/internal/tensor"
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

func TestNLL(t *testing.T) {
	if v := NLL(tensor.Vector{1, 0}, 0); v != 0 {
		t.Errorf("NLL of certain correct = %v", v)
	}
	if v := NLL(tensor.Vector{0, 1}, 0); math.IsInf(v, 0) {
		t.Errorf("NLL should be clamped, got %v", v)
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

func TestSGDMomentumReducesLoss(t *testing.T) {
	rng := stats.NewRNG(8)
	net := buildMLP(rng, 2, 6, 2)
	opt := NewSGD(0.1, 0.9)
	in := tensor.Vector{1, -1}
	first := -1.0
	var last float64
	for i := 0; i < 100; i++ {
		net.ZeroGrad()
		loss, grad := SoftmaxCrossEntropy(net.Forward(in), 1)
		if first < 0 {
			first = loss
		}
		last = loss
		net.Backward(grad)
		opt.Step(net.Params())
	}
	if last >= first {
		t.Errorf("SGD did not reduce loss: %v -> %v", first, last)
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
	var s Sigmoid
	so := s.Forward(tensor.Vector{0})
	if math.Abs(so[0]-0.5) > 1e-12 {
		t.Errorf("Sigmoid(0) = %v", so[0])
	}
	var th Tanh
	to := th.Forward(tensor.Vector{0})
	if to[0] != 0 {
		t.Errorf("Tanh(0) = %v", to[0])
	}
}

// TestInferMatchesForward pins the inference path shards sharing one
// model classify through: Infer returns Forward's output bit for bit,
// for every layer kind, and — unlike Forward, which writes the caches
// Backward reads — any number of goroutines may call it on one network
// (run under -race).
func TestInferMatchesForward(t *testing.T) {
	rng := stats.NewRNG(9)
	net := NewNetwork(NewDense(6, 8, rng), &ReLU{}, NewDense(8, 8, rng), &Sigmoid{}, NewDense(8, 5, rng), &Tanh{})
	inputs := make([]tensor.Vector, 16)
	want := make([]tensor.Vector, len(inputs))
	for i := range inputs {
		inputs[i] = tensor.NewVector(6)
		for j := range inputs[i] {
			inputs[i][j] = rng.StdNormal()
		}
		want[i] = net.Forward(inputs[i])
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
