package classifier

import (
	"bytes"
	"math"
	"testing"

	"videodrift/internal/dataset"
	"videodrift/internal/nn"
	"videodrift/internal/query"
	"videodrift/internal/stats"
	"videodrift/internal/tensor"
	"videodrift/internal/vision"
)

// gaussianBlobs builds a 2-class dataset of well-separated Gaussian blobs
// in dim dimensions.
func gaussianBlobs(rng *stats.RNG, dim, perClass int) []Sample {
	samples := make([]Sample, 0, 2*perClass)
	for c := 0; c < 2; c++ {
		center := float64(c)*2 - 1 // -1 or +1
		for i := 0; i < perClass; i++ {
			samples = append(samples, Sample{
				X:     tensor.Vector(rng.NormalVec(dim, center, 0.3)),
				Label: c,
			})
		}
	}
	return samples
}

func TestFitLearnsBlobs(t *testing.T) {
	rng := stats.NewRNG(1)
	train := gaussianBlobs(rng, 8, 40)
	test := gaussianBlobs(rng, 8, 20)
	c := New(Config{InputDim: 8, HiddenDim: 16, NumClasses: 2, LR: 5e-3, Epochs: 15}, stats.NewRNG(2))
	losses := c.Fit(train, stats.NewRNG(3))
	if losses[len(losses)-1] >= losses[0] {
		t.Errorf("loss did not decrease: %v -> %v", losses[0], losses[len(losses)-1])
	}
	if acc := c.Accuracy(test); acc < 0.95 {
		t.Errorf("test accuracy = %v, want >= 0.95", acc)
	}
}

func TestFitEmpty(t *testing.T) {
	c := New(DefaultConfig(4, 2), stats.NewRNG(4))
	if got := c.Fit(nil, stats.NewRNG(5)); got != nil {
		t.Errorf("Fit(nil) = %v", got)
	}
	if got := c.Accuracy(nil); got != 0 {
		t.Errorf("Accuracy(nil) = %v", got)
	}
}

func TestPredictProbaIsDistribution(t *testing.T) {
	rng := stats.NewRNG(6)
	c := New(DefaultConfig(4, 3), stats.NewRNG(7))
	for i := 0; i < 20; i++ {
		p := c.PredictProba(tensor.Vector(rng.NormalVec(4, 0, 1)))
		sum := 0.0
		for _, v := range p {
			if v < 0 || v > 1 {
				t.Fatalf("probability out of range: %v", p)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("probabilities sum to %v", sum)
		}
	}
}

func TestNewValidates(t *testing.T) {
	for _, cfg := range []Config{
		{InputDim: 0, NumClasses: 2},
		{InputDim: 4, NumClasses: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg, stats.NewRNG(8))
		}()
	}
}

func TestEnsembleMembersDiffer(t *testing.T) {
	e := NewEnsemble(3, DefaultConfig(4, 2), stats.NewRNG(9))
	if e.Size() != 3 {
		t.Fatalf("Size = %d", e.Size())
	}
	x := tensor.Vector{1, 2, 3, 4}
	p0 := e.Members[0].PredictProba(x)
	p1 := e.Members[1].PredictProba(x)
	if p0.Dist(p1) == 0 {
		t.Error("ensemble members are identical — initialization is not independent")
	}
}

func TestEnsembleFitAndMixture(t *testing.T) {
	rng := stats.NewRNG(10)
	train := gaussianBlobs(rng, 8, 40)
	test := gaussianBlobs(rng, 8, 20)
	e := NewEnsemble(3, Config{InputDim: 8, HiddenDim: 16, NumClasses: 2, LR: 5e-3, Epochs: 10}, stats.NewRNG(11))
	e.Fit(train, stats.NewRNG(12))
	if acc := e.Accuracy(test); acc < 0.95 {
		t.Errorf("ensemble accuracy = %v", acc)
	}
	// Mixture probabilities are a valid distribution.
	p := e.PredictProba(test[0].X)
	sum := 0.0
	for _, v := range p {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("mixture sums to %v", sum)
	}
}

// TestEnsembleBrierSeparatesDistributions is the core MSBO property: an
// ensemble trained on distribution A has a much lower Brier score on A
// than on an unseen distribution B (even when single-model softmax
// confidence might remain high — the overconfidence problem of §5.2).
func TestEnsembleBrierSeparatesDistributions(t *testing.T) {
	rng := stats.NewRNG(13)
	trainA := gaussianBlobs(rng, 8, 40)
	testA := gaussianBlobs(rng, 8, 20)
	// Distribution B: same labels but shifted far away.
	testB := make([]Sample, len(testA))
	for i, s := range testA {
		x := s.X.Clone()
		for j := range x {
			x[j] += 6 * math.Cos(float64(j)) // orthogonal-ish large shift
		}
		testB[i] = Sample{X: x, Label: s.Label}
	}
	e := NewEnsemble(5, Config{InputDim: 8, HiddenDim: 16, NumClasses: 2, LR: 5e-3, Epochs: 10}, stats.NewRNG(14))
	e.Fit(trainA, stats.NewRNG(15))

	inBrier := e.AvgBrier(testA)
	outBrier := e.AvgBrier(testB)
	if inBrier >= outBrier {
		t.Errorf("in-distribution Brier %v >= out-of-distribution %v", inBrier, outBrier)
	}
	if outBrier < 2*inBrier {
		t.Errorf("weak Brier separation: in %v out %v", inBrier, outBrier)
	}
}

func TestAvgBrierEmpty(t *testing.T) {
	e := NewEnsemble(2, DefaultConfig(4, 2), stats.NewRNG(16))
	if got := e.AvgBrier(nil); got != 1 {
		t.Errorf("AvgBrier(nil) = %v, want 1", got)
	}
	if got := e.Accuracy(nil); got != 0 {
		t.Errorf("Accuracy(nil) = %v", got)
	}
}

func TestEnsembleSizePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewEnsemble(0) did not panic")
		}
	}()
	NewEnsemble(0, DefaultConfig(4, 2), stats.NewRNG(17))
}

func TestEnsembleDeterministicGivenSeed(t *testing.T) {
	build := func() *Ensemble {
		rng := stats.NewRNG(20)
		train := gaussianBlobs(stats.NewRNG(21), 4, 10)
		e := NewEnsemble(2, Config{InputDim: 4, HiddenDim: 8, NumClasses: 2, LR: 5e-3, Epochs: 3}, rng.Split())
		e.Fit(train, rng.Split())
		return e
	}
	a, b := build(), build()
	x := tensor.Vector{0.5, -0.5, 0.1, 0}
	if a.PredictProba(x).Dist(b.PredictProba(x)) > 1e-12 {
		t.Error("ensemble training is not deterministic given a fixed seed")
	}
}

// queryFixture is the experiment-scale query classifier's training set
// and configuration: 300 BDD training frames through vision.QueryFeatures,
// bucketed car counts as 16 classes, a 9→48→16 MLP fitted for 60 epochs.
func queryFixture() ([]Sample, Config) {
	ann := query.NewAnnotator(30)
	var samples []Sample
	for _, f := range dataset.BDD(0.02).TrainingFrames(0, 300) {
		samples = append(samples, Sample{X: vision.QueryFeatures(f.Pixels, f.W, f.H), Label: ann.CountLabel(f)})
	}
	return samples, Config{InputDim: len(samples[0].X), HiddenDim: 48, NumClasses: ann.NumClasses(query.Count), LR: 5e-3, Epochs: 60}
}

// trainStepReference is TrainStep as it stood before it stopped asking for
// the input gradient: the whole of Network.Backward, a fresh loss gradient.
func trainStepReference(c *Classifier, x tensor.Vector, label int) float64 {
	nn.ZeroGrads(c.params)
	loss, grad := nn.SoftmaxCrossEntropy(c.net.Forward(x), label)
	c.net.Backward(grad)
	c.opt.Step(c.params)
	return loss
}

// TestTrainStepMatchesPlainBackward: leaving out the first layer's Wᵀ·δ
// and reusing the loss gradient's storage change no parameter gradient, so
// a full fit ends on the same weights and reports the same losses, bit for
// bit — and a step allocates nothing.
func TestTrainStepMatchesPlainBackward(t *testing.T) {
	samples, cfg := queryFixture()
	if testing.Short() {
		cfg.Epochs = 10
	}
	got, want := New(cfg, stats.NewRNG(7)), New(cfg, stats.NewRNG(7))
	losses := got.Fit(samples, stats.NewRNG(8))
	rng := stats.NewRNG(8)
	for e := 0; e < cfg.Epochs; e++ {
		total := 0.0
		for _, i := range rng.Perm(len(samples)) {
			total += trainStepReference(want, samples[i].X, samples[i].Label)
		}
		if mean := total / float64(len(samples)); math.Float64bits(mean) != math.Float64bits(losses[e]) {
			t.Fatalf("epoch %d: loss %v, plain Backward %v", e, losses[e], mean)
		}
	}
	gb, err := got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	wb, err := want.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb, wb) {
		t.Error("weights differ from a fit through the plain Network.Backward")
	}
	if allocs := testing.AllocsPerRun(100, func() { got.TrainStep(samples[0].X, samples[0].Label) }); allocs != 0 {
		t.Errorf("TrainStep allocates %v times a step, want 0", allocs)
	}
}

// BenchmarkClassifierFit times the fit set-up runs once per network (24
// of them for a four-sequence dataset): the experiment-scale query
// classifier, 60 epochs over 300 BDD training frames, 18 000 single-example
// Adam steps. The data is real because the cost was: ReLU rows that die on
// it leave a fifth of the first moments idle long enough to go subnormal.
func BenchmarkClassifierFit(b *testing.B) {
	samples, cfg := queryFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		New(cfg, stats.NewRNG(7)).Fit(samples, stats.NewRNG(8))
	}
}

// BenchmarkClassifierTrainStep times one step of that fit — forward, loss,
// backward, Adam over the 1 264 parameters — on a classifier 2 000 steps in.
func BenchmarkClassifierTrainStep(b *testing.B) {
	samples, cfg := queryFixture()
	c := New(cfg, stats.NewRNG(7))
	for i := 0; i < 2000; i++ {
		c.TrainStep(samples[i%len(samples)].X, samples[i%len(samples)].Label)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := samples[i%len(samples)]
		c.TrainStep(s.X, s.Label)
	}
}
