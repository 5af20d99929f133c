package vae

import (
	"math"
	"testing"

	"videodrift/internal/stats"
	"videodrift/internal/tensor"
)

// blobData generates synthetic "frames": vectors in [0,1]^dim clustered
// around a per-distribution template with small noise.
func blobData(rng *stats.RNG, dim, n int, template func(i int) float64) []tensor.Vector {
	data := make([]tensor.Vector, n)
	for k := range data {
		v := make(tensor.Vector, dim)
		for i := range v {
			x := template(i) + rng.Normal(0, 0.05)
			v[i] = math.Min(math.Max(x, 0), 1)
		}
		data[k] = v
	}
	return data
}

func brightTemplate(i int) float64 { return 0.8 }
func darkTemplate(i int) float64   { return 0.15 }

func trainSmallVAE(t *testing.T, seed int64, data []tensor.Vector) *VAE {
	t.Helper()
	cfg := Config{InputDim: len(data[0]), HiddenDim: 24, LatentDim: 4, Beta: 0.5, LR: 2e-3}
	v := New(cfg, stats.NewRNG(seed))
	v.Fit(data, 20)
	return v
}

func TestFitReducesLoss(t *testing.T) {
	rng := stats.NewRNG(1)
	data := blobData(rng, 16, 64, brightTemplate)
	v := New(Config{InputDim: 16, HiddenDim: 24, LatentDim: 4, Beta: 0.5, LR: 2e-3}, stats.NewRNG(2))
	losses := v.Fit(data, 15)
	if len(losses) != 15 {
		t.Fatalf("losses length = %d", len(losses))
	}
	if losses[len(losses)-1] >= losses[0] {
		t.Errorf("loss did not decrease: %v -> %v", losses[0], losses[len(losses)-1])
	}
	for i, l := range losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			t.Fatalf("loss[%d] = %v", i, l)
		}
	}
}

func TestFitEmptyData(t *testing.T) {
	v := New(DefaultConfig(8), stats.NewRNG(3))
	if got := v.Fit(nil, 5); got != nil {
		t.Errorf("Fit(nil) = %v, want nil", got)
	}
}

func TestSampleShapeAndRange(t *testing.T) {
	rng := stats.NewRNG(4)
	data := blobData(rng, 16, 48, brightTemplate)
	v := trainSmallVAE(t, 5, data)
	samples := v.Sample(20)
	if len(samples) != 20 {
		t.Fatalf("Sample count = %d", len(samples))
	}
	for _, s := range samples {
		if len(s) != 16 {
			t.Fatalf("sample dim = %d", len(s))
		}
		for _, x := range s {
			if x < 0 || x > 1 || math.IsNaN(x) {
				t.Fatalf("sample pixel out of range: %v", x)
			}
		}
	}
}

func TestSamplesMatchTrainingDistribution(t *testing.T) {
	rng := stats.NewRNG(6)
	bright := blobData(rng, 16, 64, brightTemplate)
	v := trainSmallVAE(t, 7, bright)
	samples := v.Sample(50)
	mean := 0.0
	for _, s := range samples {
		mean += s.Mean()
	}
	mean /= 50
	// Samples from the bright model should be much closer to 0.8 than to the
	// dark template 0.15.
	if math.Abs(mean-0.8) > math.Abs(mean-0.15) {
		t.Errorf("sample mean %v is closer to the wrong template", mean)
	}
}

func TestEmbedDeterministicSampleStochastic(t *testing.T) {
	rng := stats.NewRNG(8)
	data := blobData(rng, 16, 32, brightTemplate)
	v := trainSmallVAE(t, 9, data)
	x := data[0]
	e1 := v.Embed(x)
	e2 := v.Embed(x)
	if e1.Dist(e2) != 0 {
		t.Error("Embed is not deterministic")
	}
	if len(e1) != 4 {
		t.Errorf("Embed dim = %d", len(e1))
	}
	s1 := v.Sample(1)[0]
	s2 := v.Sample(1)[0]
	if s1.Dist(s2) == 0 {
		t.Error("two independent samples are identical")
	}
}

func TestReconstructionErrorSeparatesDistributions(t *testing.T) {
	rng := stats.NewRNG(10)
	bright := blobData(rng, 16, 64, brightTemplate)
	dark := blobData(rng, 16, 64, darkTemplate)
	v := trainSmallVAE(t, 11, bright)

	inErr, outErr := 0.0, 0.0
	for i := 0; i < 20; i++ {
		inErr += v.ReconstructionError(bright[i])
		outErr += v.ReconstructionError(dark[i])
	}
	if inErr >= outErr {
		t.Errorf("in-distribution error %v >= out-of-distribution error %v", inErr, outErr)
	}
}

// TestSampleDistanceSeparatesDistributions checks the property the Drift
// Inspector's non-conformity measure relies on: pixel-space distance from a
// frame to the VAE's decoded i.i.d. samples is small for in-distribution
// frames and large for out-of-distribution frames. (Latent embeddings of
// *unseen* distributions are not guaranteed to separate — the encoder can
// cancel uniform shifts — which is why the default measure works in pixel
// space; see conformal.NonconformityMeasure.)
func TestSampleDistanceSeparatesDistributions(t *testing.T) {
	rng := stats.NewRNG(12)
	bright := blobData(rng, 16, 64, brightTemplate)
	dark := blobData(rng, 16, 64, darkTemplate)
	v := trainSmallVAE(t, 13, bright)

	samples := v.Sample(30)
	avgDist := func(x tensor.Vector) float64 {
		s := 0.0
		for _, smp := range samples {
			s += x.Dist(smp)
		}
		return s / float64(len(samples))
	}
	inDist, outDist := 0.0, 0.0
	for i := 0; i < 20; i++ {
		inDist += avgDist(bright[i])
		outDist += avgDist(dark[i])
	}
	if inDist >= outDist {
		t.Errorf("in-distribution distance %v >= out-of-distribution distance %v", inDist, outDist)
	}
	if outDist < 2*inDist {
		t.Errorf("weak separation: in %v vs out %v", inDist, outDist)
	}
}

func TestDimensionPanics(t *testing.T) {
	v := New(DefaultConfig(8), stats.NewRNG(15))
	cases := []func(){
		func() { v.TrainStep(make(tensor.Vector, 7)) },
		func() { v.Encode(make(tensor.Vector, 9)) },
		func() { v.Decode(make(tensor.Vector, 3)) },
	}
	for i, fn := range cases {
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

func TestNewValidatesConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with zero InputDim did not panic")
		}
	}()
	New(Config{InputDim: 0, HiddenDim: 4, LatentDim: 2}, stats.NewRNG(16))
}
