// Package classifier implements the MLP image classifiers that answer
// queries in the pipeline (paper §6.3 trains VGG-19 / OD-CLF models; see
// DESIGN.md §2 for the substitution) and the deep ensembles MSBO uses for
// uncertainty quantification (paper §5.2.2, following Lakshminarayanan et
// al.: L members, random initialization, each trained end-to-end on a
// randomized shuffle of the full training set, treated as a uniform
// mixture).
package classifier

import (
	"fmt"

	"videodrift/internal/nn"
	"videodrift/internal/parallel"
	"videodrift/internal/stats"
	"videodrift/internal/tensor"
)

// Sample is one labeled training example: a flattened frame (or feature
// vector) and its integer class label.
type Sample struct {
	X     tensor.Vector
	Label int
}

// Config describes a classifier architecture and training setup.
type Config struct {
	InputDim   int
	HiddenDim  int
	NumClasses int
	LR         float64
	Epochs     int
}

// DefaultConfig returns a configuration sized for the synthetic frames in
// this repo.
func DefaultConfig(inputDim, numClasses int) Config {
	return Config{InputDim: inputDim, HiddenDim: 32, NumClasses: numClasses, LR: 1e-3, Epochs: 10}
}

// Classifier is a softmax MLP. It is not safe for concurrent use (layer
// forward passes cache state); clone per goroutine or guard externally.
type Classifier struct {
	cfg Config
	net *nn.Network
	opt *nn.Adam

	// Training state, dropped when Fit returns (releaseTraining): nothing
	// reads it afterwards, and a later TrainStep builds it again.
	params []*nn.Param   // net.Params(): they alias the layers' storage
	grad   tensor.Vector // TrainStep's loss gradient, reused
}

// New creates an untrained classifier with weights drawn from rng.
func New(cfg Config, rng *stats.RNG) *Classifier {
	if cfg.InputDim <= 0 || cfg.NumClasses < 2 {
		panic(fmt.Sprintf("classifier: invalid config %+v", cfg))
	}
	if cfg.HiddenDim <= 0 {
		cfg.HiddenDim = 32
	}
	if cfg.LR <= 0 {
		cfg.LR = 1e-3
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 10
	}
	net := nn.NewNetwork(
		nn.NewDense(cfg.InputDim, cfg.HiddenDim, rng),
		&nn.ReLU{},
		nn.NewDense(cfg.HiddenDim, cfg.NumClasses, rng),
	)
	return &Classifier{cfg: cfg, net: net, opt: nn.NewAdam(cfg.LR), params: net.Params()}
}

// Config returns the configuration the classifier was built with.
func (c *Classifier) Config() Config { return c.cfg }

// NumClasses returns the size of the classifier's output distribution.
func (c *Classifier) NumClasses() int { return c.cfg.NumClasses }

// TrainStep performs one stochastic gradient step on a single example and
// returns the cross-entropy loss.
func (c *Classifier) TrainStep(x tensor.Vector, label int) float64 {
	if c.params == nil {
		c.params = c.net.Params()
	}
	nn.ZeroGrads(c.params)
	logits := c.net.Forward(x)
	loss, grad := nn.SoftmaxCrossEntropyInto(c.grad, logits, label)
	c.grad = grad
	c.net.BackwardParams(grad)
	c.opt.Step(c.params)
	return loss
}

// Fit trains on samples for cfg.Epochs epochs with a fresh shuffle per
// epoch (softmax cross-entropy, Adam — the proper scoring rule of paper
// §5.2.1) and returns the mean loss per epoch. The optimizer's moments
// and the gradient scratch are dropped when it returns: a fitted model
// is only ever inferred with, and a model table would carry them for
// life. A later TrainStep or Fit starts them afresh (no caller fits one
// classifier twice).
func (c *Classifier) Fit(samples []Sample, rng *stats.RNG) []float64 {
	if len(samples) == 0 {
		return nil
	}
	losses := make([]float64, 0, c.cfg.Epochs)
	for e := 0; e < c.cfg.Epochs; e++ {
		perm := rng.Perm(len(samples))
		total := 0.0
		for _, i := range perm {
			total += c.TrainStep(samples[i].X, samples[i].Label)
		}
		losses = append(losses, total/float64(len(samples)))
	}
	c.releaseTraining()
	return losses
}

// releaseTraining drops the optimizer's moments, the gradient
// accumulators and the forward/backward scratch, keeping the weights.
func (c *Classifier) releaseTraining() {
	c.net.ReleaseTraining()
	c.opt.Reset()
	c.params, c.grad = nil, nil
}

// PredictProba returns the softmax class distribution for x.
func (c *Classifier) PredictProba(x tensor.Vector) tensor.Vector {
	return tensor.Softmax(c.net.Infer(x))
}

// Predict returns the most likely class for x. Like PredictProba it is
// safe for concurrent use on a trained classifier: model entries are
// shared between shards, which classify in parallel.
func (c *Classifier) Predict(x tensor.Vector) int {
	return c.net.Infer(x).ArgMax()
}

// PredictInto is Predict with the network's layer outputs in s, the
// caller's own (one per goroutine): the same class, and no allocation
// once s is warm.
func (c *Classifier) PredictInto(s *nn.Scratch, x tensor.Vector) int {
	return c.net.InferInto(s, x).ArgMax()
}

// Accuracy returns the fraction of samples the classifier labels
// correctly, or 0 for an empty slice.
func (c *Classifier) Accuracy(samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	correct := 0
	for _, s := range samples {
		if c.Predict(s.X) == s.Label {
			correct++
		}
	}
	return float64(correct) / float64(len(samples))
}

// Ensemble is a uniformly weighted mixture of L independently initialized
// classifiers — the deep ensemble MSBO scores models with (paper §5.2.2).
type Ensemble struct {
	Members []*Classifier
}

// NewEnsemble creates an ensemble of size members with independent random
// initializations derived from rng.
func NewEnsemble(size int, cfg Config, rng *stats.RNG) *Ensemble {
	if size <= 0 {
		panic("classifier: NewEnsemble with non-positive size")
	}
	e := &Ensemble{Members: make([]*Classifier, size)}
	for i := range e.Members {
		e.Members[i] = New(cfg, rng.Split())
	}
	return e
}

// Fit trains every member on the full sample set with an independent
// shuffle order per member (the full-data deep-ensemble recipe the paper
// adopts instead of bagging). Members train concurrently on a bounded
// worker pool; per-member RNG streams are forked in member order before
// the fan-out, so the trained weights are identical to a serial fit.
func (e *Ensemble) Fit(samples []Sample, rng *stats.RNG) {
	parallel.New(0).ForEachSeeded(len(e.Members), rng, func(i int, r *stats.RNG) {
		e.Members[i].Fit(samples, r)
	})
}

// PredictProba returns the uniformly weighted mixture prediction
// (1/L)·Σ_l p_l(y|x).
func (e *Ensemble) PredictProba(x tensor.Vector) tensor.Vector {
	out := tensor.NewVector(e.Members[0].NumClasses())
	for _, m := range e.Members {
		out.AddInPlace(m.PredictProba(x))
	}
	return out.Scale(1 / float64(len(e.Members)))
}

// Predict returns the most likely class under the mixture.
func (e *Ensemble) Predict(x tensor.Vector) int {
	return e.PredictProba(x).ArgMax()
}

// Brier returns the Brier score of the mixture prediction for one example.
func (e *Ensemble) Brier(x tensor.Vector, label int) float64 {
	return nn.BrierScore(e.PredictProba(x), label)
}

// AvgBrier returns the mean Brier score of the mixture over samples — the
// predictive-uncertainty estimate MSBO ranks models by. It returns the
// worst possible certainty signal (1) for an empty slice.
func (e *Ensemble) AvgBrier(samples []Sample) float64 {
	if len(samples) == 0 {
		return 1
	}
	total := 0.0
	for _, s := range samples {
		total += e.Brier(s.X, s.Label)
	}
	return total / float64(len(samples))
}

// Accuracy returns the mixture's classification accuracy over samples.
func (e *Ensemble) Accuracy(samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	correct := 0
	for _, s := range samples {
		if e.Predict(s.X) == s.Label {
			correct++
		}
	}
	return float64(correct) / float64(len(samples))
}

// Size returns the number of ensemble members (L).
func (e *Ensemble) Size() int { return len(e.Members) }
