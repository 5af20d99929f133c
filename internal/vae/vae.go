// Package vae implements the variational autoencoder of paper §4.2.2.
//
// The paper uses one VAE per known distribution T_i for two things:
//
//  1. generating any number of i.i.d. samples Σ_{T_i} from the
//     distribution underlying T_i (decode z ~ N(0, I)), which is what makes
//     conformal p-values valid despite frame-to-frame correlation in video;
//  2. embedding incoming frames into a compact latent space (the encoder
//     mean vector), which makes the kNN non-conformity measure cheap.
//
// The paper's VAE is convolutional; ours is dense, trained with the same
// loss (pixel binary cross-entropy reconstruction + KL divergence to the
// standard normal prior) on the same kind of input (frames flattened to
// [0,1] vectors). See DESIGN.md §2 for the substitution rationale.
package vae

import (
	"fmt"
	"math"

	"videodrift/internal/nn"
	"videodrift/internal/stats"
	"videodrift/internal/tensor"
)

// Config describes a VAE architecture and training setup.
type Config struct {
	InputDim  int     // flattened frame size
	HiddenDim int     // encoder/decoder trunk width
	LatentDim int     // dimensionality of z
	Beta      float64 // weight of the KL term relative to reconstruction
	LR        float64 // Adam learning rate
}

// DefaultConfig returns a configuration sized for the synthetic frames in
// this repo (paper: 3 conv + 2 FC encoder; ours: dense trunk).
func DefaultConfig(inputDim int) Config {
	return Config{
		InputDim:  inputDim,
		HiddenDim: 64,
		LatentDim: 8,
		Beta:      1.0,
		LR:        1e-3,
	}
}

// VAE is a trainable variational autoencoder. It is not safe for
// concurrent mutation; Train and the inference methods must not be called
// concurrently. After training, concurrent read-only use still shares layer
// scratch state, so callers needing parallel inference should clone.
type VAE struct {
	cfg Config
	rng *stats.RNG

	enc    *nn.Dense
	encAct *nn.ReLU
	muHead *nn.Dense
	lvHead *nn.Dense
	dec    *nn.Dense
	decAct *nn.ReLU
	out    *nn.Dense

	opt *nn.Adam
}

// New creates an untrained VAE with Xavier-initialized weights drawn from
// rng.
func New(cfg Config, rng *stats.RNG) *VAE {
	if cfg.InputDim <= 0 || cfg.HiddenDim <= 0 || cfg.LatentDim <= 0 {
		panic(fmt.Sprintf("vae: invalid config %+v", cfg))
	}
	if cfg.Beta <= 0 {
		cfg.Beta = 1.0
	}
	if cfg.LR <= 0 {
		cfg.LR = 1e-3
	}
	return &VAE{
		cfg:    cfg,
		rng:    rng,
		enc:    nn.NewDense(cfg.InputDim, cfg.HiddenDim, rng),
		encAct: &nn.ReLU{},
		muHead: nn.NewDense(cfg.HiddenDim, cfg.LatentDim, rng),
		lvHead: nn.NewDense(cfg.HiddenDim, cfg.LatentDim, rng),
		dec:    nn.NewDense(cfg.LatentDim, cfg.HiddenDim, rng),
		decAct: &nn.ReLU{},
		out:    nn.NewDense(cfg.HiddenDim, cfg.InputDim, rng),
		opt:    nn.NewAdam(cfg.LR),
	}
}

// Config returns the architecture the VAE was built with.
func (v *VAE) Config() Config { return v.cfg }

// LatentDim returns the dimensionality of the latent space.
func (v *VAE) LatentDim() int { return v.cfg.LatentDim }

func (v *VAE) params() []*nn.Param {
	var ps []*nn.Param
	for _, l := range []nn.Layer{v.enc, v.muHead, v.lvHead, v.dec, v.out} {
		ps = append(ps, l.Params()...)
	}
	return ps
}

func (v *VAE) zeroGrad() { nn.ZeroGrads(v.params()) }

// TrainStep performs one stochastic gradient step on a single input frame
// (flattened pixels in [0,1]) and returns the total loss (mean-pixel BCE +
// β·KL/InputDim).
func (v *VAE) TrainStep(x tensor.Vector) float64 {
	if len(x) != v.cfg.InputDim {
		panic(fmt.Sprintf("vae: TrainStep input dim %d, want %d", len(x), v.cfg.InputDim))
	}
	v.zeroGrad()

	// Encode.
	h := v.encAct.Forward(v.enc.Forward(x))
	mu := v.muHead.Forward(h)
	lv := v.lvHead.Forward(h).Clip(-10, 10) // keep exp(lv) sane early in training

	// Reparameterize: z = mu + exp(lv/2) * eps.
	eps := tensor.Vector(v.rng.NormalVec(v.cfg.LatentDim, 0, 1))
	sigma := make(tensor.Vector, v.cfg.LatentDim)
	z := make(tensor.Vector, v.cfg.LatentDim)
	for i := range z {
		sigma[i] = math.Exp(0.5 * lv[i])
		z[i] = mu[i] + sigma[i]*eps[i]
	}

	// Decode.
	d := v.decAct.Forward(v.dec.Forward(z))
	logits := v.out.Forward(d)

	// Loss: mean BCE over pixels + β·KL/InputDim, so both terms share the
	// per-pixel scale.
	recon, gradLogits := nn.BCEWithLogits(logits, x)
	klScale := v.cfg.Beta / float64(v.cfg.InputDim)
	kl := 0.0
	for i := range mu {
		kl += -0.5 * (1 + lv[i] - mu[i]*mu[i] - math.Exp(lv[i]))
	}
	loss := recon + klScale*kl

	// Backward through decoder.
	gradZ := v.dec.Backward(v.decAct.Backward(v.out.Backward(gradLogits)))

	// Branch gradients: z = mu + sigma*eps with sigma = exp(lv/2).
	gradMu := make(tensor.Vector, v.cfg.LatentDim)
	gradLv := make(tensor.Vector, v.cfg.LatentDim)
	for i := range gradZ {
		gradMu[i] = gradZ[i] + klScale*mu[i]
		gradLv[i] = gradZ[i]*eps[i]*0.5*sigma[i] + klScale*(-0.5)*(1-math.Exp(lv[i]))
	}

	// Backward through the two encoder heads and the shared trunk.
	gh := v.muHead.Backward(gradMu)
	gh.AddInPlace(v.lvHead.Backward(gradLv))
	v.enc.Backward(v.encAct.Backward(gh))

	nn.ClipGrads(v.params(), 5)
	v.opt.Step(v.params())
	return loss
}

// Fit trains the VAE for the given number of epochs over data, visiting
// examples in a fresh random order each epoch, and returns the mean loss
// per epoch. It is the Fit loop paper §6 describes (Adam, BCE+KL).
func (v *VAE) Fit(data []tensor.Vector, epochs int) []float64 {
	if len(data) == 0 {
		return nil
	}
	losses := make([]float64, 0, epochs)
	for e := 0; e < epochs; e++ {
		perm := v.rng.Perm(len(data))
		total := 0.0
		for _, idx := range perm {
			total += v.TrainStep(data[idx])
		}
		losses = append(losses, total/float64(len(data)))
	}
	return losses
}

// Encode returns the posterior mean and log-variance for x.
func (v *VAE) Encode(x tensor.Vector) (mu, logvar tensor.Vector) {
	if len(x) != v.cfg.InputDim {
		panic(fmt.Sprintf("vae: Encode input dim %d, want %d", len(x), v.cfg.InputDim))
	}
	h := v.encAct.Infer(v.enc.Infer(x))
	return v.muHead.Infer(h), v.lvHead.Infer(h).Clip(-10, 10)
}

// Embed returns the deterministic latent embedding of x (the posterior
// mean), the representation the Drift Inspector's non-conformity measure
// uses.
func (v *VAE) Embed(x tensor.Vector) tensor.Vector {
	mu, _ := v.Encode(x)
	return mu
}

// Decode maps a latent vector through the decoder and returns pixel values
// in (0,1).
func (v *VAE) Decode(z tensor.Vector) tensor.Vector {
	if len(z) != v.cfg.LatentDim {
		panic(fmt.Sprintf("vae: Decode latent dim %d, want %d", len(z), v.cfg.LatentDim))
	}
	d := v.decAct.Infer(v.dec.Infer(z))
	logits := v.out.Infer(d)
	out := make(tensor.Vector, len(logits))
	for i, l := range logits {
		out[i] = 1 / (1 + math.Exp(-l))
	}
	return out
}

// Sample draws n i.i.d. samples from the learned distribution by decoding
// z ~ N(0, I). This is the Σ_{T_i} generator of paper §4.2.1: the samples
// are independent by construction even though the training frames were
// temporally correlated.
func (v *VAE) Sample(n int) []tensor.Vector {
	out := make([]tensor.Vector, n)
	for i := range out {
		out[i] = v.Decode(tensor.Vector(v.rng.NormalVec(v.cfg.LatentDim, 0, 1)))
	}
	return out
}

// Reconstruct encodes x deterministically (z = mu) and decodes it back.
func (v *VAE) Reconstruct(x tensor.Vector) tensor.Vector {
	return v.Decode(v.Embed(x))
}

// ReconstructionError returns the mean squared pixel error between x and
// its deterministic reconstruction — a cheap in-distribution score used by
// diagnostics and tests.
func (v *VAE) ReconstructionError(x tensor.Vector) float64 {
	rec := v.Reconstruct(x)
	loss, _ := nn.MSE(rec, x)
	return loss
}
