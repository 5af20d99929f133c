// Package nn is a minimal CPU neural-network substrate: dense layers,
// pointwise activations, stable classification and reconstruction losses,
// and the Adam optimizer. It exists so that the VAE the Drift Inspector
// depends on (paper §4.2.2) and the classifier ensembles MSBO depends on
// (paper §5.2.2) can be trained from scratch with no external dependencies.
//
// The package works on single examples (stochastic updates); the datasets
// in this repo are small synthetic frames, for which per-example updates
// converge quickly and keep the code simple and allocation-light.
package nn

import (
	"videodrift/internal/stats"
	"videodrift/internal/tensor"
)

// Param is one trainable tensor together with its gradient accumulator.
// Adam mutates Value in place and reads Grad; callers clear it.
type Param struct {
	Value []float64
	Grad  []float64
}

// Layer is one differentiable stage of a network. Forward caches whatever
// Backward needs, so a Layer is stateful and training is not safe for
// concurrent use; Infer computes the same output and caches nothing, so
// any number of goroutines may run it on one trained layer.
//
// A training step runs every layer once forward and once backward, so
// the vectors Forward and Backward return may be the layer's own scratch:
// they are valid until the same method is next called on that layer.
// InferInto writes into the caller's vector instead.
type Layer interface {
	// Forward computes the layer output for in.
	Forward(in tensor.Vector) tensor.Vector
	// InferInto computes the value Forward would return into dst's
	// storage (reallocated only when too small; dst must not alias in)
	// without touching the layer's state, and returns it.
	InferInto(dst, in tensor.Vector) tensor.Vector
	// Backward consumes the gradient of the loss with respect to the
	// layer's output, accumulates parameter gradients, and returns the
	// gradient with respect to the layer's input.
	Backward(gradOut tensor.Vector) tensor.Vector
	// Params returns the layer's trainable parameters (possibly empty).
	Params() []*Param
}

// Dense is a fully connected layer computing W·x + b.
type Dense struct {
	W  *tensor.Matrix // out × in
	B  tensor.Vector
	GW *tensor.Matrix // nil until the layer is first trained (see grads)
	GB tensor.Vector

	in      tensor.Vector // cached input for Backward
	out, gi tensor.Vector // Forward's and Backward's results, reused
}

// NewDense returns a Dense layer with Xavier-initialized weights and zero
// biases.
func NewDense(inDim, outDim int, rng *stats.RNG) *Dense {
	d := &Dense{W: tensor.NewMatrix(outDim, inDim), B: tensor.NewVector(outDim)}
	d.W.XavierInit(rng)
	return d
}

// grads brings the gradient accumulators into being, zeroed, on first
// use: a layer that is only ever inferred with — a restored model, or one
// whose training Network.ReleaseTraining dropped — carries none.
func (d *Dense) grads() {
	if d.GW == nil {
		d.GW = tensor.NewMatrix(d.W.Rows, d.W.Cols)
		d.GB = tensor.NewVector(len(d.B))
	}
}

// Forward implements Layer.
func (d *Dense) Forward(in tensor.Vector) tensor.Vector {
	d.in = in
	d.out = d.W.MatVecInto(d.out, in)
	d.out.AddInPlace(d.B)
	return d.out
}

// Infer is InferInto a fresh vector.
func (d *Dense) Infer(in tensor.Vector) tensor.Vector { return d.InferInto(nil, in) }

// InferInto implements Layer.
func (d *Dense) InferInto(dst, in tensor.Vector) tensor.Vector {
	out := d.W.MatVecInto(dst, in)
	out.AddInPlace(d.B)
	return out
}

// Backward implements Layer.
func (d *Dense) Backward(gradOut tensor.Vector) tensor.Vector {
	d.accumulate(gradOut)
	d.gi = d.W.MatVecTInto(d.gi, gradOut)
	return d.gi
}

// accumulate is Backward's effect on the layer's own gradients.
func (d *Dense) accumulate(gradOut tensor.Vector) {
	d.grads()
	d.GW.AddOuterInPlace(1, gradOut, d.in)
	d.GB.AddInPlace(gradOut)
}

// Params implements Layer.
func (d *Dense) Params() []*Param {
	d.grads()
	return []*Param{
		{Value: d.W.Data, Grad: d.GW.Data},
		{Value: d.B, Grad: d.GB},
	}
}

// ReLU is the rectified linear activation.
type ReLU struct {
	mask    []bool
	out, gi tensor.Vector // Forward's and Backward's results, reused
}

// Forward implements Layer.
func (r *ReLU) Forward(in tensor.Vector) tensor.Vector {
	if cap(r.mask) < len(in) {
		r.mask = make([]bool, len(in))
		r.out = make(tensor.Vector, len(in))
		r.gi = make(tensor.Vector, len(in))
	}
	r.mask, r.out, r.gi = r.mask[:len(in)], r.out[:len(in)], r.gi[:len(in)]
	for i, x := range in {
		r.mask[i] = x > 0
		if x > 0 {
			r.out[i] = x
		} else {
			r.out[i] = 0
		}
	}
	return r.out
}

// Infer is InferInto a fresh vector.
func (r *ReLU) Infer(in tensor.Vector) tensor.Vector { return r.InferInto(nil, in) }

// InferInto implements Layer.
func (r *ReLU) InferInto(dst, in tensor.Vector) tensor.Vector {
	out := dst.Resize(len(in))
	for i, x := range in {
		if x > 0 {
			out[i] = x
		} else {
			out[i] = 0
		}
	}
	return out
}

// Backward implements Layer.
func (r *ReLU) Backward(gradOut tensor.Vector) tensor.Vector {
	for i, g := range gradOut {
		if r.mask[i] {
			r.gi[i] = g
		} else {
			r.gi[i] = 0
		}
	}
	return r.gi
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }
