package nn

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"videodrift/internal/tensor"
)

// Network is a sequential stack of layers. Training (Forward, Backward)
// is not safe for concurrent use — the ensemble code trains one Network
// per goroutine; Infer on a trained network is.
type Network struct {
	Layers []Layer
}

// NewNetwork builds a sequential network from layers.
func NewNetwork(layers ...Layer) *Network { return &Network{Layers: layers} }

// Forward runs the input through every layer and returns the final output.
func (n *Network) Forward(in tensor.Vector) tensor.Vector {
	out := in
	for _, l := range n.Layers {
		out = l.Forward(out)
	}
	return out
}

// Infer is Forward without the per-layer caches Backward needs: the same
// output, bit for bit, and safe to call from many goroutines at once —
// which is how shards sharing one deployed model classify frames. Each
// layer's output is a fresh vector; InferInto reuses the caller's.
func (n *Network) Infer(in tensor.Vector) tensor.Vector {
	out := in
	for _, l := range n.Layers {
		out = l.InferInto(nil, out)
	}
	return out
}

// Scratch is one caller's layer outputs for InferInto, reused call to
// call; the zero value is ready. It is not safe for concurrent use — give
// each goroutine (each shard's pipeline) its own — and may serve any
// network: it resizes to the one it is handed.
type Scratch struct{ outs []tensor.Vector }

// InferInto is Infer with every layer's output in s: the same output, bit
// for bit, and no allocation once s has served a network of this shape.
// The result is s's and valid until s is next used.
func (n *Network) InferInto(s *Scratch, in tensor.Vector) tensor.Vector {
	if len(s.outs) < len(n.Layers) {
		s.outs = make([]tensor.Vector, len(n.Layers))
	}
	out := in
	for i, l := range n.Layers {
		s.outs[i] = l.InferInto(s.outs[i], out)
		out = s.outs[i]
	}
	return out
}

// Backward propagates the gradient of the loss with respect to the network
// output back through every layer, accumulating parameter gradients, and
// returns the gradient with respect to the network input.
func (n *Network) Backward(gradOut tensor.Vector) tensor.Vector {
	g := gradOut
	for i := len(n.Layers) - 1; i >= 0; i-- {
		g = n.Layers[i].Backward(g)
	}
	return g
}

// BackwardParams is Backward for a caller with no use for the gradient
// with respect to the network input — a classifier's training step, whose
// input is data. Parameter gradients accumulate exactly as under Backward;
// a Dense first layer skips the Wᵀ·δ product that only that return value
// needs.
func (n *Network) BackwardParams(gradOut tensor.Vector) {
	g := gradOut
	for i := len(n.Layers) - 1; i > 0; i-- {
		g = n.Layers[i].Backward(g)
	}
	if len(n.Layers) == 0 {
		return
	}
	if d, ok := n.Layers[0].(*Dense); ok {
		d.accumulate(g)
		return
	}
	n.Layers[0].Backward(g)
}

// Params returns every trainable parameter in the network, bringing the
// gradient accumulators of a network that has none yet into being.
func (n *Network) Params() []*Param {
	var ps []*Param
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// values returns every trainable tensor's values in Params order without
// Params' gradients: what the weight codec and the counters read. Dense
// is the only layer with parameters.
func (n *Network) values() [][]float64 {
	var vs [][]float64
	for _, l := range n.Layers {
		if d, ok := l.(*Dense); ok {
			vs = append(vs, d.W.Data, d.B)
		}
	}
	return vs
}

// ReleaseTraining drops what only training reads — every layer's
// gradient accumulators and Forward/Backward scratch — and keeps the
// weights, which are all Infer needs. Training the network again brings
// them back, zeroed.
func (n *Network) ReleaseTraining() {
	for _, l := range n.Layers {
		switch l := l.(type) {
		case *Dense:
			l.GW, l.GB, l.in, l.out, l.gi = nil, nil, nil, nil, nil
		case *ReLU:
			*l = ReLU{}
		}
	}
}

// ZeroGrad clears every parameter gradient.
func (n *Network) ZeroGrad() { ZeroGrads(n.Params()) }

// ZeroGrads clears the gradients of params. A training loop that keeps
// the slice Params returned uses it in place of ZeroGrad, which builds
// that slice again.
func ZeroGrads(params []*Param) {
	for _, p := range params {
		for i := range p.Grad {
			p.Grad[i] = 0
		}
	}
}

// ParamCount returns the total number of trainable scalars.
func (n *Network) ParamCount() int {
	c := 0
	for _, v := range n.values() {
		c += len(v)
	}
	return c
}

// Snapshot returns a deep copy of all parameter values, in Params order.
func (n *Network) Snapshot() [][]float64 {
	vs := n.values()
	out := make([][]float64, len(vs))
	for i, v := range vs {
		out[i] = append([]float64(nil), v...)
	}
	return out
}

// Restore loads parameter values captured by Snapshot. It panics when the
// snapshot does not match the network's parameter shapes.
func (n *Network) Restore(snap [][]float64) {
	vs := n.values()
	if len(vs) != len(snap) {
		panic(fmt.Sprintf("nn: Restore with %d tensors, network has %d", len(snap), len(vs)))
	}
	for i, v := range vs {
		if len(v) != len(snap[i]) {
			panic(fmt.Sprintf("nn: Restore tensor %d has %d values, want %d", i, len(snap[i]), len(v)))
		}
		copy(v, snap[i])
	}
}

// MarshalBinary serializes the network's weights (not its architecture)
// with encoding/gob, so a network can be checkpointed and restored into an
// identically shaped network.
func (n *Network) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(n.Snapshot()); err != nil {
		return nil, fmt.Errorf("nn: encode weights: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary restores weights captured by MarshalBinary into this
// network, which must have the same architecture.
func (n *Network) UnmarshalBinary(data []byte) error {
	var snap [][]float64
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&snap); err != nil {
		return fmt.Errorf("nn: decode weights: %w", err)
	}
	vs := n.values()
	if len(vs) != len(snap) {
		return fmt.Errorf("nn: checkpoint has %d tensors, network has %d", len(snap), len(vs))
	}
	for i, v := range vs {
		if len(v) != len(snap[i]) {
			return fmt.Errorf("nn: checkpoint tensor %d has %d values, want %d", i, len(snap[i]), len(v))
		}
	}
	n.Restore(snap)
	return nil
}
