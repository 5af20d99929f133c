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
// which is how shards sharing one deployed model classify frames.
func (n *Network) Infer(in tensor.Vector) tensor.Vector {
	out := in
	for _, l := range n.Layers {
		out = l.Infer(out)
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

// Params returns every trainable parameter in the network.
func (n *Network) Params() []*Param {
	var ps []*Param
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
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
	for _, p := range n.Params() {
		c += len(p.Value)
	}
	return c
}

// Snapshot returns a deep copy of all parameter values, in Params order.
func (n *Network) Snapshot() [][]float64 {
	ps := n.Params()
	out := make([][]float64, len(ps))
	for i, p := range ps {
		out[i] = append([]float64(nil), p.Value...)
	}
	return out
}

// Restore loads parameter values captured by Snapshot. It panics when the
// snapshot does not match the network's parameter shapes.
func (n *Network) Restore(snap [][]float64) {
	ps := n.Params()
	if len(ps) != len(snap) {
		panic(fmt.Sprintf("nn: Restore with %d tensors, network has %d", len(snap), len(ps)))
	}
	for i, p := range ps {
		if len(p.Value) != len(snap[i]) {
			panic(fmt.Sprintf("nn: Restore tensor %d has %d values, want %d", i, len(snap[i]), len(p.Value)))
		}
		copy(p.Value, snap[i])
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
	ps := n.Params()
	if len(ps) != len(snap) {
		return fmt.Errorf("nn: checkpoint has %d tensors, network has %d", len(snap), len(ps))
	}
	for i, p := range ps {
		if len(p.Value) != len(snap[i]) {
			return fmt.Errorf("nn: checkpoint tensor %d has %d values, want %d", i, len(snap[i]), len(p.Value))
		}
	}
	n.Restore(snap)
	return nil
}
