package nn

import (
	"math"

	"videodrift/internal/tensor"
)

// The loss functions below return the scalar loss together with the
// gradient of the loss with respect to the network's raw output (logits),
// which is what Network.Backward consumes. Losses that involve a softmax
// or sigmoid fold the activation into the loss for numerical stability, so
// the network itself should end with a plain Dense layer.

// SoftmaxCrossEntropy returns the cross-entropy loss of logits against the
// integer class label, together with the gradient with respect to the
// logits (softmax(logits) − onehot(label)). This is the proper scoring rule
// (paper §5.2.1) the classifier ensembles are trained on.
func SoftmaxCrossEntropy(logits tensor.Vector, label int) (loss float64, grad tensor.Vector) {
	return SoftmaxCrossEntropyInto(nil, logits, label)
}

// SoftmaxCrossEntropyInto is SoftmaxCrossEntropy with the gradient written
// into dst's storage, reallocated only when it is too small: a training
// loop that keeps the vector it gets back allocates nothing per step.
func SoftmaxCrossEntropyInto(dst, logits tensor.Vector, label int) (loss float64, grad tensor.Vector) {
	if label < 0 || label >= len(logits) {
		panic("nn: SoftmaxCrossEntropy label out of range")
	}
	grad = tensor.SoftmaxInto(dst, logits)
	p := grad[label]
	if p < 1e-12 {
		p = 1e-12
	}
	loss = -math.Log(p)
	grad[label] -= 1
	return loss, grad
}

// BCEWithLogits returns the mean binary cross-entropy between
// sigmoid(logits) and target (each target in [0,1]), together with the
// gradient with respect to the logits, (sigmoid(logits) − target)/n. This
// is the pixel reconstruction loss the VAE is trained on (paper §4.2.2).
func BCEWithLogits(logits, target tensor.Vector) (loss float64, grad tensor.Vector) {
	if len(logits) != len(target) {
		panic("nn: BCEWithLogits length mismatch")
	}
	n := float64(len(logits))
	grad = make(tensor.Vector, len(logits))
	for i, z := range logits {
		y := target[i]
		// log(1+exp(z)) computed stably.
		softplus := math.Max(z, 0) + math.Log1p(math.Exp(-math.Abs(z)))
		loss += softplus - z*y
		s := 1 / (1 + math.Exp(-z))
		grad[i] = (s - y) / n
	}
	return loss / n, grad
}

// MSE returns the mean squared error between pred and target, together
// with the gradient 2(pred − target)/n with respect to pred.
func MSE(pred, target tensor.Vector) (loss float64, grad tensor.Vector) {
	if len(pred) != len(target) {
		panic("nn: MSE length mismatch")
	}
	n := float64(len(pred))
	grad = make(tensor.Vector, len(pred))
	for i := range pred {
		d := pred[i] - target[i]
		loss += d * d
		grad[i] = 2 * d / n
	}
	return loss / n, grad
}

// BrierScore returns the Brier score of a predictive distribution probs
// against the integer class label: (1/K)·Σ_i (δ_{i=label} − probs[i])².
// Zero means complete certainty on the correct class; higher is more
// uncertain (paper §5.2.1).
func BrierScore(probs tensor.Vector, label int) float64 {
	if label < 0 || label >= len(probs) {
		panic("nn: BrierScore label out of range")
	}
	s := 0.0
	for i, p := range probs {
		d := -p
		if i == label {
			d = 1 - p
		}
		s += d * d
	}
	return s / float64(len(probs))
}
