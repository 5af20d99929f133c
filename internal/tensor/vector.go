// Package tensor implements the small dense linear-algebra substrate that
// the neural-network, conformal and clustering code builds on: float64
// vectors and row-major matrices with the handful of BLAS-level operations
// a CPU-only training loop needs.
package tensor

import (
	"fmt"
	"math"
)

// Vector is a dense float64 vector.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector { return append(Vector(nil), v...) }

// Resize returns v with length n, reusing its storage when it is large
// enough: what the *Into functions do with their destination. The
// contents are unspecified.
func (v Vector) Resize(n int) Vector {
	if cap(v) < n {
		return make(Vector, n)
	}
	return v[:n]
}

// Add returns v + w as a new vector. It panics on length mismatch.
func (v Vector) Add(w Vector) Vector {
	checkLen(len(v), len(w), "Add")
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] + w[i]
	}
	return out
}

// Scale returns a*v as a new vector.
func (v Vector) Scale(a float64) Vector {
	out := make(Vector, len(v))
	for i := range v {
		out[i] = a * v[i]
	}
	return out
}

// AddInPlace accumulates w into v. It panics on length mismatch.
func (v Vector) AddInPlace(w Vector) {
	checkLen(len(v), len(w), "AddInPlace")
	for i := range v {
		v[i] += w[i]
	}
}

// Dot returns the inner product of v and w. It panics on length mismatch.
func (v Vector) Dot(w Vector) float64 {
	checkLen(len(v), len(w), "Dot")
	s := 0.0
	for i := range v {
		s += v[i] * w[i]
	}
	return s
}

// Dist returns the Euclidean distance between v and w.
func (v Vector) Dist(w Vector) float64 {
	checkLen(len(v), len(w), "Dist")
	s := 0.0
	for i := range v {
		d := v[i] - w[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Sum returns the sum of the elements of v.
func (v Vector) Sum() float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// Mean returns the mean of the elements of v (0 for an empty vector).
func (v Vector) Mean() float64 {
	if len(v) == 0 {
		return 0
	}
	return v.Sum() / float64(len(v))
}

// ArgMax returns the index of the largest element. It panics on an empty
// vector.
func (v Vector) ArgMax() int {
	if len(v) == 0 {
		panic("tensor: ArgMax of empty vector")
	}
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

// Clip returns a copy of v with every element clamped to [lo, hi].
func (v Vector) Clip(lo, hi float64) Vector {
	out := make(Vector, len(v))
	for i, x := range v {
		out[i] = math.Min(math.Max(x, lo), hi)
	}
	return out
}

// Fill sets every element of v to a.
func (v Vector) Fill(a float64) {
	for i := range v {
		v[i] = a
	}
}

// HasNaN reports whether v contains a NaN or infinity.
func (v Vector) HasNaN() bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
	}
	return false
}

// Softmax returns the softmax of v computed with the max-shift trick for
// numerical stability. The result sums to 1.
func Softmax(v Vector) Vector { return SoftmaxInto(nil, v) }

// SoftmaxInto is Softmax into dst's storage, reallocated only when it is
// too small; it returns the result. dst may alias v.
func SoftmaxInto(dst, v Vector) Vector {
	if len(v) == 0 {
		return nil
	}
	max := v[0]
	for _, x := range v[1:] {
		if x > max {
			max = x
		}
	}
	out := dst.Resize(len(v))
	sum := 0.0
	for i, x := range v {
		e := math.Exp(x - max)
		out[i] = e
		sum += e
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

func checkLen(a, b int, op string) {
	if a != b {
		panic(fmt.Sprintf("tensor: %s length mismatch %d != %d", op, a, b))
	}
}
