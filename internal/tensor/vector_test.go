package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"videodrift/internal/stats"
)

func vecAlmost(a, b Vector, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

func TestVectorArithmetic(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{4, 5, 6}
	if got := v.Add(w); !vecAlmost(got, Vector{5, 7, 9}, 0) {
		t.Errorf("Add = %v", got)
	}
	if got := v.Scale(2); !vecAlmost(got, Vector{2, 4, 6}, 0) {
		t.Errorf("Scale = %v", got)
	}
	if got := v.Dot(w); got != 32 {
		t.Errorf("Dot = %v", got)
	}
	if got := (Vector{0, 0}).Dist(Vector{3, 4}); got != 5 {
		t.Errorf("Dist = %v", got)
	}
}

func TestVectorInPlaceOps(t *testing.T) {
	v := Vector{1, 1}
	v.AddInPlace(Vector{2, 3})
	if !vecAlmost(v, Vector{3, 4}, 0) {
		t.Errorf("AddInPlace = %v", v)
	}
	v.Fill(7)
	if !vecAlmost(v, Vector{7, 7}, 0) {
		t.Errorf("Fill = %v", v)
	}
}

func TestVectorLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add with mismatched lengths did not panic")
		}
	}()
	Vector{1}.Add(Vector{1, 2})
}

func TestVectorAggregates(t *testing.T) {
	v := Vector{1, 5, 3}
	if v.Sum() != 9 {
		t.Errorf("Sum = %v", v.Sum())
	}
	if v.Mean() != 3 {
		t.Errorf("Mean = %v", v.Mean())
	}
	if v.ArgMax() != 1 {
		t.Errorf("ArgMax = %v", v.ArgMax())
	}
	if got := v.Clip(2, 4); !vecAlmost(got, Vector{2, 4, 3}, 0) {
		t.Errorf("Clip = %v", got)
	}
	if (Vector{}).Mean() != 0 {
		t.Error("empty Mean != 0")
	}
}

func TestHasNaN(t *testing.T) {
	if (Vector{1, 2}).HasNaN() {
		t.Error("clean vector flagged")
	}
	if !(Vector{1, math.NaN()}).HasNaN() {
		t.Error("NaN not flagged")
	}
	if !(Vector{math.Inf(1)}).HasNaN() {
		t.Error("Inf not flagged")
	}
}

func TestSoftmaxProperties(t *testing.T) {
	g := stats.NewRNG(5)
	f := func(seed uint8) bool {
		v := Vector(g.NormalVec(6, 0, 10))
		s := Softmax(v)
		sum := 0.0
		for _, x := range s {
			if x < 0 || x > 1 {
				return false
			}
			sum += x
		}
		if math.Abs(sum-1) > 1e-9 {
			return false
		}
		// Softmax is shift-invariant.
		shifted := Softmax(v.Add(Vector{3, 3, 3, 3, 3, 3}))
		return vecAlmost(s, shifted, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSoftmaxStability(t *testing.T) {
	s := Softmax(Vector{1000, 1001, 999})
	if Vector(s).HasNaN() {
		t.Errorf("Softmax overflowed: %v", s)
	}
	if s.ArgMax() != 1 {
		t.Errorf("Softmax argmax = %d", s.ArgMax())
	}
	if Softmax(nil) != nil {
		t.Error("Softmax(nil) != nil")
	}
}

func TestCloneIndependence(t *testing.T) {
	v := Vector{1, 2}
	c := v.Clone()
	c[0] = 99
	if v[0] == 99 {
		t.Error("Clone shares storage")
	}
}
