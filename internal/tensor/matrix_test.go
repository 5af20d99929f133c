package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"videodrift/internal/stats"
)

func TestMatVecKnown(t *testing.T) {
	m := NewMatrixFrom([][]float64{{1, 2}, {3, 4}, {5, 6}})
	got := m.MatVec(Vector{1, 1})
	if !vecAlmost(got, Vector{3, 7, 11}, 0) {
		t.Errorf("MatVec = %v", got)
	}
	gotT := m.MatVecT(Vector{1, 1, 1})
	if !vecAlmost(gotT, Vector{9, 12}, 0) {
		t.Errorf("MatVecT = %v", gotT)
	}
}

func TestMatVecTMatchesTransposeMatVec(t *testing.T) {
	g := stats.NewRNG(31)
	f := func(seed uint8) bool {
		m := NewMatrix(4, 3)
		for i := range m.Data {
			m.Data[i] = g.Normal(0, 1)
		}
		v := Vector(g.NormalVec(4, 0, 1))
		return vecAlmost(m.MatVecT(v), m.Transpose().MatVec(v), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddOuterInPlace(t *testing.T) {
	m := NewMatrix(2, 3)
	m.AddOuterInPlace(2, Vector{1, 2}, Vector{3, 4, 5})
	want := []float64{6, 8, 10, 12, 16, 20}
	for i := range m.Data {
		if m.Data[i] != want[i] {
			t.Fatalf("AddOuterInPlace = %v, want %v", m.Data, want)
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	g := stats.NewRNG(33)
	m := NewMatrix(3, 5)
	for i := range m.Data {
		m.Data[i] = g.Normal(0, 1)
	}
	tt := m.Transpose().Transpose()
	for i := range m.Data {
		if m.Data[i] != tt.Data[i] {
			t.Fatal("transpose twice is not identity")
		}
	}
}

func TestMatrixShapePanics(t *testing.T) {
	m := NewMatrix(2, 2)
	cases := []func(){
		func() { m.MatVec(Vector{1}) },
		func() { m.MatVecT(Vector{1, 2, 3}) },
		func() { m.AddOuterInPlace(1, Vector{1}, Vector{1, 2}) },
		func() { NewMatrixFrom([][]float64{{1, 2}, {3}}) },
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

func TestXavierInitRange(t *testing.T) {
	g := stats.NewRNG(34)
	m := NewMatrix(10, 20)
	m.XavierInit(g)
	limit := math.Sqrt(6.0 / 30.0)
	nonZero := 0
	for _, x := range m.Data {
		if math.Abs(x) > limit {
			t.Fatalf("Xavier value %v exceeds limit %v", x, limit)
		}
		if x != 0 {
			nonZero++
		}
	}
	if nonZero < len(m.Data)/2 {
		t.Error("Xavier init left most entries zero")
	}
}

func TestMatrixCloneZeroScale(t *testing.T) {
	m := NewMatrixFrom([][]float64{{1, 2}})
	c := m.Clone()
	c.Scale(10)
	if m.At(0, 0) != 1 || c.At(0, 0) != 10 {
		t.Error("Clone/Scale interaction wrong")
	}
	if m.HasNaN() {
		t.Error("clean matrix flagged as NaN")
	}
	m.Set(0, 0, math.NaN())
	if !m.HasNaN() {
		t.Error("NaN matrix not flagged")
	}
}
