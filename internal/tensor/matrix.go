package tensor

import (
	"fmt"
	"math"

	"videodrift/internal/stats"
)

// Matrix is a dense row-major float64 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix returns a zero matrix of the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("tensor: NewMatrix with negative shape")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// NewMatrixFrom builds a matrix from a slice of equal-length rows.
func NewMatrixFrom(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("tensor: NewMatrixFrom with ragged rows")
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// MatVec returns m·v. It panics when v's length differs from m.Cols.
func (m *Matrix) MatVec(v Vector) Vector { return m.MatVecInto(nil, v) }

// MatVecInto is MatVec into dst's storage, reallocated only when it is
// too small; it returns the result. dst must not alias v.
func (m *Matrix) MatVecInto(dst, v Vector) Vector {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("tensor: MatVec shape mismatch (%dx%d)·%d", m.Rows, m.Cols, len(v)))
	}
	out := dst.Resize(m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		s := 0.0
		for j, x := range row {
			s += x * v[j]
		}
		out[i] = s
	}
	return out
}

// MatVecT returns mᵀ·v. It panics when v's length differs from m.Rows.
func (m *Matrix) MatVecT(v Vector) Vector { return m.MatVecTInto(nil, v) }

// MatVecTInto is MatVecT into dst's storage, reallocated only when it is
// too small; it returns the result. dst must not alias v.
func (m *Matrix) MatVecTInto(dst, v Vector) Vector {
	if len(v) != m.Rows {
		panic(fmt.Sprintf("tensor: MatVecT shape mismatch (%dx%d)ᵀ·%d", m.Rows, m.Cols, len(v)))
	}
	out := dst.Resize(m.Cols)
	out.Fill(0)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		vi := v[i]
		for j, x := range row {
			out[j] += x * vi
		}
	}
	return out
}

// AddOuterInPlace accumulates a·(u⊗v) into m, i.e. m[i][j] += a*u[i]*v[j].
// This is the rank-1 update a dense layer's weight gradient needs.
func (m *Matrix) AddOuterInPlace(a float64, u, v Vector) {
	if len(u) != m.Rows || len(v) != m.Cols {
		panic("tensor: AddOuterInPlace shape mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		aui := a * u[i]
		for j, x := range v {
			row[j] += aui * x
		}
	}
}

// Scale multiplies every element of m by a, in place.
func (m *Matrix) Scale(a float64) {
	for i := range m.Data {
		m.Data[i] *= a
	}
}

// Transpose returns a new matrix that is the transpose of m.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// XavierInit fills m with Glorot-uniform samples scaled by the layer fan-in
// and fan-out, the standard initialization for the dense nets in this repo.
func (m *Matrix) XavierInit(rng *stats.RNG) {
	limit := math.Sqrt(6.0 / float64(m.Rows+m.Cols))
	for i := range m.Data {
		m.Data[i] = rng.Uniform(-limit, limit)
	}
}

// HasNaN reports whether m contains a NaN or infinity.
func (m *Matrix) HasNaN() bool {
	for _, x := range m.Data {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
	}
	return false
}
