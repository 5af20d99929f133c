package tensor

// RefMatrix is a reference sample flattened into one contiguous row-major
// buffer — the cache-friendly layout the kNN scorer iterates over.
// A []Vector reference scatters rows across the heap (one allocation per
// vector, pointer chase per row); flattening puts every row on the same
// few cache lines so the distance loop streams through memory linearly.
// A RefMatrix is immutable once built, which is what lets many inspectors
// (and many stream shards) share one provisioned reference sample.
type RefMatrix struct {
	n, dim int
	data   []float64
}

// FlattenVectors copies equal-length vectors into a contiguous RefMatrix.
// It panics on ragged input; an empty input yields an empty matrix.
func FlattenVectors(vs []Vector) *RefMatrix {
	if len(vs) == 0 {
		return &RefMatrix{}
	}
	dim := len(vs[0])
	m := &RefMatrix{n: len(vs), dim: dim, data: make([]float64, len(vs)*dim)}
	for i, v := range vs {
		if len(v) != dim {
			panic("tensor: FlattenVectors with ragged rows")
		}
		copy(m.data[i*dim:(i+1)*dim], v)
	}
	return m
}

// Len returns the number of reference rows.
func (m *RefMatrix) Len() int { return m.n }

// Dim returns the row dimensionality.
func (m *RefMatrix) Dim() int { return m.dim }

// Row returns row i as a Vector sharing the matrix's backing storage.
// Callers must not mutate it.
func (m *RefMatrix) Row(i int) Vector { return Vector(m.data[i*m.dim : (i+1)*m.dim]) }

// SqDistRow returns the squared Euclidean distance between x and row i.
// The accumulation order matches Vector.Dist exactly, so sqrt(SqDistRow)
// is bit-identical to x.Dist(m.Row(i)).
func (m *RefMatrix) SqDistRow(x Vector, i int) float64 {
	row := m.data[i*m.dim : i*m.dim+len(x)]
	s := 0.0
	for j, xv := range x {
		d := xv - row[j]
		s += d * d
	}
	return s
}
