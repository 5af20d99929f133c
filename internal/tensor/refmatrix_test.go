package tensor

import (
	"math"
	"testing"

	"videodrift/internal/stats"
)

func randomRows(rng *stats.RNG, n, d int) []Vector {
	rows := make([]Vector, n)
	for i := range rows {
		rows[i] = Vector(rng.NormalVec(d, 0, 1))
	}
	return rows
}

func TestFlattenVectorsRoundTrip(t *testing.T) {
	rng := stats.NewRNG(1)
	rows := randomRows(rng, 7, 5)
	m := FlattenVectors(rows)
	if m.Len() != 7 || m.Dim() != 5 {
		t.Fatalf("shape = %dx%d", m.Len(), m.Dim())
	}
	for i, r := range rows {
		got := m.Row(i)
		for j := range r {
			if got[j] != r[j] {
				t.Fatalf("row %d differs at %d", i, j)
			}
		}
	}
	if e := FlattenVectors(nil); e.Len() != 0 {
		t.Errorf("empty flatten Len = %d", e.Len())
	}
}

func TestFlattenVectorsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ragged FlattenVectors did not panic")
		}
	}()
	FlattenVectors([]Vector{{1, 2}, {1}})
}

// TestSqDistRowMatchesDist pins the bit-identity contract the kNN fast
// path relies on: sqrt(SqDistRow) == Vector.Dist exactly.
func TestSqDistRowMatchesDist(t *testing.T) {
	rng := stats.NewRNG(2)
	for _, d := range []int{1, 3, 8, 9, 16, 33} {
		rows := randomRows(rng, 20, d)
		m := FlattenVectors(rows)
		for i, r := range rows {
			x := Vector(rng.NormalVec(d, 0, 2))
			want := x.Dist(r)
			if got := math.Sqrt(m.SqDistRow(x, i)); got != want {
				t.Fatalf("d=%d row %d: sqrt(SqDistRow) = %v, Dist = %v", d, i, got, want)
			}
		}
	}
}
