package conformal

import (
	"testing"

	"videodrift/internal/stats"
	"videodrift/internal/tensor"
)

// wideDim is the lower edge of the wide-row regime these tests drive:
// rows far wider than the 4-wide register path, where KNNScorer scores
// through its exact SqDistRow loop. The tests keep the names they had
// when a dot-product kernel served this regime; their contract — bit
// identity with BruteScore, zero allocations — is unchanged.
const wideDim = 32

// TestDotKernelMatchesBruteForce is the bit-identity property test of the
// wide-row kNN path: across random shapes and leave-one-out skips, scores
// must equal BruteScore to the bit.
func TestDotKernelMatchesBruteForce(t *testing.T) {
	rng := stats.NewRNG(301)
	for trial := 0; trial < 120; trial++ {
		n := 1 + rng.Intn(200)
		d := wideDim + rng.Intn(80) // 32..111
		k := 1 + rng.Intn(8)
		ref := randomRef(rng, n, d)
		m := KNN{K: k}
		scorer := NewKNNScorer(k, tensor.FlattenVectors(ref))
		for q := 0; q < 4; q++ {
			x := tensor.Vector(rng.NormalVec(d, 0, 2))
			want := m.BruteScore(x, ref)
			if got := scorer.Score(x); got != want {
				t.Fatalf("trial %d (n=%d d=%d k=%d): wide-row Score = %v, brute = %v (Δ=%g)",
					trial, n, d, k, got, want, got-want)
			}
			if skip := rng.Intn(n); n > 1 {
				want := m.BruteScore(x, without(ref, skip))
				if got := scorer.ScoreSkip(x, skip); got != want {
					t.Fatalf("trial %d (n=%d d=%d k=%d skip=%d): ScoreSkip = %v, brute = %v",
						trial, n, d, k, skip, got, want)
				}
			}
		}
	}
}

// TestDotKernelClusteredAndTied drives the wide-row path through its
// awkward geometry: exact duplicate rows, rows differing only in the last
// coordinate, and tight clusters where every distance is nearly equal.
func TestDotKernelClusteredAndTied(t *testing.T) {
	rng := stats.NewRNG(302)
	const d = 2 * wideDim
	center := tensor.Vector(rng.UniformVec(d, 0, 1))
	var ref []tensor.Vector
	for i := 0; i < 40; i++ {
		v := center.Clone()
		for j := range v {
			v[j] += rng.Uniform(-0.01, 0.01)
		}
		ref = append(ref, v)
	}
	// Exact duplicates straddling the K boundary.
	ref = append(ref, ref[0].Clone(), ref[1].Clone(), ref[2].Clone())
	// Last-coordinate-only perturbations of one row.
	for i := 0; i < 5; i++ {
		v := ref[3].Clone()
		v[d-1] += float64(i) * 1e-9
		ref = append(ref, v)
	}
	m := KNN{K: 5}
	scorer := NewKNNScorer(5, tensor.FlattenVectors(ref))
	for q := 0; q < 50; q++ {
		x := center.Clone()
		for j := range x {
			x[j] += rng.Uniform(-0.02, 0.02)
		}
		want := m.BruteScore(x, ref)
		if got := scorer.Score(x); got != want {
			t.Fatalf("probe %d: wide-row Score = %v, brute = %v (Δ=%g)", q, got, want, got-want)
		}
	}
}

// TestDotKernelZeroVectors pins the degenerate geometry: an all-zero
// probe against zero rows scores exact matches as distance 0.
func TestDotKernelZeroVectors(t *testing.T) {
	const d = wideDim
	ref := make([]tensor.Vector, 10)
	for i := range ref {
		ref[i] = make(tensor.Vector, d)
		if i >= 5 {
			ref[i][0] = float64(i)
		}
	}
	m := KNN{K: 3}
	scorer := NewKNNScorer(3, tensor.FlattenVectors(ref))
	probe := make(tensor.Vector, d)
	if got, want := scorer.Score(probe), m.BruteScore(probe, ref); got != want {
		t.Fatalf("zero-vector Score = %v, brute = %v", got, want)
	}
}

// TestCalibrateDotKernel checks leave-one-out calibration at a wide-row
// width against the rest-slice construction over BruteScore.
func TestCalibrateDotKernel(t *testing.T) {
	rng := stats.NewRNG(303)
	ref := randomRef(rng, 60, wideDim+8)
	m := KNN{K: 5}
	got := Calibrate(m, ref)
	for i := range ref {
		if want := m.BruteScore(ref[i], without(ref, i)); got[i] != want {
			t.Fatalf("calib[%d] = %v, brute leave-one-out = %v", i, got[i], want)
		}
	}
}

// TestDotKernelZeroAlloc pins the hot-path allocation contract for the
// wide-row regime: after a warm-up call, Score must not allocate.
func TestDotKernelZeroAlloc(t *testing.T) {
	rng := stats.NewRNG(304)
	ref := randomRef(rng, 128, 64)
	scorer := NewKNNScorer(5, tensor.FlattenVectors(ref))
	x := tensor.Vector(rng.NormalVec(64, 0, 1))
	scorer.Score(x)
	if avg := testing.AllocsPerRun(100, func() { scorer.Score(x) }); avg != 0 {
		t.Errorf("wide-row Score allocates %v times per call, want 0", avg)
	}
}
