package conformal

import (
	"testing"

	"videodrift/internal/stats"
	"videodrift/internal/tensor"
)

// randomRef builds n random d-dimensional reference vectors.
func randomRef(rng *stats.RNG, n, d int) []tensor.Vector {
	ref := make([]tensor.Vector, n)
	for i := range ref {
		ref[i] = tensor.Vector(rng.NormalVec(d, 0, 1))
	}
	return ref
}

// TestKNNScorerMatchesBruteForce is the equivalence property test of the
// fast scorer: across random widths, K and reference sizes, KNNScorer
// must return the brute-force reference value, with and without a
// leave-one-out skip. Widths 1–80 cover the 4-wide register path and the
// exact SqDistRow loop every other width takes. The construction
// preserves the accumulation order of the brute path, so the bar is
// bit-identity.
func TestKNNScorerMatchesBruteForce(t *testing.T) {
	rng := stats.NewRNG(101)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(160)
		d := 1 + rng.Intn(80)
		k := 1 + rng.Intn(12) // sometimes > n: exercises clamping
		ref := randomRef(rng, n, d)
		m := KNN{K: k}
		scorer := NewKNNScorer(k, tensor.FlattenVectors(ref))
		for q := 0; q < 5; q++ {
			x := tensor.Vector(rng.NormalVec(d, 0, 2))
			want := m.BruteScore(x, ref)
			if got := scorer.Score(x); got != want {
				t.Fatalf("trial %d (n=%d d=%d k=%d): KNNScorer.Score = %v, brute = %v (Δ=%g)",
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

// without returns ref less its element i, in a fresh slice.
func without(ref []tensor.Vector, i int) []tensor.Vector {
	return append(append([]tensor.Vector{}, ref[:i]...), ref[i+1:]...)
}

// TestKNNScorerDuplicateRows pins tie handling, narrow and wide:
// duplicated reference rows — zero rows among them, probed by the zero
// vector too — produce equal distances straddling the K boundary, and the
// selected multiset must still sum to the brute value.
func TestKNNScorerDuplicateRows(t *testing.T) {
	rng := stats.NewRNG(102)
	for _, d := range []int{3, 40} {
		base := append(randomRef(rng, 8, d), make(tensor.Vector, d))
		ref := append(append([]tensor.Vector{}, base...), base...) // every row twice
		m := KNN{K: 5}
		scorer := NewKNNScorer(5, tensor.FlattenVectors(ref))
		for q := 0; q < 20; q++ {
			x := tensor.Vector(rng.NormalVec(d, 0, 1))
			if q == 0 {
				x = make(tensor.Vector, d)
			}
			want := m.BruteScore(x, ref)
			if got := scorer.Score(x); got != want {
				t.Fatalf("d=%d tied rows: scorer = %v, brute = %v", d, got, want)
			}
		}
	}
}

// TestCalibrateFastPathMatchesGeneric verifies the in-place leave-one-out
// calibration against the rest-slice construction over BruteScore.
func TestCalibrateFastPathMatchesGeneric(t *testing.T) {
	rng := stats.NewRNG(103)
	for _, n := range []int{2, 3, 17, 80} {
		for _, k := range []int{1, 3, 5, 90} {
			for _, d := range []int{4, 6, 40} {
				ref := randomRef(rng, n, d)
				got := Calibrate(KNN{K: k}, ref)
				for i := range ref {
					if want := (KNN{K: k}).BruteScore(ref[i], without(ref, i)); got[i] != want {
						t.Fatalf("n=%d k=%d d=%d: Calibrate[%d] = %v, leave-one-out brute = %v", n, k, d, i, got[i], want)
					}
				}
			}
		}
	}
}

// TestKNNScorerScoreSkip pins the leave-one-out primitive directly: a
// point scored against a reference containing itself gets 0 for its own
// row unless that row is skipped.
func TestKNNScorerScoreSkip(t *testing.T) {
	ref := []tensor.Vector{{0, 0}, {3, 4}, {6, 8}}
	s := NewKNNScorer(1, tensor.FlattenVectors(ref))
	if got := s.ScoreSkip(ref[0], -1); got != 0 {
		t.Errorf("no skip: nearest = %v, want 0 (itself)", got)
	}
	if got := s.ScoreSkip(ref[0], 0); got != 5 {
		t.Errorf("skip self: nearest = %v, want 5", got)
	}
}

// TestKNNScorerZeroAlloc asserts the acceptance criterion directly:
// neither distance path allocates.
func TestKNNScorerZeroAlloc(t *testing.T) {
	rng := stats.NewRNG(104)
	for _, d := range []int{4, 64} {
		scorer := NewKNNScorer(5, tensor.FlattenVectors(randomRef(rng, 100, d)))
		x := tensor.Vector(rng.NormalVec(d, 0, 1))
		if allocs := testing.AllocsPerRun(200, func() { scorer.Score(x) }); allocs != 0 {
			t.Errorf("d=%d: KNNScorer.Score allocates %v objects/op, want 0", d, allocs)
		}
	}
}

// --- Benchmarks: the provisioning-time Calibrate win and the score paths.

func benchRef(n, d int) []tensor.Vector {
	return randomRef(stats.NewRNG(7), n, d)
}

// BenchmarkCalibrate is provisioning's leave-one-out calibration of a
// 256-row, 4-wide Σ.
func BenchmarkCalibrate(b *testing.B) {
	ref := benchRef(256, 4)
	for i := 0; i < b.N; i++ {
		Calibrate(KNN{K: 5}, ref)
	}
}
