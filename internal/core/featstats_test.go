package core

import (
	"math"
	"testing"

	"videodrift/internal/telemetry"
	"videodrift/internal/tensor"
	"videodrift/internal/vision"
)

// featRef builds a reference sample whose dimensions have distinct,
// known distributions: dim d is centered at d with spread 0.1·(d+1).
func featRef(n, dim int) []tensor.Vector {
	ref := make([]tensor.Vector, n)
	for i := range ref {
		v := make(tensor.Vector, dim)
		for d := range v {
			// Deterministic triangle wave in [-1, 1], no RNG needed.
			frac := float64((i*(d+3))%17)/8.0 - 1
			v[d] = float64(d) + 0.1*float64(d+1)*frac
		}
		ref[i] = v
	}
	return ref
}

// TestFeatStatsAttributionRanksShiftedDim shifts exactly one dimension of
// the recent window and checks that attribution ranks it first, with the
// per-dimension statistics pointing in the right direction.
func TestFeatStatsAttributionRanksShiftedDim(t *testing.T) {
	const dim = vision.AppearanceDim
	fw := NewFeatWindowStats(featRef(120, dim))
	if fw.Attribution() != nil {
		t.Fatal("attribution before any observation")
	}

	const shifted = 2
	for i := 0; i < 40; i++ {
		v := make(tensor.Vector, dim)
		for d := range v {
			frac := float64((i*(d+5))%17)/8.0 - 1
			v[d] = float64(d) + 0.1*float64(d+1)*frac
		}
		v[shifted] += 1.5 // well outside dim 2's ±0.3 reference spread
		fw.Observe(v)
	}
	if fw.Recent() != 40 {
		t.Fatalf("recent window holds %d", fw.Recent())
	}

	attr := fw.Attribution()
	if len(attr) != dim {
		t.Fatalf("attribution covers %d dims, want %d", len(attr), dim)
	}
	top := attr[0]
	if top.Dim != shifted {
		t.Fatalf("top attribution is dim %d (%s), want shifted dim %d: %+v",
			top.Dim, top.Name, shifted, attr)
	}
	if top.Name != vision.AppearanceDimNames[shifted] {
		t.Errorf("top dim named %q, want %q", top.Name, vision.AppearanceDimNames[shifted])
	}
	if top.JS <= attr[1].JS {
		t.Errorf("shifted dim JS %v does not dominate runner-up %v", top.JS, attr[1].JS)
	}
	if top.MeanShift < 1.0 {
		t.Errorf("shifted dim mean shift %v, want ≈ 1.5", top.MeanShift)
	}
	for _, ds := range attr {
		if ds.KL < 0 || ds.JS < 0 || math.IsNaN(ds.KL) || math.IsInf(ds.KL, 0) {
			t.Errorf("dim %d divergence not finite and non-negative: %+v", ds.Dim, ds)
		}
		if ds.JS > math.Ln2+1e-12 {
			t.Errorf("dim %d JS %v exceeds ln 2", ds.Dim, ds.JS)
		}
	}
	// Ranking is JS-descending with index tiebreak.
	for i := 1; i < len(attr); i++ {
		if attr[i-1].JS < attr[i].JS {
			t.Errorf("attribution not sorted at %d: %v < %v", i, attr[i-1].JS, attr[i].JS)
		}
	}
}

// TestFeatStatsDeterministicAndRestorable checks the two properties replay
// relies on: identical observation streams yield bit-identical
// attributions, and a State/SetState round-trip through a fresh
// accumulator (rebuilt from the same reference) does too — including when
// the ring has wrapped.
func TestFeatStatsDeterministicAndRestorable(t *testing.T) {
	const dim = 4
	ref := featRef(100, dim)
	obs := make([]tensor.Vector, featRecentCap+20) // force a ring wrap
	for i := range obs {
		v := make(tensor.Vector, dim)
		for d := range v {
			v[d] = float64(d) + 0.05*float64((i*(d+7))%23) - 0.5
		}
		obs[i] = v
	}

	a, b := NewFeatWindowStats(ref), NewFeatWindowStats(ref)
	for _, v := range obs {
		a.Observe(v)
		b.Observe(v)
	}
	attrEq := func(t *testing.T, x, y []telemetry.DimShift, what string) {
		t.Helper()
		if len(x) != len(y) {
			t.Fatalf("%s: %d vs %d dims", what, len(x), len(y))
		}
		for i := range x {
			if x[i].Dim != y[i].Dim ||
				math.Float64bits(x[i].KL) != math.Float64bits(y[i].KL) ||
				math.Float64bits(x[i].JS) != math.Float64bits(y[i].JS) ||
				math.Float64bits(x[i].MeanShift) != math.Float64bits(y[i].MeanShift) ||
				math.Float64bits(x[i].VarRatio) != math.Float64bits(y[i].VarRatio) {
				t.Fatalf("%s: rank %d differs: %+v vs %+v", what, i, x[i], y[i])
			}
		}
	}
	attrEq(t, a.Attribution(), b.Attribution(), "identical streams")

	st := a.State()
	if len(st.Recent) != featRecentCap {
		t.Fatalf("state holds %d vectors, want the full ring %d", len(st.Recent), featRecentCap)
	}
	restored := NewFeatWindowStats(ref)
	restored.SetState(st)
	attrEq(t, restored.Attribution(), a.Attribution(), "state round-trip")

	// The restored ring must also evolve identically from here on.
	next := make(tensor.Vector, dim)
	for d := range next {
		next[d] = float64(d) + 0.33
	}
	a.Observe(next)
	restored.Observe(next)
	attrEq(t, restored.Attribution(), a.Attribution(), "post-restore observation")

	// Reset drops the window but keeps the reference usable.
	restored.Reset()
	if restored.Recent() != 0 || restored.Attribution() != nil {
		t.Error("Reset left recent state behind")
	}
	restored.Observe(next)
	if restored.Recent() != 1 {
		t.Error("post-Reset observation not recorded")
	}
	// Mismatched vector lengths are ignored, not folded in.
	restored.Observe(make(tensor.Vector, dim+1))
	if restored.Recent() != 1 {
		t.Error("mismatched-length vector was folded into the window")
	}
}

// TestFeatStatsStateIsImmutable pins the sharing contract of State: a
// capture is a copy of the ring as it stood — later observations neither
// show in it (it does not alias the live ring) nor in the capture after
// it (each change of the ring gets a capture of its own) — and while the
// ring stands still the same capture is handed out again at no cost,
// which is what makes the supervisor's per-frame snapshot cheap.
func TestFeatStatsStateIsImmutable(t *testing.T) {
	const dim = 4
	ref := featRef(100, dim)
	vec := func(i int) tensor.Vector {
		v := make(tensor.Vector, dim)
		for d := range v {
			v[d] = float64(d) + 0.05*float64((i*(d+7))%23) - 0.5
		}
		return v
	}
	clone := func(st FeatStatsState) [][]uint64 {
		out := make([][]uint64, len(st.Recent))
		for i, v := range st.Recent {
			for _, x := range v {
				out[i] = append(out[i], math.Float64bits(x))
			}
		}
		return out
	}
	same := func(t *testing.T, st FeatStatsState, want [][]uint64, what string) {
		t.Helper()
		got := clone(st)
		if len(got) != len(want) {
			t.Fatalf("%s: %d vectors, want %d", what, len(got), len(want))
		}
		for i := range want {
			for d := range want[i] {
				if got[i][d] != want[i][d] {
					t.Fatalf("%s: vector %d dim %d changed", what, i, d)
				}
			}
		}
	}

	fw := NewFeatWindowStats(ref)
	if st := fw.State(); st.Recent == nil || len(st.Recent) != 0 {
		t.Fatalf("empty ring: state %v, want an empty non-nil window", st.Recent)
	}
	// Before, at and past the ring's wrap.
	for _, upTo := range []int{5, featRecentCap, featRecentCap + 9} {
		for i := fw.Recent(); i < upTo; i++ {
			fw.Observe(vec(i))
		}
		before := fw.State()
		frozen := clone(before)
		attr := fw.Attribution()

		if again := fw.State(); &again.Recent[0] != &before.Recent[0] {
			t.Errorf("%d observed: two States of an unchanged ring are different captures", upTo)
		}
		if n := testing.AllocsPerRun(50, func() { fw.State() }); n != 0 {
			t.Errorf("%d observed: State of an unchanged ring allocates %.0f objects, want 0", upTo, n)
		}

		// The ring moves on; the capture does not.
		for i := 0; i < featRecentCap/2; i++ {
			fw.Observe(vec(1000 + upTo + i))
		}
		same(t, before, frozen, "a State taken before further Observes")
		after := fw.State()
		if len(after.Recent) > 0 && &after.Recent[0] == &before.Recent[0] {
			t.Errorf("%d observed: State after Observe handed out the stale capture", upTo)
		}
		frozenAfter := clone(after)

		// The old capture still restores the old window, bit for bit.
		restored := NewFeatWindowStats(ref)
		restored.SetState(before)
		got := restored.Attribution()
		if len(got) != len(attr) {
			t.Fatalf("%d observed: restored attribution has %d dims, want %d", upTo, len(got), len(attr))
		}
		for i := range attr {
			if got[i] != attr[i] {
				t.Fatalf("%d observed: State → SetState → Attribution rank %d: %+v, want %+v", upTo, i, got[i], attr[i])
			}
		}
		// Restoring reads the capture, it does not adopt it.
		restored.Observe(vec(7))
		same(t, before, frozen, "a State after SetState and Observe on the restored accumulator")

		// SetState and Reset dirty the ring like Observe does.
		fw.SetState(before)
		same(t, after, frozenAfter, "a State taken before SetState")
		same(t, fw.State(), frozen, "the State of a ring restored from a capture")
		fw.Reset()
		if st := fw.State(); len(st.Recent) != 0 {
			t.Errorf("%d observed: %d vectors in the State after Reset", upTo, len(st.Recent))
		}
		same(t, before, frozen, "a State taken before Reset")
	}
}
