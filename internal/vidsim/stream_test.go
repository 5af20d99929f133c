package vidsim_test

import (
	"math"
	"reflect"
	"testing"

	"videodrift/internal/dataset"
	"videodrift/internal/vidsim"
)

// conditions returns every sequence condition of the three Table-5
// datasets, with the frame size they are rendered at.
func conditions() (conds []vidsim.Condition, w, h int) {
	for _, ds := range dataset.All(0.01) {
		conds = append(conds, ds.Sequences...)
		w, h = ds.W, ds.H
	}
	return conds, w, h
}

// checkStream fails unless TrainingStream yields GenerateTrainingStride's
// frames, each read while it is lent: pixels bit for bit, Truth, Index,
// Condition and geometry.
func checkStream(t *testing.T, cond vidsim.Condition, w, h, n, stride int, seed int64) {
	t.Helper()
	want := vidsim.GenerateTrainingStride(cond, w, h, n, stride, seed)
	i := 0
	for f := range vidsim.TrainingStream(cond, w, h, n, stride, seed) {
		if i >= len(want) {
			t.Fatalf("%s stride %d: the stream yielded more than %d frames", cond.Name, stride, n)
		}
		g := want[i]
		if f.Index != g.Index || f.W != g.W || f.H != g.H || f.Condition != g.Condition {
			t.Fatalf("%s stride %d frame %d: header %d %dx%d %q, want %d %dx%d %q", cond.Name, stride, i,
				f.Index, f.W, f.H, f.Condition, g.Index, g.W, g.H, g.Condition)
		}
		if len(f.Pixels) != len(g.Pixels) {
			t.Fatalf("%s stride %d frame %d: %d pixels, want %d", cond.Name, stride, i, len(f.Pixels), len(g.Pixels))
		}
		for k, p := range f.Pixels {
			if math.Float64bits(p) != math.Float64bits(g.Pixels[k]) {
				t.Fatalf("%s stride %d frame %d: pixel %d is %v, want %v", cond.Name, stride, i, k, p, g.Pixels[k])
			}
		}
		if !reflect.DeepEqual(f.Truth, g.Truth) {
			t.Fatalf("%s stride %d frame %d: Truth differs", cond.Name, stride, i)
		}
		i++
	}
	if i != len(want) {
		t.Fatalf("%s stride %d: the stream yielded %d frames, want %d", cond.Name, stride, i, len(want))
	}
}

// TestTrainingStreamMatchesGenerate: the stream provisioning walks is
// the clip GenerateTrainingStride renders, for every dataset condition
// (rain and snow draw their weather with Intn) at the consecutive, the
// default and an odd stride.
func TestTrainingStreamMatchesGenerate(t *testing.T) {
	conds, w, h := conditions()
	for i, c := range conds {
		for _, stride := range []int{1, vidsim.TrainingStride, 7} {
			checkStream(t, c, w, h, 24, stride, int64(100+i))
		}
	}
}

// TestTrainingStreamStops: a consumer that stops early is not yielded to
// again.
func TestTrainingStreamStops(t *testing.T) {
	n := 0
	for range vidsim.TrainingStream(vidsim.Day(), 8, 8, 10, 3, 1) {
		if n++; n == 4 {
			break
		}
	}
	if n != 4 {
		t.Fatalf("stopped after %d frames, want 4", n)
	}
}

func FuzzTrainingStream(f *testing.F) {
	f.Add(uint8(1), int64(7), uint8(5), uint8(20))
	f.Add(uint8(2), int64(-3), uint8(1), uint8(1))
	f.Add(uint8(11), int64(1<<40), uint8(8), uint8(0))
	conds, w, h := conditions()
	f.Fuzz(func(t *testing.T, cond uint8, seed int64, stride, n uint8) {
		checkStream(t, conds[int(cond)%len(conds)], w, h, int(n%21), int(stride%9), seed)
	})
}
