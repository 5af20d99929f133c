package core

import (
	"fmt"
	"math"
	"testing"

	"videodrift/internal/tensor"
)

// pixelsProblemReference is PixelsProblem as it was before the blocked
// scan: one IsNaN and one IsInf per pixel. The blocked scan must answer
// every input with the same string.
func pixelsProblemReference(pixels tensor.Vector, w, h int) string {
	if len(pixels) != w*h {
		return fmt.Sprintf("bad dimensions: got %d pixels, want %d×%d=%d", len(pixels), w, h, w*h)
	}
	for i, v := range pixels {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Sprintf("non-finite pixel at index %d", i)
		}
	}
	return ""
}

func TestPixelsProblemMatchesReference(t *testing.T) {
	check := func(what string, p tensor.Vector, w, h int) {
		t.Helper()
		if got, want := PixelsProblem(p, w, h), pixelsProblemReference(p, w, h); got != want {
			t.Fatalf("%s: PixelsProblem = %q, reference = %q", what, got, want)
		}
	}
	bad := []float64{
		math.NaN(),
		math.Float64frombits(0x7FF0000000000001), // signalling NaN with a payload
		math.Float64frombits(0xFFF8DEADBEEF0001), // negative quiet NaN with a payload
		math.Inf(1),
		math.Inf(-1),
	}
	// Values that are finite and must pass, the extremes included.
	fine := []float64{0, math.Copysign(0, -1), 0.5, -0.5, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000FFFFFFFFFFFFF), math.MaxFloat64, -math.MaxFloat64}
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1024} {
		p := make(tensor.Vector, n)
		for i := range p {
			p[i] = fine[i%len(fine)]
		}
		check(fmt.Sprintf("n=%d finite", n), p, n, 1)
		if got := PixelsProblem(p, n, 1); got != "" {
			t.Fatalf("n=%d: finite pixels rejected: %s", n, got)
		}
		check(fmt.Sprintf("n=%d wrong geometry", n), p, n+1, 1)
		for i := 0; i < n; i++ {
			for _, b := range bad {
				keep := p[i]
				p[i] = b
				check(fmt.Sprintf("n=%d bad[%d]=%x", n, i, math.Float64bits(b)), p, n, 1)
				// A second bad pixel later in the same block, and one in a
				// later block, must not move the index reported.
				for _, j := range []int{i + 1, i + 4} {
					if j < n {
						keep2 := p[j]
						p[j] = math.Inf(1)
						check(fmt.Sprintf("n=%d bad[%d] and bad[%d]", n, i, j), p, n, 1)
						p[j] = keep2
					}
				}
				p[i] = keep
			}
		}
	}
	// +Inf and −Inf in one block must not cancel.
	check("+Inf,-Inf", tensor.Vector{math.Inf(1), math.Inf(-1), 0, 0}, 4, 1)
	check("MaxFloat64 pair", tensor.Vector{math.MaxFloat64, math.MaxFloat64, -math.MaxFloat64, -math.MaxFloat64}, 2, 2)
}

var pixelsProblemSink string

func BenchmarkPixelsProblem(b *testing.B) {
	p := make(tensor.Vector, 1024)
	for i := range p {
		p[i] = float64(i%251) / 251
	}
	for _, tc := range []struct {
		name string
		fn   func(tensor.Vector, int, int) string
	}{{"blocked", PixelsProblem}, {"reference", pixelsProblemReference}} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pixelsProblemSink = tc.fn(p, 32, 32)
			}
		})
	}
}
