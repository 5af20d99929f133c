package core

import (
	"fmt"
	"math"

	"videodrift/internal/tensor"
	"videodrift/internal/vidsim"
)

// PixelsProblem reports why a pixel vector cannot be admitted against a
// model expecting w×h pixels, or "" when it is well-formed. A malformed
// vector — wrong length or a NaN/Inf component — would flow straight
// into the featurizer and the kNN scorer and could poison
// calibration-relative p-values permanently (NaN distances sort
// arbitrarily), so the admission gate rejects it before any statistical
// state is touched.
func PixelsProblem(pixels tensor.Vector, w, h int) string {
	if len(pixels) != w*h {
		return fmt.Sprintf("bad dimensions: got %d pixels, want %d×%d=%d", len(pixels), w, h, w*h)
	}
	// v-v is 0 for a finite v and NaN for NaN and ±Inf, and a NaN survives
	// a sum, so one compare clears four pixels. Only from a block that
	// tripped are pixels looked at one by one, which keeps the index
	// reported the first one's.
	i := 0
	for ; i+4 <= len(pixels); i += 4 {
		p := pixels[i : i+4 : i+4]
		if s := (p[0] - p[0]) + (p[1] - p[1]) + (p[2] - p[2]) + (p[3] - p[3]); s != s {
			break
		}
	}
	for ; i < len(pixels); i++ {
		if v := pixels[i]; math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Sprintf("non-finite pixel at index %d", i)
		}
	}
	return ""
}

// FrameProblem is PixelsProblem over a full frame: it additionally
// rejects frames whose declared geometry disagrees with the model's.
func FrameProblem(f vidsim.Frame, w, h int) string {
	if (f.W != 0 || f.H != 0) && (f.W != w || f.H != h) {
		return fmt.Sprintf("bad dimensions: frame is %d×%d, model expects %d×%d", f.W, f.H, w, h)
	}
	return PixelsProblem(f.Pixels, w, h)
}
