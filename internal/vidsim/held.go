package vidsim

import (
	"iter"
	"math"
	"slices"

	"videodrift/internal/tensor"
)

// Held is a frame a holder keeps past the call that lent it (see Frame):
// position, geometry and a copy of the pixels at the precision the frame
// carries. A frame off the wire arrived as float32, so every pixel
// survives float64→float32→float64 bit for bit and the copy is a
// []float32, half the bytes of the frame's float64 pixels. A frame with
// any pixel that would not survive (a full-precision rendered frame, a
// NaN payload float32 cannot carry, a float64-only subnormal) keeps a
// float64 copy instead. Either way PixelsInto hands back exactly the bits
// Keep was given.
//
// The copy is immutable: every list a holder keeps the frame in shares
// the one pixel array, and delta checkpoints (internal/store) identify a
// held frame by that array (ID).
type Held struct {
	Index int
	W, H  int
	px32  []float32 // the pixels, when every one is exactly a float32
	px64  []float64 // otherwise, a full-precision copy
}

// HeldID identifies a held frame's pixel array: equal IDs of non-empty
// frames mean the same array. The zero HeldID is an empty frame's.
type HeldID struct {
	p32 *float32
	p64 *float64
}

// Keep returns f's position, geometry and a copy of its pixels, and
// nothing else: what a holder keeps of a borrowed frame. The copy is
// float32 when that is exact for every pixel, compared bit for bit.
func (f Frame) Keep() Held {
	h := Held{Index: f.Index, W: f.W, H: f.H}
	if !narrowable(f.Pixels) {
		h.px64 = slices.Clone(f.Pixels)
		return h
	}
	if len(f.Pixels) > 0 {
		h.px32 = make([]float32, len(f.Pixels))
		for i, p := range f.Pixels {
			h.px32[i] = float32(p)
		}
	}
	return h
}

// narrowable reports whether every pixel survives a round trip through
// float32 with all 64 bits intact.
func narrowable(px []float64) bool {
	for _, p := range px {
		if math.Float64bits(float64(float32(p))) != math.Float64bits(p) {
			return false
		}
	}
	return true
}

// KeepAll keeps every frame of frames.
func KeepAll(frames []Frame) []Held {
	out := make([]Held, len(frames))
	for i, f := range frames {
		out[i] = f.Keep()
	}
	return out
}

// Len returns the number of pixels.
func (h Held) Len() int { return len(h.px32) + len(h.px64) }

// Bytes returns the bytes the pixel copy occupies: 4 a pixel held as
// float32, 8 otherwise.
func (h Held) Bytes() int { return 4*len(h.px32) + 8*len(h.px64) }

// ID returns the identity of h's pixel array.
func (h Held) ID() HeldID {
	var id HeldID
	if len(h.px32) > 0 {
		id.p32 = &h.px32[0]
	}
	if len(h.px64) > 0 {
		id.p64 = &h.px64[0]
	}
	return id
}

// PixelsInto writes h's pixels, widened to float64, into dst's storage
// (grown when it is short) and returns them. dst never aliases h.
func (h Held) PixelsInto(dst tensor.Vector) tensor.Vector {
	dst = slices.Grow(dst[:0], h.Len())[:h.Len()]
	if h.px64 != nil {
		copy(dst, h.px64)
		return dst
	}
	for i, p := range h.px32 {
		dst[i] = float64(p)
	}
	return dst
}

// Frame returns h as a frame whose pixels are widened into buf's storage
// (see PixelsInto): a borrowed frame, valid until buf is next written.
func (h Held) Frame(buf tensor.Vector) Frame {
	return Frame{Index: h.Index, W: h.W, H: h.H, Pixels: h.PixelsInto(buf)}
}

// Lend yields the held frames in order, each widened into one reused
// buffer: borrowed frames, valid until the next, as Provision takes them.
func Lend(held []Held) iter.Seq[Frame] {
	return func(yield func(Frame) bool) {
		var buf tensor.Vector
		for _, h := range held {
			f := h.Frame(buf)
			buf = f.Pixels
			if !yield(f) {
				return
			}
		}
	}
}
