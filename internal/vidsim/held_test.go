package vidsim

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"
)

// sameBits reports whether got holds want's pixels bit for bit.
func sameBits(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return false
		}
	}
	return true
}

// TestKeepIsBitExact keeps frames whose pixels float32 can and cannot
// carry, and holds every widened pixel to the original's bits: the
// compact form is taken exactly when it loses nothing.
func TestKeepIsBitExact(t *testing.T) {
	rendered := GenerateTraining(Day(), 16, 16, 1, 3)[0].Pixels
	wire := make([]float64, len(rendered))
	for i, p := range rendered {
		wire[i] = float64(float32(p))
	}
	nan := func(bits uint64) float64 { return math.Float64frombits(bits) }
	for _, c := range []struct {
		name    string
		pixels  []float64
		compact bool
	}{
		{"wire-quantized", wire, true},
		{"full-precision", rendered, false},
		{"float32's quiet NaN", []float64{0.5, float64(float32(math.NaN())), 0.25}, true},
		{"math.NaN, whose low payload bit float32 drops", []float64{0.5, math.NaN(), 0.25}, false},
		{"NaN with a payload", []float64{0.5, nan(0x7ff8000000000123), 0.25}, false},
		{"signalling NaN", []float64{nan(0x7ff0000000000001)}, false},
		{"signed zeros and infinities", []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1)}, true},
		{"float32 subnormal", []float64{float64(math.SmallestNonzeroFloat32), -3 * float64(math.SmallestNonzeroFloat32)}, true},
		{"float64-only subnormal", []float64{0.5, math.SmallestNonzeroFloat64}, false},
		{"past float32's range", []float64{math.MaxFloat64}, false},
		{"empty", nil, false},
	} {
		f := Frame{Index: 7, W: len(c.pixels), H: 1, Pixels: c.pixels, Truth: []Object{{}}, Condition: "day"}
		h := f.Keep()
		if h.Index != 7 || h.W != len(c.pixels) || h.H != 1 || h.Len() != len(c.pixels) {
			t.Errorf("%s: kept %+v of frame 7, %d×1", c.name, h, len(c.pixels))
		}
		if (h.px32 != nil) != c.compact {
			t.Errorf("%s: compact %v, want %v", c.name, h.px32 != nil, c.compact)
		}
		// Widen into a buffer that is too short, then into one too long
		// and dirty: PixelsInto owns the length either way.
		for _, buf := range [][]float64{make([]float64, 1), make([]float64, len(c.pixels)+3)} {
			for i := range buf {
				buf[i] = -1
			}
			if got := h.PixelsInto(buf); !sameBits(got, c.pixels) {
				t.Errorf("%s: widened to %v, kept %v", c.name, got, c.pixels)
			}
		}
		if g := h.Frame(nil); g.Index != 7 || g.Truth != nil || g.Condition != "" || !sameBits(g.Pixels, c.pixels) {
			t.Errorf("%s: Frame returned %+v", c.name, g)
		}
	}
}

// TestKeepCopies: a held frame shares nothing with the frame it kept or
// the buffers it is widened into.
func TestKeepCopies(t *testing.T) {
	for _, px := range [][]float64{{0.5, 0.25}, {0.1, 0.2}} {
		f := Frame{W: 2, H: 1, Pixels: px}
		h := f.Keep()
		want := append([]float64(nil), px...)
		px[0] = math.NaN()
		buf := h.PixelsInto(nil)
		buf[1] = math.NaN()
		if got := h.PixelsInto(nil); !sameBits(got, want) {
			t.Errorf("compact %v: a write to the lent or widened pixels reached the held frame: %v", h.px32 != nil, got)
		}
		if h.ID() == (HeldID{}) || h.ID() != h.ID() || h.ID() == f.Keep().ID() {
			t.Errorf("compact %v: a held frame's ID does not name its own array", h.px32 != nil)
		}
	}
	if (Frame{}).Keep().ID() != (HeldID{}) {
		t.Error("an empty frame's ID is not the zero ID")
	}
}

// TestLend widens every held frame, in order, into one reused buffer.
func TestLend(t *testing.T) {
	frames := GenerateTraining(Night(), 8, 8, 5, 4)
	held := KeepAll(frames)
	var first *float64
	i := 0
	for f := range Lend(held) {
		if f.Index != frames[i].Index || !sameBits(f.Pixels, frames[i].Pixels) {
			t.Fatalf("frame %d lent unlike the one kept", i)
		}
		if i == 0 {
			first = &f.Pixels[0]
		} else if &f.Pixels[0] != first {
			t.Fatalf("frame %d lent in a buffer of its own", i)
		}
		i++
	}
	if i != len(frames) {
		t.Fatalf("lent %d frames of %d", i, len(frames))
	}
}

// heldBytes sums the bytes of every slice a held frame reaches,
// unexported fields included.
func heldBytes(h Held) int {
	n := 0
	v := reflect.ValueOf(h)
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Slice {
			n += f.Len() * int(f.Type().Elem().Size())
		}
	}
	return n
}

// TestHeldFootprint pins what a held frame costs: a frame off the wire
// was float32 and is held at its wire bytes, 4 B a pixel; only a frame
// float32 cannot carry is held at 8.
func TestHeldFootprint(t *testing.T) {
	rendered := GenerateTraining(Angle(2, 17, -1), 32, 32, 1, 5)[0]
	wire := rendered.Clone()
	for i, p := range wire.Pixels {
		wire.Pixels[i] = float64(float32(p))
	}
	n := len(rendered.Pixels)
	for name, c := range map[string]struct {
		f    Frame
		want int
	}{
		"wire frame":           {wire, 4 * n},
		"full-precision frame": {rendered, 8 * n},
	} {
		h := c.f.Keep()
		if got := heldBytes(h); got != c.want || h.Bytes() != c.want {
			t.Errorf("%s of %d pixels: holds %d bytes (Bytes says %d), want %d", name, n, got, h.Bytes(), c.want)
		}
	}
}

// FuzzKeep holds Keep to its contract on arbitrary 8-byte pixel patterns:
// every pixel widens back bit for bit, and the compact form is used
// exactly when every pixel survives float32.
func FuzzKeep(f *testing.F) {
	le := binary.LittleEndian
	for _, seed := range [][]float64{
		{0.5, 0.25},
		{0.1},
		{math.NaN(), math.Inf(-1), math.Copysign(0, -1)},
		{math.SmallestNonzeroFloat64, float64(math.SmallestNonzeroFloat32)},
	} {
		var b []byte
		for _, p := range seed {
			b = le.AppendUint64(b, math.Float64bits(p))
		}
		f.Add(b)
	}
	f.Add(le.AppendUint64(nil, 0x7ff8000000000123)) // a NaN payload
	f.Fuzz(func(t *testing.T, data []byte) {
		px := make([]float64, len(data)/8)
		exact := true
		for i := range px {
			px[i] = math.Float64frombits(le.Uint64(data[8*i:]))
			exact = exact && math.Float64bits(float64(float32(px[i]))) == math.Float64bits(px[i])
		}
		h := Frame{Index: len(px), W: len(px), H: 1, Pixels: px}.Keep()
		if got := h.PixelsInto(nil); !sameBits(got, px) {
			t.Fatalf("%x kept and widened to %x", px, got)
		}
		compact, want := len(px) > 0 && exact, 8*len(px)
		if compact {
			want = 4 * len(px)
		}
		if (h.px32 != nil) != compact || h.Bytes() != want {
			t.Fatalf("%d pixels, float32-exact %v: compact %v in %d bytes", len(px), exact, h.px32 != nil, h.Bytes())
		}
	})
}
