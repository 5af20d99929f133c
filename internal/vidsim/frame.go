package vidsim

import (
	"slices"

	"videodrift/internal/tensor"
)

// Class labels the two object categories the paper's queries reference.
type Class int

// Object classes.
const (
	Car Class = iota
	Bus
)

// String returns the class name.
func (c Class) String() string {
	if c == Bus {
		return "bus"
	}
	return "car"
}

// Object is one rendered scene object with its ground-truth geometry.
// Coordinates are pixel-space centers; W and H are full extents.
type Object struct {
	Class     Class
	X, Y      float64
	W, H      float64
	Intensity float64
}

// Left returns the left edge of the object's bounding box.
func (o Object) Left() float64 { return o.X - o.W/2 }

// Right returns the right edge of the object's bounding box.
func (o Object) Right() float64 { return o.X + o.W/2 }

// Top returns the top edge of the object's bounding box.
func (o Object) Top() float64 { return o.Y - o.H/2 }

// Bottom returns the bottom edge of the object's bounding box.
func (o Object) Bottom() float64 { return o.Y + o.H/2 }

// Frame is one rendered video frame. Pixels is a row-major W×H grayscale
// image flattened to [0,1] values — the "multidimensional vector" of the
// paper's problem statement. Truth carries the generator's ground-truth
// scene state; production code paths never read it (annotation goes
// through detect.Oracle, mirroring the paper where Mask R-CNN output
// defines ground truth), but tests and the drift-point bookkeeping do.
//
// A frame handed to a pipeline is borrowed: Process reads it during the
// call and the caller may reuse its arrays once the call returns (the
// ingestion tier recycles its pixel buffers that way). The two holders
// that keep a frame past Process — the pipeline's selection/training
// buffer and the forensics pre-roll — Keep it once, when they keep it, as
// a Held: a holder keeps position and pixels, never the generator's
// labels, so an in-process feed, a wire feed and a restore leave the same
// frames. The held copy is immutable from then on: every list a holder
// keeps it in (the pre-roll, the declarations cut from it, the snapshots
// and checkpoints) holds a copy of the header over the SAME pixel array,
// and delta checkpoints (internal/store) identify a held frame by that
// array to ship it to a standby once.
type Frame struct {
	Index     int
	W, H      int
	Pixels    tensor.Vector
	Truth     []Object
	Condition string
}

// Clone returns f over arrays of its own, labels included: what a
// dataset collects of a rendered frame.
func (f Frame) Clone() Frame {
	f.Pixels = slices.Clone(f.Pixels)
	f.Truth = slices.Clone(f.Truth)
	return f
}

// At returns the pixel value at column x, row y.
func (f *Frame) At(x, y int) float64 { return f.Pixels[y*f.W+x] }

// CountClass returns the number of ground-truth objects of class c whose
// center lies inside the frame.
func (f *Frame) CountClass(c Class) int {
	n := 0
	for _, o := range f.Truth {
		if o.Class == c && o.X >= 0 && o.X < float64(f.W) && o.Y >= 0 && o.Y < float64(f.H) {
			n++
		}
	}
	return n
}
