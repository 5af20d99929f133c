// Package detect implements the object detectors that stand in for the
// paper's Mask R-CNN and YOLOv7 (see DESIGN.md §2).
//
// Both are real sliding-window contrast detectors over pixels — template
// windows are scored by the interior's contrast against the frame's
// background estimate with a heterogeneity penalty, thresholded adaptively
// against the frame's noise level, and reduced by non-maximum suppression.
// They differ only in search density:
//
//   - NewMaskRCNNSim: stride-1 search over four scales per class plus a
//     refinement pass — slow and accurate, the annotator that defines
//     ground-truth labels (so, as in the paper, its query accuracy is 1.0
//     by construction);
//   - NewYOLOSim: stride-2 search over two scales, no refinement — faster
//     and less accurate, the drift-oblivious fast baseline.
//
// Both skip the windows that summed-area tables prove cannot pass
// (cannotPass) and score the rest exactly as an exhaustive scan does, so
// the output is that scan's, bit for bit. The cost difference between
// the two is real CPU work, not sleeps, so the end-to-end time
// comparisons of Table 9 are measured honestly.
package detect

import (
	"math"
	"sort"
	"sync"

	"videodrift/internal/vidsim"
)

// Detection is one detected object in frame pixel coordinates (box center
// + extents, like vidsim.Object).
type Detection struct {
	Class vidsim.Class
	X, Y  float64
	W, H  float64
	Score float64
}

// Detector locates objects in a frame.
type Detector interface {
	// Name identifies the detector in experiment output.
	Name() string
	// Detect returns the objects found in f, in descending score order.
	Detect(f vidsim.Frame) []Detection
}

// Config controls a sliding-window detector's search density and
// post-processing.
type Config struct {
	Stride     int       // window placement stride (1 = dense)
	Scales     []float64 // template scale multipliers
	Overlap    float64   // NMS overlap-over-min suppression threshold
	MaxKeep    int       // candidate cap before NMS
	Refine     bool      // run the box-refinement ("mask head") pass
	ScoreFloor float64   // minimum absolute contrast
	NoiseMult  float64   // threshold = max(ScoreFloor, NoiseMult·sigma)
}

// template is a class-conditioned base window shape (pre-scale).
type template struct {
	class vidsim.Class
	w, h  int
}

// SlidingWindowDetector is the shared implementation behind the Mask R-CNN
// and YOLO simulators.
type SlidingWindowDetector struct {
	name      string
	cfg       Config
	templates []template
}

// NewMaskRCNNSim returns the dense, refined detector playing the paper's
// Mask R-CNN role (annotator + slow accurate baseline).
func NewMaskRCNNSim() *SlidingWindowDetector {
	return &SlidingWindowDetector{
		name: "maskrcnn-sim",
		cfg: Config{
			Stride: 1, Scales: []float64{0.55, 0.7, 0.85, 1.0, 1.2, 1.4},
			Overlap: 0.3, MaxKeep: 400, Refine: true,
			ScoreFloor: 0.12, NoiseMult: 3.0,
		},
		templates: []template{{vidsim.Car, 5, 3}, {vidsim.Bus, 8, 4}},
	}
}

// NewYOLOSim returns the coarse single-pass detector playing the paper's
// YOLOv7 role (fast, drift-oblivious, less accurate).
func NewYOLOSim() *SlidingWindowDetector {
	return &SlidingWindowDetector{
		name: "yolo-sim",
		cfg: Config{
			Stride: 2, Scales: []float64{0.9, 1.3},
			Overlap: 0.5, MaxKeep: 150, Refine: false,
			ScoreFloor: 0.15, NoiseMult: 4.0,
		},
		templates: []template{{vidsim.Car, 5, 3}, {vidsim.Bus, 8, 4}},
	}
}

// Name implements Detector.
func (d *SlidingWindowDetector) Name() string { return d.name }

// scratch is one Detect call's working storage: the candidate list and
// the background sample with its sorted copy. One detector serves many
// goroutines (set-up labels its sequences concurrently), so a call takes
// its scratch from scratchPool and hands it back, and labelling a frame
// leaves nothing behind but the detections it returns.
type scratch struct {
	cands          []Detection
	sample, sorted []float64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// Detect implements Detector.
func (d *SlidingWindowDetector) Detect(f vidsim.Frame) []Detection {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	bg, sigma := s.backgroundEstimate(f)
	tau := math.Max(d.cfg.ScoreFloor, d.cfg.NoiseMult*sigma)

	var (
		cands = s.cands[:0]
		buf   [2 * 33 * 33]float64 // room for a 32×32 frame's tables
		tab   integrals            // built at the first template that fits
	)
	for _, t := range d.templates {
		for _, s := range d.cfg.Scales {
			w := int(math.Round(float64(t.w) * s))
			h := int(math.Round(float64(t.h) * s))
			if w < 2 || h < 2 || w >= f.W-2 || h >= f.H-2 {
				continue
			}
			if tab.sum == nil {
				tab = integralsOf(f, buf[:])
			}
			// Rank = (contrast − 1.5·interior std)·sqrt(area): among windows
			// over the same object, the largest fully covered template wins
			// (which is what assigns the right class — a car template
			// strictly inside a bus scores the same contrast but a smaller
			// rank), while the heterogeneity penalty stops a big template
			// from swallowing a whole cluster of adjacent objects (a
			// cluster window mixes object and background pixels and has a
			// large interior spread; a true single object is uniform).
			areaW := math.Sqrt(float64(w * h))
			for y := 1; y+h < f.H-1; y += d.cfg.Stride {
				for x := 1; x+w < f.W-1; x += d.cfg.Stride {
					if tab.cannotPass(x, y, w, h, bg, tau) {
						continue
					}
					mean, std := windowStats(f, x, y, w, h)
					contrast := math.Abs(mean-bg) - 1.5*std
					if contrast > tau {
						cands = append(cands, Detection{
							Class: t.class,
							X:     float64(x) + float64(w)/2,
							Y:     float64(y) + float64(h)/2,
							W:     float64(w), H: float64(h),
							Score: contrast * areaW,
						})
					}
				}
			}
		}
	}
	s.cands = cands
	return d.finish(f, cands)
}

// finish ranks the candidate windows, caps them, suppresses overlaps and,
// for the refined detector, re-centers what is kept.
func (d *SlidingWindowDetector) finish(f vidsim.Frame, cands []Detection) []Detection {
	sort.Slice(cands, func(i, j int) bool { return cands[i].Score > cands[j].Score })
	if len(cands) > d.cfg.MaxKeep {
		cands = cands[:d.cfg.MaxKeep]
	}
	kept := nms(cands, d.cfg.Overlap)
	if d.cfg.Refine {
		for i := range kept {
			kept[i] = refine(f, kept[i])
		}
	}
	return kept
}

// integrals holds a frame's summed-area tables of p and p², from which
// cannotPass bounds a window's contrast in constant time. One detector
// serves many goroutines (set-up labels its sequences concurrently), so
// the tables are each call's own, on its stack for the datasets' frames.
type integrals struct {
	stride     int       // W+1
	sum, sumSq []float64 // (W+1)·(H+1) entries; row 0 and column 0 are zero
	slack      float64   // bound on |table window sum − windowStats' sum|
	slackSq    float64   // the same for the sums of squares
}

// integralsOf builds the tables for f in buf, or in a new slice when buf
// is too small. Entry (y, x) is the sum over rows < y of each row's
// prefix sum up to column x, so it carries at most x+y roundings of the
// frame's absolute mass A = Σ|p|; a window's four-lookup difference adds
// three more of at most 4A, and windowStats' own sum at most w·h−1 of A.
// The slack, (W·H + 4(W+H) + 16)·2⁻⁵² times the mass, covers all of them
// twice over (2⁻⁵² is twice the unit roundoff); the squares' mass gets an
// absolute term for squares that underflow. A frame holding a NaN or an
// infinity has a non-finite slack, and no bound built from it passes
// cannotPass's test.
func integralsOf(f vidsim.Frame, buf []float64) integrals {
	stride := f.W + 1
	n := stride * (f.H + 1)
	if len(buf) < 2*n {
		buf = make([]float64, 2*n)
	}
	t := integrals{stride: stride, sum: buf[:n], sumSq: buf[n : 2*n]}
	clear(t.sum[:t.stride])
	clear(t.sumSq[:t.stride])
	mass, massSq := 0.0, 0.0
	for y := 0; y < f.H; y++ {
		row := f.Pixels[y*f.W : y*f.W+f.W]
		above, at := y*t.stride, (y+1)*t.stride
		t.sum[at], t.sumSq[at] = 0, 0
		run, runSq := 0.0, 0.0
		for x, p := range row {
			q := float64(p * p)
			run += p
			runSq += q
			mass += math.Abs(p)
			massSq += q
			t.sum[at+x+1] = t.sum[above+x+1] + run
			t.sumSq[at+x+1] = t.sumSq[above+x+1] + runSq
		}
	}
	k := float64(f.W*f.H+4*(f.W+f.H)+16) * 0x1p-52
	t.slack = k * mass
	t.slackSq = k * (massSq + 0x1p-1020)
	return t
}

// cannotPass reports whether windowStats' contrast for the w×h window at
// (x, y), |mean − bg| − 1.5·std, is provably at most tau, so the window
// cannot become a candidate. It bounds every value windowStats and Detect
// compute rather than the exact real ones: the tables and the slack give
// an interval holding windowStats' floating-point sum (and sum of
// squares), and each later step is a rounded operation monotone in its
// inputs, so applying it to an interval's ends bounds the computed value.
// The last comparison allows 16 roundings of slack because Detect's
// final subtraction may be fused with its product (the conversion keeps
// this one unfused), which rounds 1.5·std differently.
// NaN anywhere makes the bound NaN, which never proves anything.
func (t *integrals) cannotPass(x, y, w, h int, bg, tau float64) bool {
	top, bot := y*t.stride+x, (y+h)*t.stride+x
	s := t.sum[bot+w] - t.sum[top+w] - t.sum[bot] + t.sum[top]
	n := float64(w * h)
	lo, hi := (s-t.slack)/n, (s+t.slack)/n
	dev := max(math.Abs(lo-bg), math.Abs(hi-bg)) // ≥ |mean − bg|
	if dev < tau {
		return true // std ≥ 0, so the contrast is at most |mean − bg|
	}
	sq := t.sumSq[bot+w] - t.sumSq[top+w] - t.sumSq[bot] + t.sumSq[top]
	m := max(math.Abs(lo), math.Abs(hi))
	// mean·mean, rounded or fused, is at most m²(1+2⁻⁵⁰) plus an
	// underflow's worth; the conversion keeps the subtraction unfused.
	v := (sq-t.slackSq)/n - float64(m*m*(1+0x1p-50)+0x1p-1020) // ≤ variance
	std := 0.0
	if v > 0 {
		std = math.Sqrt(v)
	}
	c := dev - float64(1.5*std)
	return c+0x1p-49*(dev+1.5*std) < tau
}

// windowStats returns the mean and standard deviation of the w×h window
// at (x, y).
func windowStats(f vidsim.Frame, x, y, w, h int) (mean, std float64) {
	sum, sumSq := 0.0, 0.0
	for yy := y; yy < y+h; yy++ {
		row := f.Pixels[yy*f.W : yy*f.W+f.W]
		for xx := x; xx < x+w; xx++ {
			p := row[xx]
			sum += p
			sumSq += p * p
		}
	}
	n := float64(w * h)
	mean = sum / n
	variance := sumSq/n - mean*mean
	if variance > 0 {
		std = math.Sqrt(variance)
	}
	return mean, std
}

// backgroundEstimate returns a robust estimate of the frame's background
// intensity (median) and pixel noise (scaled median absolute deviation)
// from a subsample of pixels. Objects cover a minority of the frame, so
// the median sits on the background.
func backgroundEstimate(f vidsim.Frame) (bg, sigma float64) {
	return new(scratch).backgroundEstimate(f)
}

// backgroundEstimate is the package function's estimate, computed in s's
// sample and sorted buffers.
func (s *scratch) backgroundEstimate(f vidsim.Frame) (bg, sigma float64) {
	const stride = 7
	sample := s.sample[:0]
	for i := 0; i < len(f.Pixels); i += stride {
		sample = append(sample, f.Pixels[i])
	}
	s.sample = sample
	med := s.median(sample)
	for i, v := range sample {
		sample[i] = math.Abs(v - med)
	}
	return med, 1.4826 * s.median(sample)
}

func median(xs []float64) float64 { return new(scratch).median(xs) }

// median returns the median of xs, sorting a copy of them in s.sorted.
func (s *scratch) median(xs []float64) float64 {
	sorted := append(s.sorted[:0], xs...)
	s.sorted = sorted
	sort.Float64s(sorted)
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// nms performs greedy non-maximum suppression on score-sorted candidates.
// A candidate is suppressed when its overlap-over-min-area with a kept
// detection exceeds ovMax: dense contrast scans produce high-scoring
// partial and sub-windows all over each object, and overlap-over-min
// collapses those to one box per object while letting genuinely distinct
// objects that merely touch survive.
func nms(cands []Detection, ovMax float64) []Detection {
	var kept []Detection
	for _, c := range cands {
		ok := true
		for _, k := range kept {
			if overlapOverMin(c, k) > ovMax || nearCenters(c, k) {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, c)
		}
	}
	return kept
}

// nearCenters reports whether two detections' centers are within 80% of
// their combined half-extents — the halo-window case: a low-score window
// hanging off the edge of an object that a pure overlap test lets through.
// Distinct objects whose boxes merely touch have center distance at least
// the full combined half-extent and survive.
func nearCenters(a, b Detection) bool {
	return math.Abs(a.X-b.X) < 0.8*(a.W+b.W)/2 && math.Abs(a.Y-b.Y) < 0.8*(a.H+b.H)/2
}

// overlapOverMin returns intersection area divided by the smaller box's
// area (1 when one box contains the other).
func overlapOverMin(a, b Detection) float64 {
	ix := math.Max(0, math.Min(a.X+a.W/2, b.X+b.W/2)-math.Max(a.X-a.W/2, b.X-b.W/2))
	iy := math.Max(0, math.Min(a.Y+a.H/2, b.Y+b.H/2)-math.Max(a.Y-a.H/2, b.Y-b.H/2))
	minArea := math.Min(a.W*a.H, b.W*b.H)
	if minArea <= 0 {
		return 0
	}
	return ix * iy / minArea
}

// refine is the "mask head": it re-centers a detection on the local
// intensity mass within a slightly expanded window, tightening boxes that
// the discrete grid placed a pixel off.
func refine(f vidsim.Frame, d Detection) Detection {
	x0 := int(math.Max(d.X-d.W/2-1, 0))
	x1 := int(math.Min(d.X+d.W/2+1, float64(f.W-1)))
	y0 := int(math.Max(d.Y-d.H/2-1, 0))
	y1 := int(math.Min(d.Y+d.H/2+1, float64(f.H-1)))
	// The object is the intensity mode inside the window; weight pixels by
	// their deviation from the window's edge intensity.
	edge := (f.At(x0, y0) + f.At(x1, y0) + f.At(x0, y1) + f.At(x1, y1)) / 4
	var sw, sx, sy float64
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			w := math.Abs(f.At(x, y) - edge)
			sw += w
			sx += w * float64(x)
			sy += w * float64(y)
		}
	}
	if sw > 0 {
		// Clamp the correction to one pixel: the expanded window may touch
		// a neighbouring object in crowded scenes, and an unbounded
		// centroid would drag the box onto it.
		d.X += math.Max(-1, math.Min(1, sx/sw+0.5-d.X))
		d.Y += math.Max(-1, math.Min(1, sy/sw+0.5-d.Y))
	}
	return d
}

// CountClass returns the number of detections of class c.
func CountClass(dets []Detection, c vidsim.Class) int {
	n := 0
	for _, d := range dets {
		if d.Class == c {
			n++
		}
	}
	return n
}
