// Package vision holds the frame feature extractors shared by the drift
// detector and the query classifiers — the hand-rolled stand-in for the
// convolutional feature hierarchies the paper's models learn (DESIGN.md
// §2). Two views of a frame are exposed:
//
//   - Featurize: count-invariant appearance statistics, which the Drift
//     Inspector's non-conformity measure runs on;
//   - QueryFeatures: count-sensitive occupancy statistics, which the
//     count/spatial query classifiers and MSBO ensembles run on.
package vision

import (
	"math"
	"reflect"
	"slices"

	"videodrift/internal/tensor"
)

// Featurize summarizes a w×h frame into the count-invariant appearance
// vector the Drift Inspector's non-conformity measure operates on:
//
//	[bg level, noise scale, dark-object intensity, bright-object/weather
//	 intensity]
//
// All four are robust statistics of the pixel distribution: median,
// scaled MAD, and the presence-weighted medians of the dark and bright
// outlier pools.
//
// Every component is chosen to be invariant both to how MANY objects are
// in the frame and to WHERE they currently sit: traffic volume fluctuates
// constantly within a condition (bursts and lulls last dozens of frames)
// and a given arrangement of objects persists for the objects' lifetimes,
// so any count- or configuration-sensitive statistic — raw pixels,
// intensity histograms, per-band object shares — hands the martingale
// long runs of small p-values and fakes drifts. What the components do
// move under is exactly what the datasets' drifts change: background
// brightness (day/night), noise and bright speckle texture (rain/snow),
// object appearance (camera angles, which in these datasets always shift
// background and vehicle contrast along with the geometry).
//
// The paper computes the measure directly on frames; distances over this
// summary are the same average-Euclidean construction over an
// appearance-sufficient statistic of the frame (DESIGN.md §2 discusses
// the substitution).
func Featurize(pixels tensor.Vector, w, h int) tensor.Vector {
	var s stackScratch
	out := make(tensor.Vector, AppearanceDim)
	appearanceInto(out, pixels, s.scratch())
	return out
}

// AppearanceDim is the length of the vector Featurize returns.
const AppearanceDim = 4

// AppearanceDimNames names the appearance dimensions in vector order,
// for human-readable drift attribution ("which statistic moved").
var AppearanceDimNames = [AppearanceDim]string{
	"background",     // pixel median: scene brightness (day/night)
	"noise_scale",    // scaled MAD: sensor noise and weather texture
	"dark_objects",   // presence-weighted dark-outlier intensity
	"bright_objects", // presence-weighted bright-outlier/weather intensity
}

// Featurizer computes the same appearance vector as Featurize (and, with
// Query, the classifier front-end's vector) while reusing its
// outlier-pool, candidate and output scratch across calls — the
// zero-steady-state-allocation form the per-frame hot path uses. Outputs
// are bit-identical to the allocating functions. A Featurizer is NOT safe
// for concurrent use; give each goroutine its own (the zero value is
// ready to use).
type Featurizer struct {
	s          scratch
	out, query tensor.Vector
}

// scratch is a front-end's working storage: the two outlier pools and the
// candidate list. The kernels take it by value and hand it back grown, so
// a one-off call's storage stays on its stack (stackScratch) and a
// Featurizer's is reused frame to frame.
type scratch struct {
	dark, bright []float64
	cand         []int32
}

// stackScratch is a one-off call's scratch, roomy enough for a 32×32 frame
// of any scene vidsim renders (at most a quarter of it is ever on one side
// of the cut). Declared as a local it lives on the stack; a larger frame
// grows onto the heap.
type stackScratch struct {
	dark, bright [256]float64
	cand         [1024]int32
}

func (b *stackScratch) scratch() scratch { return scratch{b.dark[:0], b.bright[:0], b.cand[:0]} }

// Appearance featurizes one frame. The returned vector is the
// Featurizer's internal buffer: it is overwritten by the next call, so
// callers that retain it must Clone it.
func (fz *Featurizer) Appearance(pixels tensor.Vector, w, h int) tensor.Vector {
	if fz.out == nil {
		fz.out = make(tensor.Vector, AppearanceDim)
	}
	fz.s = appearanceInto(fz.out, pixels, fz.s)
	return fz.out
}

// appearanceInto computes Featurize into out (AppearanceDim long) through
// the scratch s, which it returns.
func appearanceInto(out, pixels tensor.Vector, s scratch) scratch {
	med, sigma, s := scan(pixels, s)
	s = s.outliers(pixels, med, outlierCut(sigma), nil)
	appearance(out, med, sigma, s.dark, s.bright, len(pixels))
	return s
}

// appearance writes the four appearance features of a frame of n pixels
// with median med, noise scale sigma and the given outlier pools (which
// it permutes).
//
// Object-appearance dims are presence-weighted: they fade smoothly to
// zero as the outlier pool empties, so a frame with no vehicles on the
// road sits next to sparse frames in feature space instead of jumping
// to a discontinuous fallback (empty-road lulls last dozens of frames
// and must not read as drift). Presence saturates at ~one object's
// worth of pixels.
func appearance(out tensor.Vector, med, sigma float64, dark, bright []float64, n int) {
	const madScale = 4.0
	presence := func(count int) float64 {
		p := float64(count) / (0.02 * float64(n))
		if p > 1 {
			return 1
		}
		return p
	}
	out[0] = med
	out[1] = madScale * sigma
	out[2] = (medianOf(dark, med) - med) * presence(len(dark))
	out[3] = (medianOf(bright, med) - med) * presence(len(bright))
}

// outlierCut is the object/weather cut on |p − med| both front-ends
// apply: three noise scales, and never under candCut.
func outlierCut(sigma float64) float64 {
	cut := 3 * sigma
	if cut < candCut {
		cut = candCut
	}
	return cut
}

// outliers walks the candidate list once. It refills the dark and bright
// pools with the candidates beyond cut, in pixel order — what a full
// re-scan of the frame would collect — and, when runs is not nil, adds
// the frame's outlier runs to it (runMass). Both front-ends build on this
// one walk; the frame is not read a third time.
func (s scratch) outliers(pixels tensor.Vector, med, cut float64, runs *runMass) scratch {
	dark, bright := s.dark[:0], s.bright[:0]
	if runs == nil {
		for _, i := range s.cand {
			p := pixels[i]
			if d := p - med; d > cut {
				bright = append(bright, p)
			} else if d < -cut {
				dark = append(dark, p)
			}
		}
		s.dark, s.bright = dark, bright
		return s
	}
	// A run is a maximal stretch of index-consecutive outliers within a row
	// of the w×h frame; its sum of p − med accumulates pixel by pixel as a
	// row scan's does, so the runs and their masses are the scan's, bit for
	// bit. The walk stops at w·h, where a row scan stops.
	start, next, sum := -1, -1, 0.0
	for _, c := range s.cand {
		i := int(c)
		if i >= runs.w*runs.h {
			break
		}
		p := pixels[i]
		d := p - med
		switch {
		case d > cut:
			bright = append(bright, p)
		case d < -cut:
			dark = append(dark, p)
		default:
			continue
		}
		if i != next || i%runs.w == 0 {
			if start >= 0 {
				runs.add(start, next-start, sum)
			}
			start, sum = i, 0
		}
		sum += d
		next = i + 1
	}
	if start >= 0 {
		runs.add(start, next-start, sum)
	}
	s.dark, s.bright = dark, bright
	return s
}

// busRun is the run length from which an outlier run reads as a bus
// rather than a car.
const busRun = 7

// runMass sums the outlier runs of two pixels or more of a w×h frame by
// contrast polarity (0 dark, 1 bright: the sign of the run's sum) and
// size (0 a car-run, shorter than busRun; 1 a bus-run) — and, with
// quarters set, by the vertical quarter of the frame the run's middle
// falls in as well.
type runMass struct {
	w, h      int
	quarters  bool
	total     [2][2]float64
	byQuarter [2][2][4]float64
}

// add counts the run of length pixels from pixel index start.
func (m *runMass) add(start, length int, sum float64) {
	if length < 2 {
		return
	}
	pol, size := 0, 0
	if sum > 0 {
		pol = 1
	}
	if length >= busRun {
		size = 1
	}
	m.total[pol][size] += float64(length)
	if m.quarters {
		x := start % m.w
		q := (x + x + length) / 2 * 4 / m.w
		if q >= 4 {
			q = 3
		}
		m.byQuarter[pol][size][q] += float64(length)
	}
}

// scan is the histogram kernel both front-ends share: one pass for the
// median, one for the noise scale that also lists the candidate pixels
// into s.cand (medSigmaCand).
func scan(pixels tensor.Vector, s scratch) (med, sigma float64, _ scratch) {
	if cap(s.cand) < len(pixels) {
		s.cand = make([]int32, len(pixels))
	}
	med, sigma, s.cand = medSigmaCand(pixels, s.cand[:len(pixels)])
	return med, sigma, s
}

// medSigmaCand returns the pixel median and the scaled median absolute
// deviation using fixed histograms — O(n) with a small constant, which
// matters because every frame on the monitoring hot path passes through
// here — and the index of every pixel whose absolute deviation from med
// exceeds candCut, written over cand (len(pixels) long) in pixel order:
// a superset of any outlier pool with cut >= candCut, collected during
// the deviation pass so neither front-end reads the frame a third time.
// Bin resolution is chosen so quantization stays well below the features'
// natural in-distribution spread. Subsampling the histograms was tried
// and rejected: even a half-population median (exact at bin granularity
// for almost every frame) perturbs the martingale chain enough to flip
// borderline drift decisions, so both passes stay full-population and
// the speed comes from fusing and from the blocked quantile scans.
func medSigmaCand(pixels tensor.Vector, cand []int32) (med, sigma float64, outCand []int32) {
	const bins = 1024
	var hist [bins]uint32
	n := len(pixels)
	// Unrolled ×4: the four bin computations are independent, so they
	// overlap instead of serializing on the loop counter.
	// The &(bins−1) masks are no-ops after the clamp (bins is a power of
	// two); they let the compiler drop the bounds check on each increment.
	i := 0
	for ; i+4 <= n; i += 4 {
		b0 := clampBin(pixels[i], bins)
		b1 := clampBin(pixels[i+1], bins)
		b2 := clampBin(pixels[i+2], bins)
		b3 := clampBin(pixels[i+3], bins)
		hist[b0&(bins-1)]++
		hist[b1&(bins-1)]++
		hist[b2&(bins-1)]++
		hist[b3&(bins-1)]++
	}
	for ; i < n; i++ {
		hist[clampBin(pixels[i], bins)&(bins-1)]++
	}
	half := uint32((n + 1) / 2)
	medBin := cumFind(hist[:], half)
	med = (float64(medBin) + 0.5) / bins
	// Noise scale: the 35th percentile of |p − med|, scaled to estimate a
	// Gaussian σ (q35 of |N(0,σ)| = 0.4538σ). The 35th percentile stays
	// inside the background pixel population as long as objects cover
	// less than ~65% of the frame, so — unlike the classic MAD — the
	// estimate does not inflate during dense-traffic bursts.
	// Deviations are small (noise-scale), so they get a finer grid over
	// [0, 0.5] — the σ scale-up would otherwise amplify bin quantization
	// into the feature itself.
	//
	// The |p − med| this histogram bins is the quantity the candidate test
	// compares, so one pass does both. Unrolled ×2. Every index is written
	// and the cursor steps past candidates only, so the test is no branch:
	// on a noisy frame a candidate is a coin toss no predictor learns
	// (math.Abs is branchless for the same reason).
	const devBins = 2048
	const devScale = 2 * float64(devBins)
	var dev [devBins]uint32
	k := 0
	for i = 0; i+2 <= n; i += 2 {
		d0 := math.Abs(pixels[i] - med)
		d1 := math.Abs(pixels[i+1] - med)
		b0 := int(d0 * devScale)
		b1 := int(d1 * devScale)
		if b0 >= devBins {
			b0 = devBins - 1
		}
		if b1 >= devBins {
			b1 = devBins - 1
		}
		dev[b0&(devBins-1)]++
		dev[b1&(devBins-1)]++
		cand[k] = int32(i)
		k += b2i(d0 > candCut)
		cand[k] = int32(i + 1)
		k += b2i(d1 > candCut)
	}
	for ; i < n; i++ {
		d := math.Abs(pixels[i] - med)
		b := int(d * devScale)
		if b >= devBins {
			b = devBins - 1
		}
		dev[b&(devBins-1)]++
		cand[k] = int32(i)
		k += b2i(d > candCut)
	}
	q35 := uint32((n*35 + 99) / 100)
	qBin := cumFind(dev[:], q35)
	sigma = (float64(qBin) + 0.5) / (2 * devBins) / 0.4538
	return med, sigma, cand[:k]
}

// b2i is 1 for true and 0 for false, which the compiler computes with a
// SETcc rather than a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// cumFind returns the first index b with hist[0]+…+hist[b] >= target —
// the quantile lookup both histogram scans perform. It walks the
// cumulative sum in 8-bin blocks and refines inside the crossing block,
// cutting the branchy per-bin loop ~8×; integer addition is associative,
// so the result is identical to a per-bin scan. The final histogram bin
// is returned when the total count never reaches target (only possible
// for an all-skipped degenerate target of 0 pixels).
func cumFind(hist []uint32, target uint32) int {
	acc := uint32(0)
	i := 0
	for ; i+8 <= len(hist); i += 8 {
		s := hist[i] + hist[i+1] + hist[i+2] + hist[i+3] +
			hist[i+4] + hist[i+5] + hist[i+6] + hist[i+7]
		if acc+s >= target {
			break
		}
		acc += s
	}
	for ; i < len(hist); i++ {
		acc += hist[i]
		if acc >= target {
			return i
		}
	}
	return len(hist) - 1
}

// candCut is the candidate-collection threshold of medSigmaCand: the
// outlier cut is max(3σ, 0.08) >= 0.08, so pixels within candCut of the
// median can never reach an outlier pool.
const candCut = 0.08

// clampBin maps a pixel in [0,1) to its histogram bin, clamping
// out-of-range values into [0, bins).
func clampBin(p float64, bins int) int {
	b := int(p * float64(bins))
	if b >= bins {
		b = bins - 1
	} else if b < 0 {
		b = 0
	}
	return b
}

// medianOf returns the median of xs — element len(xs)/2 of its sorted
// order — or fallback when xs is empty, permuting xs in place. It selects
// (Hoare's FIND around the middle element) instead of sorting. Floats
// that compare equal are the same bits except ±0 and NaNs, so that is the
// value any sort leaves there — unless a −0 or a NaN is present, where an
// unstable sort's tie order decides: those pools (no admitted frame makes
// one) are sorted with slices.Sort as before. Every pool keeps every bit.
func medianOf(xs []float64, fallback float64) float64 {
	if len(xs) == 0 {
		return fallback
	}
	k := len(xs) / 2
	for _, x := range xs {
		if x != x || x == 0 && math.Signbit(x) {
			slices.Sort(xs)
			return xs[k]
		}
	}
	for lo, hi := 0, len(xs)-1; lo < hi; {
		pivot := xs[k]
		i, j := lo, hi
		for i <= j {
			for xs[i] < pivot {
				i++
			}
			for pivot < xs[j] {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		if j < k {
			lo = i
		}
		if k < i {
			hi = j
		}
	}
	return xs[k]
}

// FeaturizeFrames maps Featurize over a batch of equal-size frames.
func FeaturizeFrames(frames []tensor.Vector, w, h int) []tensor.Vector {
	out := make([]tensor.Vector, len(frames))
	for i, f := range frames {
		out[i] = Featurize(f, w, h)
	}
	return out
}

// QueryDim is the length of the vector QueryFeatures returns.
const QueryDim = 9

// QueryFeatures summarizes a w×h frame into the count-sensitive feature
// vector the query classifiers consume: outlier-run occupancy split by
// contrast polarity (dark/bright) and by run length (car-sized runs,
// shorter than 7 pixels, versus bus-sized runs), plus the appearance
// statistics Featurize uses. Car-run occupancy tracks how much car mass
// is in the frame — the learnable signal for count queries, with bus mass
// factored out so one bus does not read as three cars. Crucially there is
// NO polarity-agnostic occupancy: a model trained where vehicles are
// darker than the road learns to count dark mass, which reads zero when
// the scene flips to bright-vehicles-on-dark-road — and the
// pixels-per-vehicle slope depends on the condition's object scale — so a
// classifier trained under one condition degrades under another, the
// premise of the paper's §5.2 that the whole model-selection problem
// rests on.
func QueryFeatures(pixels tensor.Vector, w, h int) tensor.Vector {
	var s stackScratch
	out := make(tensor.Vector, QueryDim)
	queryInto(out, pixels, w, h, false, s.scratch())
	return out
}

// Query computes fn(pixels, w, h) into the Featurizer's query buffer,
// reusing its scratch: for QueryFeatures and SpatialFeatures the same
// vector, bit for bit, with no allocation once warm — the classifier
// front-end of the per-frame hot path. Any other front-end is called as
// it is. Beside the vector it returns the appearance vector the vector
// carries: for the two built-in front-ends its [4:8], which is
// Featurize's vector for the frame bit for bit — the Drift Inspector
// reads it instead of featurizing the frame again — and nil for any
// other. Both are overwritten by the next Query.
func (fz *Featurizer) Query(fn FeatureFunc, pixels tensor.Vector, w, h int) (q, app tensor.Vector) {
	switch FeatureFuncName(fn) {
	case FeatureFuncQuery:
		fz.query = fz.query.Resize(QueryDim)
		fz.s = queryInto(fz.query, pixels, w, h, false, fz.s)
	case FeatureFuncSpatial:
		fz.query = fz.query.Resize(SpatialDim)
		fz.s = queryInto(fz.query, pixels, w, h, true, fz.s)
	default:
		return fn(pixels, w, h), nil
	}
	return fz.query, fz.query[4 : 4+AppearanceDim]
}

// queryInto computes QueryFeatures into out (QueryDim long) — or, with
// spatial, SpatialFeatures (SpatialDim long) — through the scratch s,
// which it returns.
func queryInto(out, pixels tensor.Vector, w, h int, spatial bool, s scratch) scratch {
	const (
		occWeight     = 8.0 // occupancy fractions are small; scale them up
		quarterWeight = 16.0
	)
	n := float64(len(pixels))
	med, sigma, s := scan(pixels, s)
	runs := runMass{w: w, h: h, quarters: spatial}
	s = s.outliers(pixels, med, outlierCut(sigma), &runs)
	out[0] = occWeight * runs.total[0][0] / n // dark car-runs
	out[1] = occWeight * runs.total[0][1] / n // dark bus-runs
	out[2] = occWeight * runs.total[1][0] / n // bright car-runs
	out[3] = occWeight * runs.total[1][1] / n // bright bus-runs
	// The appearance statistics, presence-weighted object intensities
	// included (see Featurize).
	appearance(out[4:4+AppearanceDim], med, sigma, s.dark, s.bright, len(pixels))
	out[8] = 1 // bias-like constant anchoring the scale
	if spatial {
		i := QueryDim
		for pol := 0; pol < 2; pol++ {
			for size := 0; size < 2; size++ {
				for q := 0; q < 4; q++ {
					out[i] = quarterWeight * runs.byQuarter[pol][size][q] / n
					i++
				}
			}
		}
	}
	return s
}

// FeatureFunc is the signature shared by all frame featurizers.
type FeatureFunc func(pixels tensor.Vector, w, h int) tensor.Vector

// The built-in classifier front-end names, used by the checkpoint codec
// to serialize which FeatureFunc a model entry was provisioned with.
const (
	FeatureFuncQuery   = "query"
	FeatureFuncSpatial = "spatial"
)

// FeatureFuncName returns the registered name of a built-in classifier
// front-end (FeatureFuncQuery or FeatureFuncSpatial), or "" for nil and
// for ad-hoc functions — those cannot be serialized by name.
func FeatureFuncName(fn FeatureFunc) string {
	if fn == nil {
		return ""
	}
	switch reflect.ValueOf(fn).Pointer() {
	case reflect.ValueOf(QueryFeatures).Pointer():
		return FeatureFuncQuery
	case reflect.ValueOf(SpatialFeatures).Pointer():
		return FeatureFuncSpatial
	}
	return ""
}

// FeatureFuncByName resolves a name produced by FeatureFuncName back to
// the function, or nil for an unknown name.
func FeatureFuncByName(name string) FeatureFunc {
	switch name {
	case FeatureFuncQuery:
		return QueryFeatures
	case FeatureFuncSpatial:
		return SpatialFeatures
	}
	return nil
}

// SpatialDim is the length of the vector SpatialFeatures returns.
const SpatialDim = QueryDim + 16

// SpatialFeatures extends QueryFeatures with horizontal layout
// statistics, the front-end for spatial-constrained query classifiers
// ("bus is on the left side of a car", §6.3.2): for each vertical quarter
// of the frame's columns, the occupancy of bus-sized outlier runs
// (horizontal runs of at least 7 object pixels) and of car-sized runs
// (shorter runs), split by contrast polarity. A model can read
// class-specific left-to-right layout from these — and, as with
// QueryFeatures, the polarity split keeps the learned layout features
// condition-specific, so cross-condition degradation carries over.
func SpatialFeatures(pixels tensor.Vector, w, h int) tensor.Vector {
	var s stackScratch
	out := make(tensor.Vector, SpatialDim)
	queryInto(out, pixels, w, h, true, s.scratch())
	return out
}
