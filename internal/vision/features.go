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
	out := make(tensor.Vector, AppearanceDim)
	appearanceInto(pixels, out, nil, nil, nil)
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

// Featurizer computes the same appearance vector as Featurize while
// reusing its outlier-pool and output scratch across calls — the
// zero-steady-state-allocation form the per-frame monitoring hot path
// uses. Outputs are bit-identical to Featurize. A Featurizer is NOT safe
// for concurrent use; give each goroutine its own (the zero value is
// ready to use).
type Featurizer struct {
	dark, bright, cand []float64
	out                tensor.Vector
}

// Appearance featurizes one frame. The returned vector is the
// Featurizer's internal buffer: it is overwritten by the next call, so
// callers that retain it must Clone it.
func (fz *Featurizer) Appearance(pixels tensor.Vector, w, h int) tensor.Vector {
	if fz.out == nil {
		fz.out = make(tensor.Vector, AppearanceDim)
	}
	fz.dark, fz.bright, fz.cand = appearanceInto(pixels, fz.out, fz.dark[:0], fz.bright[:0], fz.cand[:0])
	return fz.out
}

// appearanceInto computes the appearance features into out, using (and
// returning) the provided outlier-pool and candidate scratch.
func appearanceInto(pixels tensor.Vector, out tensor.Vector, dark, bright, cand []float64) ([]float64, []float64, []float64) {
	const madScale = 4.0
	n := len(pixels)
	if cand == nil {
		cand = make([]float64, 0, 64)
	}
	med, sigma, cand := medSigmaCand(pixels, cand)
	cut := 3 * sigma
	if cut < 0.08 {
		cut = 0.08
	}

	// Outlier pools: object/weather pixels on either side of the
	// background. Only the candidate superset (|p − med| > candCut <= cut,
	// collected during the deviation pass) needs re-testing against the
	// final cut; the pools come out in pixel order, exactly as a full
	// re-scan would produce them.
	for _, p := range cand {
		d := p - med
		if d > cut {
			bright = append(bright, p)
		} else if d < -cut {
			dark = append(dark, p)
		}
	}

	// Object-appearance dims are presence-weighted: they fade smoothly to
	// zero as the outlier pool empties, so a frame with no vehicles on the
	// road sits next to sparse frames in feature space instead of jumping
	// to a discontinuous fallback (empty-road lulls last dozens of frames
	// and must not read as drift). Presence saturates at ~one object's
	// worth of pixels.
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
	return dark, bright, cand
}

// medSigma returns the pixel median and the scaled median absolute
// deviation using fixed histograms — O(n) with a small constant, which
// matters because every frame on the monitoring hot path passes through
// here. Bin resolution is chosen so quantization stays well below the
// features' natural in-distribution spread.
func medSigma(pixels tensor.Vector) (med, sigma float64) {
	med, sigma, _ = medSigmaCand(pixels, nil)
	return med, sigma
}

// medSigmaCand computes med and sigma as medSigma does and, when cand is
// non-nil, appends every pixel whose absolute deviation from med exceeds
// candCut — a superset of any outlier pool with cut >= candCut, collected
// during the deviation pass so Featurize needs no third full-frame scan.
// Candidates preserve pixel order. Subsampling the histograms was tried
// and rejected: even a half-population median (exact at bin granularity
// for almost every frame) perturbs the martingale chain enough to flip
// borderline drift decisions, so both passes stay full-population and
// the speed comes from fusing and from the blocked quantile scans.
func medSigmaCand(pixels tensor.Vector, cand []float64) (med, sigma float64, outCand []float64) {
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
	const devBins = 2048
	var dev [devBins]uint32
	if cand == nil {
		for _, p := range pixels {
			dev[devBin(p, med, devBins)]++
		}
	} else {
		// Fused loop: the |p − med| the histogram bins is the same quantity
		// the candidate test compares, so one pass does both. Unrolled ×2
		// with the candidate tests kept in pixel order.
		const devScale = 2 * float64(devBins)
		i := 0
		for ; i+2 <= n; i += 2 {
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
			if d0 > candCut {
				cand = append(cand, pixels[i])
			}
			if d1 > candCut {
				cand = append(cand, pixels[i+1])
			}
		}
		for ; i < n; i++ {
			d := math.Abs(pixels[i] - med)
			b := int(d * devScale)
			if b >= devBins {
				b = devBins - 1
			}
			dev[b&(devBins-1)]++
			if d > candCut {
				cand = append(cand, pixels[i])
			}
		}
	}
	q35 := uint32((n*35 + 99) / 100)
	qBin := cumFind(dev[:], q35)
	sigma = (float64(qBin) + 0.5) / (2 * devBins) / 0.4538
	return med, sigma, cand
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

// devBin maps a pixel's absolute deviation from med onto the deviation
// grid over [0, 0.5). math.Abs is branchless — the deviation's sign is
// noise, and a 50/50 branch on it would mispredict constantly.
func devBin(p, med float64, devBins int) int {
	d := math.Abs(p - med)
	b := int(d * 2 * float64(devBins))
	if b >= devBins {
		b = devBins - 1
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
	const (
		occWeight = 8.0 // occupancy fractions are small; scale them up
		madScale  = 4.0
		busRun    = 7
	)
	n := len(pixels)
	med, sigma := medSigma(pixels)
	cut := 3 * sigma
	if cut < 0.08 {
		cut = 0.08
	}

	// Outlier pools for intensity dims, and polarity/size-split run
	// masses: mass[polarity][size] with polarity 0 = dark, 1 = bright and
	// size 0 = car-run, 1 = bus-run.
	// The pools start out in two stack buffers, roomy enough for a 32×32
	// frame of any scene vidsim renders (at most a quarter of it is ever
	// on one side of the cut); a larger pool grows onto the heap.
	var darkBuf, brightBuf [256]float64
	dark, bright := darkBuf[:0], brightBuf[:0]
	var mass [2][2]float64
	for y := 0; y < h; y++ {
		row := pixels[y*w : (y+1)*w]
		runStart := -1
		runSum := 0.0
		flush := func(end int) {
			if runStart < 0 {
				return
			}
			length := end - runStart
			pol, size := 0, 0
			if runSum > 0 {
				pol = 1
			}
			if length >= busRun {
				size = 1
			}
			if length >= 2 {
				mass[pol][size] += float64(length)
			}
			runStart = -1
			runSum = 0
		}
		for x := 0; x < w; x++ {
			p := row[x]
			d := p - med
			switch {
			case d > cut:
				bright = append(bright, p)
			case d < -cut:
				dark = append(dark, p)
			default:
				flush(x)
				continue
			}
			if runStart < 0 {
				runStart = x
			}
			runSum += d
		}
		flush(w)
	}

	out := make(tensor.Vector, QueryDim)
	out[0] = occWeight * mass[0][0] / float64(n) // dark car-runs
	out[1] = occWeight * mass[0][1] / float64(n) // dark bus-runs
	out[2] = occWeight * mass[1][0] / float64(n) // bright car-runs
	out[3] = occWeight * mass[1][1] / float64(n) // bright bus-runs
	out[4] = med
	out[5] = madScale * sigma
	// Presence-weighted object intensities (see Featurize).
	presence := func(count int) float64 {
		p := float64(count) / (0.02 * float64(n))
		if p > 1 {
			return 1
		}
		return p
	}
	out[6] = (medianOf(dark, med) - med) * presence(len(dark))
	out[7] = (medianOf(bright, med) - med) * presence(len(bright))
	out[8] = 1 // bias-like constant anchoring the scale
	return out
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
	const (
		quarters  = 4
		busRun    = 7
		occWeight = 16.0
	)
	base := QueryFeatures(pixels, w, h)
	med := base[4] // background level, already computed
	sigma := base[5] / 4
	cut := 3 * sigma
	if cut < 0.08 {
		cut = 0.08
	}

	// mass[polarity][size][quarter]: polarity 0 = dark, 1 = bright;
	// size 0 = car-run, 1 = bus-run.
	var mass [2][2][quarters]float64
	for y := 0; y < h; y++ {
		row := pixels[y*w : (y+1)*w]
		runStart := -1
		runSum := 0.0
		flush := func(end int) {
			if runStart < 0 {
				return
			}
			length := end - runStart
			q := (runStart + end) / 2 * quarters / w
			if q >= quarters {
				q = quarters - 1
			}
			pol := 0
			if runSum > 0 {
				pol = 1
			}
			size := 0
			if length >= busRun {
				size = 1
			}
			if length >= 2 {
				mass[pol][size][q] += float64(length)
			}
			runStart = -1
			runSum = 0
		}
		for x := 0; x < w; x++ {
			d := row[x] - med
			if d > cut || d < -cut {
				if runStart < 0 {
					runStart = x
				}
				runSum += d
			} else {
				flush(x)
			}
		}
		flush(w)
	}

	out := make(tensor.Vector, SpatialDim)
	copy(out, base)
	n := float64(len(pixels))
	i := QueryDim
	for pol := 0; pol < 2; pol++ {
		for size := 0; size < 2; size++ {
			for q := 0; q < quarters; q++ {
				out[i] = occWeight * mass[pol][size][q] / n
				i++
			}
		}
	}
	return out
}
