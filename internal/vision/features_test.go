package vision

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"videodrift/internal/stats"
	"videodrift/internal/tensor"
	"videodrift/internal/vidsim"
)

func renderFrames(cond vidsim.Condition, n int, seed int64) []vidsim.Frame {
	return vidsim.GenerateTraining(cond, 16, 16, n, seed)
}

func centroidOf(frames []vidsim.Frame, fn func(tensor.Vector, int, int) tensor.Vector) tensor.Vector {
	var c tensor.Vector
	for _, f := range frames {
		x := fn(f.Pixels, f.W, f.H)
		if c == nil {
			c = tensor.NewVector(len(x))
		}
		c.AddInPlace(x)
	}
	return c.Scale(1 / float64(len(frames)))
}

func TestFeaturizeDims(t *testing.T) {
	f := renderFrames(vidsim.Day(), 1, 1)[0]
	if got := len(Featurize(f.Pixels, 16, 16)); got != 4 {
		t.Errorf("Featurize dim = %d", got)
	}
	if got := len(QueryFeatures(f.Pixels, 16, 16)); got != QueryDim {
		t.Errorf("QueryFeatures dim = %d, want %d", got, QueryDim)
	}
}

func TestFeaturizeDeterministic(t *testing.T) {
	f := renderFrames(vidsim.Night(), 1, 2)[0]
	a := Featurize(f.Pixels, 16, 16)
	b := Featurize(f.Pixels, 16, 16)
	if a.Dist(b) != 0 {
		t.Error("Featurize not deterministic")
	}
}

// TestFeaturizeCountInvariance is the core design property: the same
// condition at different traffic volumes stays close in feature space,
// while different conditions separate.
func TestFeaturizeCountInvariance(t *testing.T) {
	// The invariance holds while objects stay a minority of the frame
	// (median/MAD robustness breaks down as coverage approaches 50%); a
	// 3.5x traffic swing within that domain must move features far less
	// than a condition change.
	sparse := vidsim.Day()
	sparse.CarRate, sparse.BusRate = 2, 0
	dense := vidsim.Day()
	dense.CarRate, dense.BusRate = 7, 0

	cSparse := centroidOf(renderFrames(sparse, 80, 3), Featurize)
	cDense := centroidOf(renderFrames(dense, 80, 4), Featurize)
	cNight := centroidOf(renderFrames(vidsim.Night(), 80, 5), Featurize)

	within := cSparse.Dist(cDense)
	across := cSparse.Dist(cNight)
	if across < 3*within {
		t.Errorf("count shift moved features %v, condition shift %v — want strong invariance", within, across)
	}
}

// TestQueryFeaturesCountSensitivity is the complementary property: the
// query features must move with traffic volume.
func TestQueryFeaturesCountSensitivity(t *testing.T) {
	sparse := vidsim.Day()
	sparse.CarRate, sparse.BusRate = 2, 0
	dense := vidsim.Day()
	dense.CarRate, dense.BusRate = 12, 0

	cSparse := centroidOf(renderFrames(sparse, 60, 6), QueryFeatures)
	cDense := centroidOf(renderFrames(dense, 60, 7), QueryFeatures)
	// Total occupancy (dim 0) must grow with traffic.
	if cDense[0] <= cSparse[0]*1.5 {
		t.Errorf("occupancy did not track count: sparse %v dense %v", cSparse[0], cDense[0])
	}
}

func TestFeaturizeEmptyFrameSmooth(t *testing.T) {
	// A uniform background frame (no objects) must have zero object dims
	// and background dims matching the render.
	px := make(tensor.Vector, 256)
	rng := stats.NewRNG(8)
	for i := range px {
		px[i] = 0.6 + rng.Normal(0, 0.03)
	}
	x := Featurize(px, 16, 16)
	if math.Abs(x[0]-0.6) > 0.02 {
		t.Errorf("bg level = %v", x[0])
	}
	if math.Abs(x[2]) > 0.05 || math.Abs(x[3]) > 0.05 {
		t.Errorf("object dims on empty frame = %v, %v — want ~0", x[2], x[3])
	}
	// One object fades the dim in smoothly, not discontinuously.
	for i := 0; i < 6; i++ { // a 6-pixel sliver of object
		px[100+i] = 0.2
	}
	x1 := Featurize(px, 16, 16)
	if x1[2] >= 0 || x1[2] < -0.5 {
		t.Errorf("dark dim with tiny object = %v", x1[2])
	}
}

func TestConditionsSeparateInFeatureSpace(t *testing.T) {
	conds := []vidsim.Condition{vidsim.Day(), vidsim.Night(), vidsim.RainCond(), vidsim.SnowCond()}
	centroids := make([]tensor.Vector, len(conds))
	for i, c := range conds {
		centroids[i] = centroidOf(renderFrames(c, 60, int64(10+i)), Featurize)
	}
	for i := 0; i < len(conds); i++ {
		for j := i + 1; j < len(conds); j++ {
			if d := centroids[i].Dist(centroids[j]); d < 0.1 {
				t.Errorf("%s vs %s feature distance = %v, too close",
					conds[i].Name, conds[j].Name, d)
			}
		}
	}
}

func TestFeaturizeFramesBatch(t *testing.T) {
	frames := renderFrames(vidsim.Day(), 5, 20)
	pix := make([]tensor.Vector, len(frames))
	for i, f := range frames {
		pix[i] = f.Pixels
	}
	batch := FeaturizeFrames(pix, 16, 16)
	if len(batch) != 5 {
		t.Fatalf("batch length = %d", len(batch))
	}
	for i := range batch {
		if batch[i].Dist(Featurize(pix[i], 16, 16)) != 0 {
			t.Fatal("batch does not match single calls")
		}
	}
}

func TestMedianOf(t *testing.T) {
	if medianOf(nil, 7) != 7 {
		t.Error("empty fallback wrong")
	}
	if medianOf([]float64{3, 1, 2}, 0) != 2 {
		t.Error("median wrong")
	}
}

// TestFeaturizerMatchesFeaturize pins the scratch-reuse fast path to the
// allocating reference: outputs must be bit-identical across a spread of
// frames, and consecutive calls must not contaminate each other through
// the reused buffers.
func TestFeaturizerMatchesFeaturize(t *testing.T) {
	var fz Featurizer
	for _, cond := range []vidsim.Condition{vidsim.Day(), vidsim.Night(), vidsim.RainCond()} {
		g := vidsim.NewSceneGenerator(cond, 32, 32, stats.NewRNG(77))
		for i := 0; i < 50; i++ {
			f := g.Next()
			want := Featurize(f.Pixels, f.W, f.H)
			got := fz.Appearance(f.Pixels, f.W, f.H)
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("%s frame %d dim %d: Featurizer %v != Featurize %v", cond.Name, i, j, got[j], want[j])
				}
			}
		}
	}
}

// TestFeaturizerSteadyStateAllocs asserts the hot path stops allocating
// once the scratch buffers have grown to the frame's outlier pool size.
func TestFeaturizerSteadyStateAllocs(t *testing.T) {
	g := vidsim.NewSceneGenerator(vidsim.Day(), 32, 32, stats.NewRNG(78))
	f := g.Next()
	var fz Featurizer
	fz.Appearance(f.Pixels, f.W, f.H) // warm the scratch
	allocs := testing.AllocsPerRun(100, func() { fz.Appearance(f.Pixels, f.W, f.H) })
	if allocs != 0 {
		t.Errorf("steady-state Appearance allocates %v objects/op, want 0", allocs)
	}
}

// queryFeaturesReference is QueryFeatures as it was before its outlier
// pools moved to the stack (and medianOf, to keep them there, from
// sort.Float64s to slices.Sort), kept as the oracle: neither may move a
// bit.
func queryFeaturesReference(pixels tensor.Vector, w, h int) tensor.Vector {
	const (
		occWeight = 8.0
		madScale  = 4.0
		busRun    = 7
	)
	n := len(pixels)
	med, sigma := medSigma(pixels)
	cut := 3 * sigma
	if cut < 0.08 {
		cut = 0.08
	}
	var dark, bright []float64
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
	out[0] = occWeight * mass[0][0] / float64(n)
	out[1] = occWeight * mass[0][1] / float64(n)
	out[2] = occWeight * mass[1][0] / float64(n)
	out[3] = occWeight * mass[1][1] / float64(n)
	out[4] = med
	out[5] = madScale * sigma
	presence := func(count int) float64 {
		p := float64(count) / (0.02 * float64(n))
		if p > 1 {
			return 1
		}
		return p
	}
	out[6] = (medianOfReference(dark, med) - med) * presence(len(dark))
	out[7] = (medianOfReference(bright, med) - med) * presence(len(bright))
	out[8] = 1
	return out
}

// medSigma is the histogram kernel as two plain passes, the oracle of
// medSigmaCand's fused one: the pixel median, then the 35th percentile of
// |p − med| on a 2048-bin grid over [0, 0.5), scaled to a Gaussian σ.
func medSigma(pixels tensor.Vector) (med, sigma float64) {
	const bins, devBins = 1024, 2048
	var hist [bins]uint32
	for _, p := range pixels {
		hist[clampBin(p, bins)]++
	}
	med = (float64(cumFind(hist[:], uint32((len(pixels)+1)/2))) + 0.5) / bins
	var dev [devBins]uint32
	for _, p := range pixels {
		b := int(math.Abs(p-med) * 2 * float64(devBins))
		if b >= devBins {
			b = devBins - 1
		}
		dev[b]++
	}
	qBin := cumFind(dev[:], uint32((len(pixels)*35+99)/100))
	return med, (float64(qBin) + 0.5) / (2 * devBins) / 0.4538
}

// medianOfReference is medianOf as it was, on sort.Float64s.
func medianOfReference(xs []float64, fallback float64) float64 {
	if len(xs) == 0 {
		return fallback
	}
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

// query is Featurizer.Query's vector alone.
func query(fz *Featurizer, fn FeatureFunc, px tensor.Vector, w, h int) tensor.Vector {
	q, _ := fz.Query(fn, px, w, h)
	return q
}

// checkCarriedAppearance holds the appearance vector to the one both
// built-in front-ends carry, bit for bit: Featurize is QueryFeatures[4:8]
// and SpatialFeatures[4:8], and it is what Featurizer.Query hands the
// Drift Inspector beside either — which is what lets the inspector read
// the classifier's features instead of featurizing the frame again.
func checkCarriedAppearance(t *testing.T, fz *Featurizer, px tensor.Vector, w, h int) {
	t.Helper()
	type carrier struct {
		name string
		app  tensor.Vector
	}
	want := Featurize(px, w, h)
	carriers := []carrier{
		{"QueryFeatures[4:8]", QueryFeatures(px, w, h)[4:8]},
		{"SpatialFeatures[4:8]", SpatialFeatures(px, w, h)[4:8]},
	}
	for _, fn := range []FeatureFunc{QueryFeatures, SpatialFeatures} {
		_, app := fz.Query(fn, px, w, h)
		carriers = append(carriers, carrier{"Featurizer.Query(" + FeatureFuncName(fn) + ")", slices.Clone(app)})
	}
	for _, c := range carriers {
		for d := range want {
			if math.Float64bits(c.app[d]) != math.Float64bits(want[d]) {
				t.Fatalf("%dx%d frame: %s %v, Featurize %v", w, h, c.name, c.app, want)
			}
		}
	}
}

// TestQueryFeaturesMatchesReference holds QueryFeatures to the retained
// implementation, exact == on all nine outputs, over 2 000 seeded frames
// across conditions and sizes — 16×16 frames, whose pools fit the stack
// buffers, and 32×32 and 64×64 ones, which reach or outgrow them — and
// over hand-made frames for the pools vidsim seldom renders: none, one,
// two and three pixels a side, and pools of a few repeated values (a
// clamped night sky).
func TestQueryFeaturesMatchesReference(t *testing.T) {
	conds := []vidsim.Condition{vidsim.Day(), vidsim.Night(), vidsim.RainCond(), vidsim.SnowCond(), vidsim.Angle(1, 5, -1), vidsim.Angle(4, 9, -1)}
	var frames []vidsim.Frame
	for i, c := range conds {
		dim := 16 << (i % 3)
		frames = append(frames, vidsim.GenerateTraining(c, dim, dim, 2000/len(conds)+1, int64(100+i))...)
	}
	// Round-robin over the conditions.
	per := len(frames) / len(conds)
	order := make([]vidsim.Frame, 0, len(frames))
	for j := 0; j < per; j++ {
		for i := range conds {
			order = append(order, frames[i*per+j])
		}
	}
	if len(order) < 2000 {
		t.Fatalf("%d frames, want at least 2000", len(order))
	}
	spilled := 0
	var fz Featurizer // Query's reused pools and output, across frame sizes
	for _, f := range order {
		got, want := QueryFeatures(f.Pixels, f.W, f.H), queryFeaturesReference(f.Pixels, f.W, f.H)
		for d := range want {
			if got[d] != want[d] {
				t.Fatalf("%s frame %d (%dx%d) dim %d: %v, reference %v", f.Condition, f.Index, f.W, f.H, d, got[d], want[d])
			}
		}
		if q, _ := fz.Query(QueryFeatures, f.Pixels, f.W, f.H); !slices.Equal(q, want) {
			t.Fatalf("%s frame %d: Featurizer.Query %v, reference %v", f.Condition, f.Index, q, want)
		}
		if q, s := query(&fz, SpatialFeatures, f.Pixels, f.W, f.H), SpatialFeatures(f.Pixels, f.W, f.H); !slices.Equal(q, s) {
			t.Fatalf("%s frame %d: Featurizer.Query %v, SpatialFeatures %v", f.Condition, f.Index, q, s)
		}
		checkCarriedAppearance(t, &fz, f.Pixels, f.W, f.H)
		if full := 8 * 256 / float64(len(f.Pixels)); want[0]+want[1] > full || want[2]+want[3] > full {
			spilled++ // more run mass on one side than a stack buffer holds pixels
		}
	}
	if spilled == 0 {
		t.Error("no frame outgrew the stack buffers: the heap path went untested")
	}
	for _, dark := range []int{0, 1, 2, 3, 60} {
		for _, bright := range []int{0, 1, 2, 3, 60} {
			px := make(tensor.Vector, 16*16)
			for i := range px {
				px[i] = 0.5 + 0.001*float64(i%7)
			}
			for i := 0; i < dark; i++ {
				px[2*i] = 0.05 * float64(i%3) // 0 (clamped), 0.05, 0.1
			}
			for i := 0; i < bright; i++ {
				px[2*i+128] = 1 - 0.05*float64(i%2)
			}
			got, want := QueryFeatures(px, 16, 16), queryFeaturesReference(px, 16, 16)
			if !slices.Equal(got, want) {
				t.Errorf("%d dark and %d bright pixels: %v, reference %v", dark, bright, got, want)
			}
			if (want[6] != 0) != (dark > 0) || (want[7] != 0) != (bright > 0) {
				t.Errorf("%d dark and %d bright pixels: intensity dims %v, %v — the pools are not the ones intended", dark, bright, want[6], want[7])
			}
			checkCarriedAppearance(t, &fz, px, 16, 16)
		}
	}
	// A frame with more pixels than w×h (or a zero width): the row scan
	// reads w·h of them — the pools and the runs — and the kernels count
	// all of them.
	for _, wh := range [][2]int{{16, 15}, {8, 16}, {0, 16}} {
		f := order[0]
		if got, want := QueryFeatures(f.Pixels, wh[0], wh[1]), queryFeaturesReference(f.Pixels, wh[0], wh[1]); !slices.Equal(got, want) {
			t.Errorf("%d pixels read as %dx%d: %v, reference %v", len(f.Pixels), wh[0], wh[1], got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { QueryFeatures(order[0].Pixels, order[0].W, order[0].H) }); n > 1 {
		t.Errorf("QueryFeatures allocates %.0f objects per call, want 1 (its output)", n)
	}
	for _, fn := range []FeatureFunc{QueryFeatures, SpatialFeatures} {
		if n := testing.AllocsPerRun(100, func() { fz.Query(fn, order[0].Pixels, order[0].W, order[0].H) }); n != 0 {
			t.Errorf("a warm Featurizer.Query(%s) allocates %.0f objects per call, want 0", FeatureFuncName(fn), n)
		}
	}
}

// TestMedianOfMatchesSort holds medianOf, which the appearance features
// share, to its sort.Float64s form bit for bit — ties, signed zeroes and
// NaNs included, where two correct sorts could order equal keys apart
// (medianOf sorts those pools and selects in the rest) — over pools of
// every length from 0 to 199, from all-distinct to a handful of repeated
// values, in random, sorted and reversed order.
func TestMedianOfMatchesSort(t *testing.T) {
	rng := stats.NewRNG(5)
	special := []float64{0, math.Copysign(0, -1), math.NaN(), 0.5, 0.5, -0.25, math.Inf(1)}
	check := func(what string, xs []float64) {
		t.Helper()
		got := medianOf(append([]float64(nil), xs...), 7)
		want := medianOfReference(append([]float64(nil), xs...), 7)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s, %d values: median %v (%x), on sort.Float64s %v (%x)", what, len(xs), got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for n := 0; n < 200; n++ {
		xs := make([]float64, n)
		for i := range xs {
			if xs[i] = rng.Float64() - 0.5; rng.Float64() < 0.3 {
				xs[i] = special[i%len(special)]
			}
		}
		check("with specials", xs)
		// Selection proper: no −0 and no NaN, so no pool is handed to the
		// sort. distinct = 1 is one value repeated, 3 a clamped night pool.
		for _, distinct := range []int{1, 2, 3, 8, 1 << 30} {
			for i := range xs {
				xs[i] = float64(rng.Intn(distinct)) / 8
			}
			check(fmt.Sprintf("%d distinct values", distinct), xs)
			sort.Float64s(xs)
			check(fmt.Sprintf("%d distinct values, sorted", distinct), xs)
			slices.Reverse(xs)
			check(fmt.Sprintf("%d distinct values, reversed", distinct), xs)
		}
	}
	if got := medianOf(nil, 7); got != 7 {
		t.Errorf("empty pool: %v, want the fallback", got)
	}
}
