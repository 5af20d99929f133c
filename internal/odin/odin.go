// Package odin implements the ODIN baseline (Suprem et al., VLDB 2020) as
// the paper describes it in §6: ODIN-Detect maintains a set of frame
// clusters, each with a centroid and a density band enclosing a fraction
// Δ = 0.5 of its members; frames that fit no cluster open a temporary
// cluster, which is promoted to permanent (declaring a drift) when the KL
// divergence of its distance distribution before and after adding a frame
// drops below 0.007; ODIN-Select assigns every incoming frame to one or
// more permanent clusters and runs the associated model, or an
// equal-weight ensemble when the frame falls inside several bands;
// ODIN-Specialize trains a model for a freshly promoted cluster.
//
// Clustering operates on the same frame features the Drift Inspector uses
// (vision.Featurize), so the comparison isolates the algorithms rather
// than the representations. Unlike DI, ODIN does cluster maintenance on
// every frame — the per-frame cost the paper's Tables 6–9 measure.
package odin

import (
	"sort"

	"videodrift/internal/stats"
	"videodrift/internal/tensor"
	"videodrift/internal/vidsim"
	"videodrift/internal/vision"
)

// Config carries ODIN's published hyperparameters plus the implementation
// knobs of this reproduction.
type Config struct {
	Delta        float64 // density-band mass (paper: 0.5)
	KLThreshold  float64 // temporary-cluster promotion threshold (paper: 0.007)
	MinTempSize  int     // members required before testing promotion
	AssignSlack  float64 // cluster assignment reach beyond the band, in band widths
	MaxDistances int     // per-cluster reservoir of member distances
	KLBins       int     // histogram bins for the promotion test
	TempMaxGap   int     // frames a temporary cluster may go untouched before being discarded
}

// DefaultConfig returns the paper's Δ and KL threshold with reproduction
// defaults for the unstated knobs.
func DefaultConfig() Config {
	return Config{
		Delta:        0.5,
		KLThreshold:  0.007,
		MinTempSize:  36,
		AssignSlack:  2.0,
		MaxDistances: 512,
		KLBins:       12,
		TempMaxGap:   10,
	}
}

// Cluster is one ODIN frame cluster.
type Cluster struct {
	ID        int
	Permanent bool

	centroid tensor.Vector
	count    int
	dists    []float64 // member distances to the centroid (reservoir)
	sorted   bool

	lastTouch int // observer frame count at the last member addition
}

// Count returns the number of frames folded into the cluster.
func (c *Cluster) Count() int { return c.count }

// Centroid returns the cluster's running mean feature vector.
func (c *Cluster) Centroid() tensor.Vector { return c.centroid }

// band returns the density band [lower, upper] enclosing the central
// Delta mass of member distances.
func (c *Cluster) band(delta float64) (lower, upper float64) {
	if len(c.dists) == 0 {
		return 0, 0
	}
	if !c.sorted {
		sort.Float64s(c.dists)
		c.sorted = true
	}
	lo := (1 - delta) / 2
	hi := 1 - lo
	n := float64(len(c.dists) - 1)
	return c.dists[int(lo*n)], c.dists[int(hi*n)]
}

// add folds a feature vector at distance d into the cluster.
func (c *Cluster) add(x tensor.Vector, d float64, maxDists int) {
	c.count++
	if c.centroid == nil {
		c.centroid = x.Clone()
	} else {
		// Running mean: centroid += (x - centroid)/count.
		inv := 1 / float64(c.count)
		for i := range c.centroid {
			c.centroid[i] += (x[i] - c.centroid[i]) * inv
		}
	}
	if len(c.dists) < maxDists {
		c.dists = append(c.dists, d)
	} else {
		c.dists[c.count%maxDists] = d
	}
	c.sorted = false
}

// distHistogram builds the histogram of member distances used by the
// promotion KL test.
func (c *Cluster) distHistogram(bins int) *stats.Histogram {
	hi := 0.0
	for _, d := range c.dists {
		if d > hi {
			hi = d
		}
	}
	if hi <= 0 {
		hi = 1e-9
	}
	h := stats.NewHistogram(0, hi*1.01, bins)
	for _, d := range c.dists {
		h.Add(d)
	}
	return h
}

// Detector is ODIN-Detect: online clustering with drift declaration on
// temporary-cluster promotion. It is not safe for concurrent use.
type Detector struct {
	cfg    Config
	w, h   int
	nextID int
	frames int // observation counter (drives temporary-cluster aging)

	clusters []*Cluster
	temp     *Cluster
}

// NewDetector builds an ODIN-Detect instance for w×h frames.
func NewDetector(cfg Config, w, h int) *Detector {
	if cfg.Delta <= 0 || cfg.Delta >= 1 {
		panic("odin: invalid Delta")
	}
	return &Detector{cfg: cfg, w: w, h: h}
}

// Bootstrap seeds a permanent cluster from provisioned training frames —
// the models ODIN starts with — and returns its cluster ID.
func (d *Detector) Bootstrap(frames []vidsim.Frame) int {
	c := &Cluster{ID: d.nextID, Permanent: true}
	d.nextID++
	for _, f := range frames {
		x := vision.Featurize(f.Pixels, d.w, d.h)
		dist := 0.0
		if c.centroid != nil {
			dist = x.Dist(c.centroid)
		}
		c.add(x, dist, d.cfg.MaxDistances)
	}
	// Recompute member distances against the final centroid so the band
	// reflects the converged cluster.
	for i, f := range frames {
		if i >= len(c.dists) {
			break
		}
		c.dists[i] = vision.Featurize(f.Pixels, d.w, d.h).Dist(c.centroid)
	}
	c.sorted = false
	d.clusters = append(d.clusters, c)
	return c.ID
}

// Clusters returns the permanent clusters.
func (d *Detector) Clusters() []*Cluster { return d.clusters }

// Result reports what ODIN-Detect did with one frame.
type Result struct {
	Assigned []int // permanent cluster IDs whose reach contains the frame
	Drift    bool  // a temporary cluster was promoted on this frame
	Promoted int   // ID of the promoted cluster when Drift
}

// Observe folds one frame into the clustering and reports assignments and
// drift. This runs on every frame (unlike DI's sampled monitoring) and
// pays per-cluster distance, band and KL work — the cost profile behind
// the paper's Table 6.
func (d *Detector) Observe(f vidsim.Frame) Result {
	d.frames++
	x := vision.Featurize(f.Pixels, d.w, d.h)
	res := Result{Promoted: -1}

	for _, c := range d.clusters {
		dist := x.Dist(c.centroid)
		lower, upper := c.band(d.cfg.Delta)
		reach := upper + d.cfg.AssignSlack*(upper-lower)
		if dist <= reach {
			res.Assigned = append(res.Assigned, c.ID)
			if dist >= lower && dist <= upper {
				// In-band frames update the cluster (and its band).
				c.add(x, dist, d.cfg.MaxDistances)
			}
		}
	}
	if len(res.Assigned) > 0 {
		return res
	}

	// No permanent cluster fits: grow the temporary cluster. A stale
	// temporary cluster is discarded first: genuine drifts feed it on
	// (nearly) every frame, whereas scattered in-distribution tail frames
	// arrive with long gaps and must not accumulate into a fake drift.
	if d.temp != nil && d.frames-d.temp.lastTouch > d.cfg.TempMaxGap {
		d.temp = nil
	}
	if d.temp == nil {
		d.temp = &Cluster{ID: d.nextID}
		d.nextID++
	}
	c := d.temp
	c.lastTouch = d.frames
	var before *stats.Histogram
	if c.count >= d.cfg.MinTempSize {
		before = c.distHistogram(d.cfg.KLBins)
	}
	dist := 0.0
	if c.centroid != nil {
		dist = x.Dist(c.centroid)
	}
	c.add(x, dist, d.cfg.MaxDistances)
	if before != nil {
		after := c.distHistogram(d.cfg.KLBins)
		if stats.KLDivergence(after.Probabilities(), before.Probabilities()) < d.cfg.KLThreshold {
			// The temporary cluster's distribution has stabilized: promote
			// it — ODIN's drift declaration.
			c.Permanent = true
			d.clusters = append(d.clusters, c)
			d.temp = nil
			res.Drift = true
			res.Promoted = c.ID
		}
	}
	return res
}

// TempSize returns the size of the current temporary cluster (0 if none).
func (d *Detector) TempSize() int {
	if d.temp == nil {
		return 0
	}
	return d.temp.count
}
