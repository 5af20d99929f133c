// Package stats provides the statistical primitives the rest of the system
// is built on: a deterministic seeded random number generator, descriptive
// statistics (batch and online), Kolmogorov–Smirnov tests, and divergence
// measures between empirical distributions.
//
// Everything in this package is deterministic given a seed, which is what
// makes the experiment harness and the property-based tests reproducible.
package stats

import (
	"math"
	"math/rand"
)

// RNG is a deterministic pseudo-random source used throughout the system.
// It wraps math/rand with convenience samplers for the distributions the
// simulator and the learning substrate need. An RNG is not safe for
// concurrent use; create one per goroutine via Split.
//
// Every underlying source draw is counted, so an RNG's position in its
// stream is fully described by (seed, draws) — see State and ResumeRNG.
// The counting shim delegates straight to the math/rand source, so the
// value streams are identical to a plain rand.New(rand.NewSource(seed)).
type RNG struct {
	r   *rand.Rand
	src *countingSource
}

// countingSource wraps the math/rand source and counts state advances.
// rand.Rand reaches the source only through Int63/Uint64, and each of
// those advances the lagged-Fibonacci state exactly one step, so `draws`
// source calls from a fresh seed reproduce the state bit-exactly. (This
// holds because RNG never exposes rand.Rand.Read, the one method with
// state outside the source.)
type countingSource struct {
	src   rand.Source64
	seed  int64
	draws uint64
}

func (c *countingSource) Int63() int64 {
	c.draws++
	return c.src.Int63()
}

func (c *countingSource) Uint64() uint64 {
	c.draws++
	return c.src.Uint64()
}

func (c *countingSource) Seed(seed int64) {
	c.seed = seed
	c.draws = 0
	c.src.Seed(seed)
}

// RNGState is a serializable description of an RNG's exact position in
// its stream: replaying Draws source steps from Seed reproduces the
// generator bit-identically.
//
//driftlint:snapshot encode=RNG.State decode=ResumeRNG
type RNGState struct {
	Seed  int64
	Draws uint64
}

// NewRNG returns a deterministic generator seeded with seed.
func NewRNG(seed int64) *RNG {
	src := &countingSource{src: rand.NewSource(seed).(rand.Source64), seed: seed}
	return &RNG{r: rand.New(src), src: src}
}

// State returns the generator's current stream position for
// checkpointing. ResumeRNG(g.State()) yields a generator that produces
// exactly the values g would produce next.
func (g *RNG) State() RNGState {
	return RNGState{Seed: g.src.seed, Draws: g.src.draws}
}

// ResumeRNG reconstructs a generator at the recorded stream position by
// replaying the counted source draws. Cost is O(Draws) — tens of
// nanoseconds per million draws of fast-forward per checkpoint restore.
func ResumeRNG(s RNGState) *RNG {
	g := NewRNG(s.Seed)
	for i := uint64(0); i < s.Draws; i++ {
		g.src.src.Uint64()
	}
	g.src.draws = s.Draws
	return g
}

// Split derives a new independent generator from this one. The derived
// stream is a deterministic function of the parent's state, so splitting at
// the same point in a run always yields the same child stream.
func (g *RNG) Split() *RNG {
	return NewRNG(g.r.Int63())
}

// Reseed resets the generator to the exact state of a fresh NewRNG(seed):
// same value stream, draw counter back at zero. It lets pooled scratch
// generators (parallel.Pool's per-task children) be reused without
// reallocating the ~5KB lagged-Fibonacci source on every fan-out.
func (g *RNG) Reseed(seed int64) {
	g.src.Seed(seed)
}

// Float64 returns a uniform sample in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Uniform returns a uniform sample in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.r.Float64()
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a non-negative uniform 63-bit integer.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Normal returns a sample from N(mu, sigma^2).
func (g *RNG) Normal(mu, sigma float64) float64 {
	return mu + sigma*g.r.NormFloat64()
}

// StdNormal returns a sample from N(0, 1).
func (g *RNG) StdNormal() float64 { return g.r.NormFloat64() }

// NormalVec fills a new length-n vector with independent N(mu, sigma^2)
// samples.
func (g *RNG) NormalVec(n int, mu, sigma float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = g.Normal(mu, sigma)
	}
	return v
}

// UniformVec fills a new length-n vector with independent Uniform(lo, hi)
// samples.
func (g *RNG) UniformVec(n int, lo, hi float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = g.Uniform(lo, hi)
	}
	return v
}

// Bernoulli returns true with probability p.
func (g *RNG) Bernoulli(p float64) bool { return g.r.Float64() < p }

// Poisson returns a sample from a Poisson distribution with mean lambda,
// using Knuth's method for small lambda and a normal approximation for
// large lambda. Values are clamped at zero.
func (g *RNG) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		// Normal approximation with continuity correction.
		n := int(math.Round(g.Normal(lambda, math.Sqrt(lambda))))
		if n < 0 {
			n = 0
		}
		return n
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= g.r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Perm returns a pseudo-random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle pseudo-randomly permutes n elements using the provided swap
// function, mirroring rand.Shuffle.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }
