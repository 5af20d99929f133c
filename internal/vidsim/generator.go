package vidsim

import (
	"math"

	"videodrift/internal/stats"
	"videodrift/internal/tensor"
)

// SceneGenerator renders a temporally correlated sequence of frames from a
// Condition: objects persist and move across frames, the global background
// brightness follows an AR(1) process, and traffic intensity is an AR(1)
// multiplier producing the bursty counts real traffic video shows. It is
// not safe for concurrent use.
type SceneGenerator struct {
	cond Condition
	w, h int
	rng  *stats.RNG

	bg      float64 // AR(1) background state
	traffic float64 // AR(1) traffic multiplier around 1
	objects []movingObject
	frame   int
}

type movingObject struct {
	obj Object
	vx  float64
}

// NewSceneGenerator creates a generator for w×h frames under cond, seeded
// from rng. The initial object population is drawn at the condition's
// steady state so the first frame is already typical of the distribution.
func NewSceneGenerator(cond Condition, w, h int, rng *stats.RNG) *SceneGenerator {
	g := &SceneGenerator{cond: cond, w: w, h: h, rng: rng, bg: cond.Background, traffic: 1}
	// Steady-state initial population.
	n := rng.Poisson(cond.CarRate + cond.BusRate)
	for i := 0; i < n; i++ {
		o := g.spawn()
		o.obj.X = rng.Uniform(0, float64(w))
		g.objects = append(g.objects, o)
	}
	return g
}

// Condition returns the generator's current condition.
func (g *SceneGenerator) Condition() Condition { return g.cond }

// SetCondition replaces the generator's condition. Existing objects
// persist (their appearance was fixed at spawn), so repeatedly nudging the
// condition produces a gradual drift, while a large jump produces an
// abrupt one.
func (g *SceneGenerator) SetCondition(cond Condition) { g.cond = cond }

// spawn draws a new object entering at the upstream edge.
func (g *SceneGenerator) spawn() movingObject {
	c := g.cond
	isBus := g.rng.Bernoulli(c.BusRate / math.Max(c.CarRate+c.BusRate, 1e-9))
	var o Object
	if isBus {
		o.Class = Bus
		o.W = (8 + g.rng.Normal(0, 0.8)) * c.ObjScale
		o.H = (4 + g.rng.Normal(0, 0.4)) * c.ObjScale
		o.Intensity = c.BusIntensity + g.rng.Normal(0, c.ObjNoise)
	} else {
		o.Class = Car
		o.W = (5 + g.rng.Normal(0, 0.6)) * c.ObjScale
		o.H = (3 + g.rng.Normal(0, 0.3)) * c.ObjScale
		o.Intensity = c.CarIntensity + g.rng.Normal(0, c.ObjNoise)
	}
	o.W = math.Max(o.W, 2)
	o.H = math.Max(o.H, 1.5)
	o.Intensity = clamp01(o.Intensity)
	o.Y = g.rng.Uniform(c.BandLo, c.BandHi) * float64(g.h)
	vx := c.SpeedX + g.rng.Normal(0, c.SpeedVar)
	if vx == 0 {
		vx = 0.5
	}
	if vx > 0 {
		o.X = -o.W / 2
	} else {
		o.X = float64(g.w) + o.W/2
	}
	return movingObject{obj: o, vx: vx}
}

// step advances dynamics by one frame: AR(1) states, object motion,
// despawn, and Poisson arrivals at the condition's steady-state rate.
func (g *SceneGenerator) step() {
	c := g.cond
	// AR(1) background brightness around the condition mean.
	g.bg += 0.1*(c.Background-g.bg) + g.rng.Normal(0, c.BgDrift)
	g.bg = clamp01(g.bg)
	// AR(1) traffic multiplier around 1 (overdispersion knob; its
	// stationary spread scales with Burst and produces the heavy
	// objects-per-frame std of Table 5). The reversion rate keeps the
	// burst correlation time near ~17 frames, so evaluation windows of a
	// few hundred frames mix over many burst cycles.
	g.traffic += 0.06*(1-g.traffic) + g.rng.Normal(0, 0.075*c.Burst)
	g.traffic = math.Max(g.traffic, 0.1)

	// Move and cull.
	kept := g.objects[:0]
	departed := 0
	for _, m := range g.objects {
		m.obj.X += m.vx
		if m.obj.Right() >= 0 && m.obj.Left() <= float64(g.w) {
			kept = append(kept, m)
		} else {
			departed++
		}
	}
	g.objects = kept

	// Arrivals: replace this frame's departures one-for-one and add a
	// deficit correction toward rate·traffic. The replacement term keeps
	// the stationary mean at the target (a pure deficit controller
	// equilibrates below it, by departures/gain); the AR(1) traffic
	// multiplier and the Poisson arrivals supply the burstiness real
	// traffic shows.
	target := (c.CarRate + c.BusRate) * g.traffic
	lambda := float64(departed)
	if deficit := target - float64(len(g.objects)); deficit > 0 {
		lambda += 0.2 * deficit
	}
	for i := 0; i < g.rng.Poisson(lambda); i++ {
		g.objects = append(g.objects, g.spawn())
	}
}

// Next renders and returns the next frame in the sequence.
func (g *SceneGenerator) Next() Frame {
	var f Frame
	g.nextInto(&f)
	return f
}

// nextInto renders the next frame into f, over f's own Pixels and Truth
// arrays when they are large enough: the frame Next returns, bit for bit,
// with the same draws, and no allocation once f is warm. Every pixel is
// written, so what f held before does not matter.
func (g *SceneGenerator) nextInto(f *Frame) {
	g.step()
	c := g.cond
	px := f.Pixels.Resize(g.w * g.h)
	for i := range px {
		px[i] = clamp01(g.bg + g.rng.Normal(0, c.BgNoise))
	}
	truth := f.Truth[:0]
	if truth == nil || cap(truth) < len(g.objects) {
		truth = make([]Object, 0, len(g.objects))
	}
	for _, m := range g.objects {
		g.drawRect(px, m.obj)
		truth = append(truth, m.obj)
	}
	g.applyWeather(px)
	*f = Frame{Index: g.frame, W: g.w, H: g.h, Pixels: px, Truth: truth, Condition: c.Name}
	g.frame++
}

// drawRect rasterizes an object's bounding box at its intensity with a
// little per-pixel noise. The painted extent is round(W)×round(H) pixels,
// so rendered sizes match the nominal object geometry that detector
// templates are built from.
func (g *SceneGenerator) drawRect(px tensor.Vector, o Object) {
	x0 := int(math.Round(o.Left()))
	y0 := int(math.Round(o.Top()))
	x1 := x0 + int(math.Round(o.W)) - 1
	y1 := y0 + int(math.Round(o.H)) - 1
	x0 = max(x0, 0)
	y0 = max(y0, 0)
	x1 = min(x1, g.w-1)
	y1 = min(y1, g.h-1)
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			px[y*g.w+x] = clamp01(o.Intensity + g.rng.Normal(0, g.cond.ObjNoise/2))
		}
	}
}

// applyWeather adds the condition's weather effect in place.
func (g *SceneGenerator) applyWeather(px tensor.Vector) {
	c := g.cond
	if c.Weather == Clear || c.WeatherIx <= 0 {
		return
	}
	switch c.Weather {
	case Rain:
		// Diagonal bright streaks.
		streaks := int(c.WeatherIx * float64(g.w) / 3)
		for s := 0; s < streaks; s++ {
			x := g.rng.Intn(g.w)
			y := g.rng.Intn(g.h)
			length := 3 + g.rng.Intn(4)
			for k := 0; k < length; k++ {
				xx, yy := x+k, y+k
				if xx < g.w && yy < g.h {
					i := yy*g.w + xx
					px[i] = clamp01(px[i] + 0.25*c.WeatherIx)
				}
			}
		}
	case Snow:
		// Random bright speckles.
		flakes := int(c.WeatherIx * float64(len(px)) * 0.02)
		for s := 0; s < flakes; s++ {
			i := g.rng.Intn(len(px))
			px[i] = clamp01(px[i] + 0.35)
		}
	}
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
