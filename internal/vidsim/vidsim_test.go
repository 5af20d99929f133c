package vidsim

import (
	"math"
	"testing"

	"videodrift/internal/stats"
)

func TestLerpEndpoints(t *testing.T) {
	a, b := Day(), Night()
	if got := Lerp(a, b, 0); got.Background != a.Background || got.Name != "day" {
		t.Errorf("Lerp t=0 = %+v", got)
	}
	if got := Lerp(a, b, 1); got.Background != b.Background || got.Name != "night" {
		t.Errorf("Lerp t=1 = %+v", got)
	}
	mid := Lerp(a, b, 0.5)
	want := (a.Background + b.Background) / 2
	if math.Abs(mid.Background-want) > 1e-12 {
		t.Errorf("Lerp t=0.5 background = %v, want %v", mid.Background, want)
	}
	if mid.Name != "night" { // t >= 0.5 takes b's identity
		t.Errorf("Lerp t=0.5 name = %q", mid.Name)
	}
}

func TestLerpMonotone(t *testing.T) {
	a, b := Night(), Day() // background 0.10 -> 0.75
	prev := -1.0
	for _, tt := range []float64{0, 0.25, 0.5, 0.75, 1} {
		bg := Lerp(a, b, tt).Background
		if bg < prev {
			t.Fatalf("Lerp background not monotone at t=%v", tt)
		}
		prev = bg
	}
}

func TestGeneratorFrameShape(t *testing.T) {
	g := NewSceneGenerator(Day(), 32, 24, stats.NewRNG(1))
	f := g.Next()
	if f.W != 32 || f.H != 24 || len(f.Pixels) != 32*24 {
		t.Fatalf("frame shape %dx%d len %d", f.W, f.H, len(f.Pixels))
	}
	for _, p := range f.Pixels {
		if p < 0 || p > 1 || math.IsNaN(p) {
			t.Fatalf("pixel out of range: %v", p)
		}
	}
	if f.Condition != "day" {
		t.Errorf("condition = %q", f.Condition)
	}
}

func TestGeneratorSteadyStateObjectCount(t *testing.T) {
	cond := Day() // CarRate+BusRate = 9
	g := NewSceneGenerator(cond, 32, 32, stats.NewRNG(2))
	var w stats.Welford
	for i := 0; i < 2000; i++ {
		f := g.Next()
		w.Add(float64(len(f.Truth)))
	}
	// Burst dynamics inflate the steady-state mean above the nominal rate
	// (the spawner responds faster to rising targets than falling ones);
	// dataset-level rates are calibrated against this in condition.go.
	want := cond.CarRate + cond.BusRate
	if w.Mean() < 0.9*want || w.Mean() > 1.5*want {
		t.Errorf("mean objects/frame = %v, want within [%.1f, %.1f]", w.Mean(), 0.9*want, 1.5*want)
	}
	if w.StdDev() < 1 {
		t.Errorf("object count stddev = %v, want bursty traffic", w.StdDev())
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := NewSceneGenerator(Night(), 16, 16, stats.NewRNG(3))
	b := NewSceneGenerator(Night(), 16, 16, stats.NewRNG(3))
	for i := 0; i < 10; i++ {
		fa, fb := a.Next(), b.Next()
		if fa.Pixels.Dist(fb.Pixels) != 0 {
			t.Fatalf("same-seed generators diverged at frame %d", i)
		}
	}
}

// TestTemporalCorrelation verifies consecutive frames are more similar
// than frames far apart — the video property that breaks naive i.i.d.
// assumptions and motivates the paper's VAE sampling step.
func TestTemporalCorrelation(t *testing.T) {
	g := NewSceneGenerator(Day(), 32, 32, stats.NewRNG(4))
	frames := make([]Frame, 200)
	for i := range frames {
		frames[i] = g.Next()
	}
	adjacent, distant := 0.0, 0.0
	n := 0
	for i := 0; i+100 < len(frames); i += 5 {
		adjacent += frames[i].Pixels.Dist(frames[i+1].Pixels)
		distant += frames[i].Pixels.Dist(frames[i+100].Pixels)
		n++
	}
	if adjacent >= distant {
		t.Errorf("adjacent distance %v >= distant %v — no temporal correlation", adjacent/float64(n), distant/float64(n))
	}
}

func TestConditionsSeparateInPixelSpace(t *testing.T) {
	meanBrightness := func(c Condition, seed int64) float64 {
		g := NewSceneGenerator(c, 24, 24, stats.NewRNG(seed))
		total := 0.0
		for i := 0; i < 50; i++ {
			total += g.Next().Pixels.Mean()
		}
		return total / 50
	}
	day := meanBrightness(Day(), 5)
	night := meanBrightness(Night(), 6)
	if day-night < 0.25 {
		t.Errorf("day %v vs night %v brightness too close", day, night)
	}
	rain := meanBrightness(RainCond(), 7)
	if !(night < rain && rain < day) {
		t.Errorf("expected night < rain < day, got %v %v %v", night, rain, day)
	}
}

func TestAngleConditionsDiffer(t *testing.T) {
	a1 := Angle(1, 17, -1)
	a2 := Angle(2, 17, -1)
	if a1.BandLo == a2.BandLo && a1.ObjScale == a2.ObjScale && a1.Background == a2.Background {
		t.Error("consecutive angles have identical geometry")
	}
	// Tokyo-style similarity: angle 3 similar to 1 pulls band toward 1.
	a3sim := Angle(3, 19, 1)
	a3 := Angle(3, 19, -1)
	d := func(x, y Condition) float64 {
		return math.Abs(x.BandLo-y.BandLo) + math.Abs(x.BandHi-y.BandHi)
	}
	if d(a3sim, a1) >= d(a3, a1) {
		t.Error("similarTo did not pull angle 3 toward angle 1")
	}
}

func TestFrameCountClass(t *testing.T) {
	f := Frame{W: 10, H: 10, Truth: []Object{
		{Class: Car, X: 5, Y: 5},
		{Class: Car, X: -3, Y: 5}, // outside
		{Class: Bus, X: 2, Y: 2},
	}}
	if got := f.CountClass(Car); got != 1 {
		t.Errorf("CountClass(Car) = %d", got)
	}
	if got := f.CountClass(Bus); got != 1 {
		t.Errorf("CountClass(Bus) = %d", got)
	}
}

func TestObjectEdges(t *testing.T) {
	o := Object{X: 10, Y: 20, W: 4, H: 6}
	if o.Left() != 8 || o.Right() != 12 || o.Top() != 17 || o.Bottom() != 23 {
		t.Errorf("edges = %v %v %v %v", o.Left(), o.Right(), o.Top(), o.Bottom())
	}
}

func TestStreamScriptBasics(t *testing.T) {
	s := NewStream(16, 16, 9,
		Segment{Cond: Day(), Length: 30},
		Segment{Cond: Night(), Length: 20},
		Segment{Cond: RainCond(), Length: 10},
	)
	if got := s.TotalLength(); got != 60 {
		t.Errorf("TotalLength = %d", got)
	}
	pts := s.DriftPoints()
	if len(pts) != 2 || pts[0] != 30 || pts[1] != 50 {
		t.Errorf("DriftPoints = %v", pts)
	}
	frames := s.Collect(-1)
	if len(frames) != 60 {
		t.Fatalf("Collect got %d frames", len(frames))
	}
	for i, f := range frames {
		if f.Index != i {
			t.Fatalf("frame %d has index %d", i, f.Index)
		}
	}
	if frames[29].Condition != "day" || frames[30].Condition != "night" {
		t.Errorf("conditions around drift: %q -> %q", frames[29].Condition, frames[30].Condition)
	}
	// Exhausted stream keeps returning false.
	if _, ok := s.Next(); ok {
		t.Error("exhausted stream returned a frame")
	}
}

func TestStreamAbruptDriftShiftsBrightness(t *testing.T) {
	s := NewStream(24, 24, 10,
		Segment{Cond: Day(), Length: 50},
		Segment{Cond: Night(), Length: 50},
	)
	frames := s.Collect(-1)
	pre, post := 0.0, 0.0
	for i := 25; i < 50; i++ {
		pre += frames[i].Pixels.Mean()
	}
	for i := 50; i < 75; i++ {
		post += frames[i].Pixels.Mean()
	}
	if (pre-post)/25 < 0.3 {
		t.Errorf("abrupt day->night shift too small: pre %v post %v", pre/25, post/25)
	}
}

func TestStreamGradualTransition(t *testing.T) {
	s := NewStream(24, 24, 11,
		Segment{Cond: Day(), Length: 100},
		Segment{Cond: Night(), Length: 200, TransitionLen: 100},
	)
	frames := s.Collect(-1)
	avg := func(lo, hi int) float64 {
		total := 0.0
		for i := lo; i < hi; i++ {
			total += frames[i].Pixels.Mean()
		}
		return total / float64(hi-lo)
	}
	day := avg(50, 100)
	mid := avg(140, 160)
	night := avg(250, 300)
	if !(night < mid && mid < day) {
		t.Errorf("gradual drift not monotone: day %v mid %v night %v", day, mid, night)
	}
	if day-mid < 0.1 || mid-night < 0.1 {
		t.Errorf("midpoint not intermediate: day %v mid %v night %v", day, mid, night)
	}
}

func TestStreamResetDeterminism(t *testing.T) {
	s := NewStream(16, 16, 12, Segment{Cond: Day(), Length: 20})
	first := s.Collect(-1)
	s.Reset()
	second := s.Collect(-1)
	if len(first) != len(second) {
		t.Fatalf("lengths differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i].Pixels.Dist(second[i].Pixels) != 0 {
			t.Fatalf("Reset not deterministic at frame %d", i)
		}
	}
}

func TestStreamValidation(t *testing.T) {
	for i, fn := range []func(){
		func() { NewStream(8, 8, 1) },
		func() { NewStream(8, 8, 1, Segment{Cond: Day(), Length: 0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestGenerateTraining(t *testing.T) {
	frames := GenerateTraining(SnowCond(), 16, 16, 25, 13)
	if len(frames) != 25 {
		t.Fatalf("got %d frames", len(frames))
	}
	for _, f := range frames {
		if f.Condition != "snow" {
			t.Fatalf("condition = %q", f.Condition)
		}
	}
	// Deterministic for a given seed.
	again := GenerateTraining(SnowCond(), 16, 16, 25, 13)
	if frames[10].Pixels.Dist(again[10].Pixels) != 0 {
		t.Error("GenerateTraining not deterministic")
	}
}

// TestRenderIntoAllocatesNothing: a frame rendered into a warm frame's
// arrays — every frame a training stream skips, and every one it yields —
// allocates nothing, under each weather.
func TestRenderIntoAllocatesNothing(t *testing.T) {
	for _, c := range []Condition{Day(), RainCond(), SnowCond()} {
		g := NewSceneGenerator(c, 32, 32, stats.NewRNG(5))
		var f Frame
		for i := 0; i < 20; i++ {
			g.nextInto(&f)
		}
		if a := testing.AllocsPerRun(200, func() { g.nextInto(&f) }); a != 0 {
			t.Errorf("%s: %v allocations a frame, want 0", c.Name, a)
		}
	}
}

func TestWeatherEffectsChangePixels(t *testing.T) {
	for _, w := range []Weather{Rain, Snow} {
		cond := RainCond()
		cond.Weather = w
		cond.WeatherIx = 0.8
		clear := cond
		clear.Weather = Clear
		// Same seed → identical dynamics on the first frame; only the
		// weather overlay differs, and it only ever brightens pixels.
		fw := NewSceneGenerator(cond, 24, 24, stats.NewRNG(14)).Next()
		fc := NewSceneGenerator(clear, 24, 24, stats.NewRNG(14)).Next()
		changed := 0
		for i := range fw.Pixels {
			if fw.Pixels[i] > fc.Pixels[i] {
				changed++
			}
			if fw.Pixels[i] < fc.Pixels[i]-1e-12 {
				t.Fatalf("%v weather darkened pixel %d", w, i)
			}
		}
		if changed == 0 {
			t.Errorf("%v weather changed no pixels", w)
		}
	}
}

func TestWeatherString(t *testing.T) {
	if Clear.String() != "clear" || Rain.String() != "rain" || Snow.String() != "snow" {
		t.Error("Weather.String() wrong")
	}
	if Car.String() != "car" || Bus.String() != "bus" {
		t.Error("Class.String() wrong")
	}
}
