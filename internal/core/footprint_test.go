package core

import (
	"reflect"
	"slices"
	"testing"

	"videodrift/internal/classifier"
	"videodrift/internal/vidsim"
)

// floatSlices walks everything reachable from roots — unexported fields
// included — and calls fn with the first element's address and the length
// of every non-empty []float64 (tensor.Vector, frame pixels, weights).
// Pointers in skip are not followed.
func floatSlices(fn func(first *float64, n int), skip map[uintptr]bool, roots ...any) {
	seen := map[uintptr]bool{}
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() || seen[v.Pointer()] || skip[v.Pointer()] {
				return
			}
			seen[v.Pointer()] = true
			walk(v.Elem())
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Map:
			for it := v.MapRange(); it.Next(); {
				walk(it.Value())
			}
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Slice:
			if v.Len() == 0 {
				return
			}
			if v.Type().Elem().Kind() == reflect.Float64 {
				fn((*float64)(v.Index(0).Addr().UnsafePointer()), v.Len())
				return
			}
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		}
	}
	for _, r := range roots {
		walk(reflect.ValueOf(r))
	}
}

// TestEntryFootprint pins what an entry may hold on to: Σ_{T_i} in the
// 4-d feature space the measure reads, A_i, and the networks. A frame's
// worth of float64s reachable from an entry is a pixel-space sample that
// nothing reads — 100 per model, 0.8 MB each in a checkpoint, a delta and
// the standby — and on a served model it pins the wire frames the model
// was trained on for the life of the process.
func TestEntryFootprint(t *testing.T) {
	frames := streamFrames(fogCond(), 120, 31)
	for _, src := range []SampleSource{SourceHeldOut, SourceVAE} {
		cfg := quickProvision(5)
		cfg.Source = src
		e := Provision("fog", slices.Values(frames), testLabeler, cfg)
		// The VAE's own output bias is W·H long by construction.
		skip := map[uintptr]bool{}
		if e.VAE != nil {
			skip[reflect.ValueOf(e.VAE).Pointer()] = true
		}
		vectors, frameSized := 0, 0
		floatSlices(func(_ *float64, n int) {
			vectors++
			if n == testDim {
				frameSized++
			}
		}, skip, e)
		if vectors < len(e.SampleFeats) {
			t.Fatalf("source %d: the walk found %d float vectors under an entry with %d reference features", src, vectors, len(e.SampleFeats))
		}
		if frameSized != 0 {
			t.Errorf("source %d: %d vectors of W·H = %d float64s are reachable from a provisioned entry", src, frameSized, testDim)
		}
		// A fitted network holds its weights and nothing else: Fit drops
		// the optimizer's moments, the gradient accumulators and the
		// forward/backward scratch, three times the weights again.
		nets := append([]*classifier.Classifier{e.Classifier}, e.Ensemble.Members...)
		for i, c := range nets {
			held := 0
			floatSlices(func(_ *float64, n int) { held += n }, nil, c)
			cc := c.Config()
			if weights := cc.InputDim*cc.HiddenDim + cc.HiddenDim + cc.HiddenDim*cc.NumClasses + cc.NumClasses; held != weights {
				t.Errorf("source %d, network %d: %d float64s reachable from a fitted classifier, want its %d weights", src, i, held, weights)
			}
		}
	}

	// A served training: none of the collected frames survives in the table.
	f := getFixture()
	pcfg := DefaultPipelineConfig(testDim, testNumClasses)
	pcfg.Selector = SelectorMSBI
	pcfg.Provision = quickProvision(42)
	p := NewPipeline(NewRegistry(f.day, f.night), testLabeler, pcfg)
	p.buffer = vidsim.KeepAll(frames) // full precision: held as float64
	e, err := p.trainNewModel()
	if err != nil {
		t.Fatal(err)
	}
	p.reg.Add(e)
	collected := map[*float64]bool{}
	floatSlices(func(first *float64, _ int) { collected[first] = true }, nil, p.buffer)
	if len(collected) != len(frames) {
		t.Fatalf("the walk found %d pixel arrays under a window of %d full-precision frames", len(collected), len(frames))
	}
	floatSlices(func(first *float64, _ int) {
		if collected[first] {
			t.Error("the registry still holds the pixels of a collected frame after training")
		}
	}, nil, p.reg.Entries())
}

// TestWindowFootprint pins what a selection/training window costs: a
// frame off the wire was float32, so the window holds its wire bytes, 4 B
// a pixel; a full-precision frame is held whole, 8 B a pixel.
func TestWindowFootprint(t *testing.T) {
	f := getFixture()
	day, fog := streamFrames(dayC(), 100, 25), streamFrames(fogCond(), 200, 26)
	for _, wire := range []bool{true, false} {
		cfg := DefaultPipelineConfig(testDim, testNumClasses)
		cfg.Selector = SelectorMSBI
		cfg.Provision = quickProvision(42)
		p := NewPipeline(NewRegistry(f.day), testLabeler, cfg)
		px := make([]float64, testDim)
		for _, fr := range append(slices.Clone(day), fog...) {
			if wire {
				for i, v := range fr.Pixels {
					px[i] = float64(float32(v))
				}
				fr.Pixels = px
			}
			p.Process(fr)
			if p.state == stateTraining && len(p.buffer) >= 50 {
				break
			}
		}
		if p.state != stateTraining {
			t.Fatalf("wire %v: the fixture never reached a training window", wire)
		}
		perPixel := 8
		if wire {
			perPixel = 4
		}
		if got, want := pixelBytes(p.buffer), perPixel*testDim*len(p.buffer); got != want {
			t.Errorf("wire %v: a window of %d frames holds %d pixel bytes, want %d (%d B a pixel)", wire, len(p.buffer), got, want, perPixel)
		}
	}
}

// pixelBytes sums the bytes of every []float32 and []float64 a list of
// held frames reaches, unexported fields included.
func pixelBytes(held []vidsim.Held) int {
	n := 0
	for _, h := range held {
		v := reflect.ValueOf(h)
		for i := 0; i < v.NumField(); i++ {
			if fv := v.Field(i); fv.Kind() == reflect.Slice {
				n += fv.Len() * int(fv.Type().Elem().Size())
			}
		}
	}
	return n
}
