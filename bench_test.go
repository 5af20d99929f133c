package videodrift

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (driving the runners in internal/experiments at a reduced
// scale — `go run ./cmd/driftbench` regenerates the committed full-scale
// numbers in EXPERIMENTS.md), plus micro-benchmarks for the hot paths
// behind the per-frame cost tables.

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"videodrift/internal/classifier"
	"videodrift/internal/conformal"
	"videodrift/internal/core"
	"videodrift/internal/dataset"
	"videodrift/internal/detect"
	"videodrift/internal/experiments"
	"videodrift/internal/odin"
	"videodrift/internal/query"
	"videodrift/internal/stats"
	"videodrift/internal/telemetry"
	"videodrift/internal/tensor"
	"videodrift/internal/vidsim"
	"videodrift/internal/vision"
)

func benchConfig() experiments.Config { return experiments.QuickConfig() }

// BenchmarkTable5DatasetStats regenerates Table 5 (dataset characteristics).
func BenchmarkTable5DatasetStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.RunTable5(benchConfig())
	}
}

// BenchmarkFig3DriftDetectionLag regenerates Figure 3 / Table 6 (drift
// detection lag and monitoring time, DI vs ODIN-Detect) per dataset.
func BenchmarkFig3DriftDetectionLag(b *testing.B) {
	cfg := benchConfig()
	for _, ds := range dataset.All(cfg.Scale) {
		b.Run(ds.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				experiments.RunFig3(ds, cfg)
			}
		})
	}
}

// BenchmarkTable6DriftDetectionTime isolates the Table 6 monitoring-time
// comparison on the Detrac analog.
func BenchmarkTable6DriftDetectionTime(b *testing.B) {
	cfg := benchConfig()
	ds := dataset.Detrac(cfg.Scale)
	env := experiments.BuildEnvUnsupervised(ds, cfg)
	frames := ds.TransitionStream(1, 300, 300).Collect(-1)
	b.Run("DI", func(b *testing.B) {
		di := core.NewDriftInspector(env.Registry.Entries()[0], core.DefaultDIConfig(), stats.NewRNG(1))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			di.ObserveFrame(frames[i%len(frames)])
		}
	})
	b.Run("ODIN-Detect", func(b *testing.B) {
		od := odin.NewDetector(odin.DefaultConfig(), ds.W, ds.H)
		od.Bootstrap(ds.TrainingFrames(0, cfg.TrainFrames))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			od.Observe(frames[i%len(frames)])
		}
	})
}

// BenchmarkFig4SlowDrift regenerates Figure 4 (slow-drift detection).
func BenchmarkFig4SlowDrift(b *testing.B) {
	cfg := benchConfig()
	cfg.Scale = 0.05
	for i := 0; i < b.N; i++ {
		experiments.RunFig4(cfg)
	}
}

// BenchmarkFig5BrierVsAccuracy regenerates Figure 5 (accuracy vs Brier
// separation on BDD).
func BenchmarkFig5BrierVsAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.RunFig5(benchConfig())
	}
}

// BenchmarkFig6ModelInvocations regenerates Figure 6 (model invocations
// per frame) on the Tokyo analog.
func BenchmarkFig6ModelInvocations(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		experiments.RunFig6(dataset.Tokyo(cfg.Scale), cfg)
	}
}

// BenchmarkTable7PerFrameSelection measures the per-frame cost of the
// three selection mechanisms (Table 7).
func BenchmarkTable7PerFrameSelection(b *testing.B) {
	cfg := benchConfig()
	ds := dataset.BDD(cfg.Scale)
	env := experiments.BuildEnv(ds, cfg, query.Count)
	window := ds.TransitionStream(1, 5, 64).Collect(-1)[5:]
	labeler := env.Labeler()
	th := core.CalibrateMSBO(env.Registry.Entries())
	rng := stats.NewRNG(3)

	b.Run("MSBO", func(b *testing.B) {
		msboCfg := core.DefaultMSBOConfig()
		for i := 0; i < b.N; i++ {
			// Labeling the window is part of MSBO's cost (the paper's
			// Table 7 numbers include Mask R-CNN annotation).
			samplesWin := makeLabeledWindow(env, window[:msboCfg.WT], labeler)
			core.MSBO(samplesWin, env.Registry.Entries(), th, msboCfg)
		}
	})
	b.Run("MSBI", func(b *testing.B) {
		msbiCfg := core.DefaultMSBIConfig()
		held := vidsim.KeepAll(window)
		for i := 0; i < b.N; i++ {
			core.MSBI(held, env.Registry.Entries(), msbiCfg, rng.Split())
		}
	})
	b.Run("ODIN-Select", func(b *testing.B) {
		sys := env.NewODIN()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sys.Process(window[i%len(window)])
		}
	})
}

// BenchmarkTable8SelectionTime regenerates the full Table 7/8 measurement.
func BenchmarkTable8SelectionTime(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		experiments.RunTable8(dataset.BDD(cfg.Scale), cfg)
	}
}

// BenchmarkTable9EndToEnd regenerates Table 9 / Figure 7 on the BDD analog.
func BenchmarkTable9EndToEnd(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		experiments.RunEndToEnd(dataset.BDD(cfg.Scale), cfg, query.Count)
	}
}

// BenchmarkFig7CountAccuracy regenerates the count-query accuracy series
// (Figure 7) on the Detrac analog.
func BenchmarkFig7CountAccuracy(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		experiments.RunEndToEnd(dataset.Detrac(cfg.Scale), cfg, query.Count)
	}
}

// BenchmarkFig8SpatialAccuracy regenerates the spatial-query accuracy
// series (Figure 8) on the BDD analog.
func BenchmarkFig8SpatialAccuracy(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		experiments.RunEndToEnd(dataset.BDD(cfg.Scale), cfg, query.Spatial)
	}
}

// --- Micro-benchmarks for the hot paths ---

func benchFrame() vidsim.Frame {
	g := vidsim.NewSceneGenerator(vidsim.Day(), 32, 32, stats.NewRNG(9))
	return g.Next()
}

// servedFrames is what the featurizers see on a server: 512 32×32 frames,
// half of them the benchmark's stationary night condition and half one of
// its unseen camera angles, float32-quantised as the wire delivers them.
// Rotating through them keeps the branch predictor from learning one
// frame's outlier pattern, which a single replayed frame lets it do.
func servedFrames() []vidsim.Frame {
	frames := append(vidsim.GenerateTraining(vidsim.Night(), 32, 32, 256, 9),
		vidsim.GenerateTraining(vidsim.Angle(2, 17, -1), 32, 32, 256, 10)...)
	for _, f := range frames {
		for i, p := range f.Pixels {
			f.Pixels[i] = float64(float32(p))
		}
	}
	return frames
}

// BenchmarkFeaturize measures the drift-feature extraction per frame.
func BenchmarkFeaturize(b *testing.B) {
	frames := servedFrames()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := frames[i%len(frames)]
		vision.Featurize(f.Pixels, f.W, f.H)
	}
}

// BenchmarkQueryFeatures measures the classifier front-end per frame.
func BenchmarkQueryFeatures(b *testing.B) {
	frames := servedFrames()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := frames[i%len(frames)]
		vision.QueryFeatures(f.Pixels, f.W, f.H)
	}
}

// BenchmarkDriftInspectorObserve measures Algorithm 1 per sampled frame.
func BenchmarkDriftInspectorObserve(b *testing.B) {
	frames := vidsim.GenerateTraining(vidsim.Day(), 32, 32, 300, 10)
	p := core.DefaultProvisionConfig(1024, 2)
	entry := core.Provision("day", slices.Values(frames), nil, p)
	cfg := core.DefaultDIConfig()
	cfg.SampleEvery = 1 // measure the full update, not the skip path
	di := core.NewDriftInspector(entry, cfg, stats.NewRNG(11))
	f := benchFrame()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		di.Observe(f.Pixels)
	}
}

// BenchmarkMartingaleUpdate measures the CUSUM update alone.
func BenchmarkMartingaleUpdate(b *testing.B) {
	c := conformal.NewCUSUM(conformal.ShiftedOdd(4), 2, 4)
	rng := stats.NewRNG(12)
	ps := rng.UniformVec(1024, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Update(ps[i%len(ps)])
	}
}

// BenchmarkDetectorsPerFrame measures the two detector baselines (the
// Table 9 per-frame costs; maskrcnn-sim is also the annotator every
// training labels its frames with). Its allocations are gated: the
// window-bound tables live on the call's stack, and a detector that
// allocates them per call shows up as allocs/op.
func BenchmarkDetectorsPerFrame(b *testing.B) {
	f := benchFrame()
	b.Run("maskrcnn-sim", func(b *testing.B) {
		det := detect.NewMaskRCNNSim()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			det.Detect(f)
		}
	})
	b.Run("yolo-sim", func(b *testing.B) {
		det := detect.NewYOLOSim()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			det.Detect(f)
		}
	})
}

// BenchmarkAblationSampleSource compares the two Σ sources (held-out real
// frames vs VAE-decoded samples) on one DI update — the DESIGN.md §2
// substitution ablation.
func BenchmarkAblationSampleSource(b *testing.B) {
	frames := vidsim.GenerateTraining(vidsim.Day(), 32, 32, 200, 13)
	f := benchFrame()
	for _, src := range []struct {
		name string
		s    core.SampleSource
	}{{"heldout", core.SourceHeldOut}, {"vae", core.SourceVAE}} {
		b.Run(src.name, func(b *testing.B) {
			p := core.DefaultProvisionConfig(1024, 2)
			p.Source = src.s
			p.VAEEpochs = 2
			entry := core.Provision("day", slices.Values(frames), nil, p)
			cfg := core.DefaultDIConfig()
			cfg.SampleEvery = 1
			di := core.NewDriftInspector(entry, cfg, stats.NewRNG(14))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				di.Observe(f.Pixels)
			}
		})
	}
}

// benchTracingPipeline builds a one-model pipeline fed in-distribution
// frames (no drift ever fires), isolating the steady-state monitoring
// path that telemetry instruments.
func benchTracingPipeline(tr *telemetry.Tracer) (*core.Pipeline, []vidsim.Frame) {
	cfg := benchConfig()
	ds := dataset.BDD(cfg.Scale)
	env := experiments.BuildEnvUnsupervised(ds, cfg)
	frames := ds.TrainingFrames(0, 256)
	pcfg := core.DefaultPipelineConfig(ds.FrameDim(), 2)
	pcfg.Selector = core.SelectorMSBI // unsupervised env has no labeler
	pcfg.Provision = env.Provision
	pcfg.Tracer = tr
	reg := core.NewRegistry(env.Registry.Entries()[0])
	return core.NewPipeline(reg, nil, pcfg), frames
}

// BenchmarkPipelineTracingOff measures the per-frame monitoring cost with
// the nil tracer — the default. BenchmarkPipelineTracingOn is the same
// loop with a live tracer; the delta is the telemetry overhead (measured
// <2% — the nil path costs one pointer compare per instrumented site, the
// live path four time.Now calls plus a mutex on sampled frames).
func BenchmarkPipelineTracingOff(b *testing.B) {
	pipe, frames := benchTracingPipeline(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipe.Process(frames[i%len(frames)])
	}
}

// BenchmarkPipelineTracingOn is the tracing-enabled counterpart of
// BenchmarkPipelineTracingOff.
func BenchmarkPipelineTracingOn(b *testing.B) {
	tr := telemetry.New(telemetry.Config{RingSize: 1024})
	pipe, frames := benchTracingPipeline(tr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipe.Process(frames[i%len(frames)])
	}
}

// makeLabeledWindow mirrors the pipeline's MSBO window construction.
func makeLabeledWindow(env *experiments.Env, frames []vidsim.Frame, labeler core.Labeler) []classifier.Sample {
	out := make([]classifier.Sample, len(frames))
	e := env.Registry.Entries()[0]
	for i, f := range frames {
		out[i] = e.QuerySample(f, labeler(f))
	}
	return out
}

// BenchmarkAblationDetectors regenerates the drift-detector design-choice
// ablation (DESIGN.md §2).
func BenchmarkAblationDetectors(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.RunAblation(benchConfig())
	}
}

// --- kNN kernel + parallel selection engine ---

// BenchmarkKNNScore compares the retained brute-force non-conformity
// scorer against the flattened-matrix fast path, at the default Σ shape
// (SampleCount × AppearanceDim, the register path every frame runs) and
// on a larger, wider Σ through the exact SqDistRow loop every other
// width takes. The fast path must stay at 0 allocs/op.
func BenchmarkKNNScore(b *testing.B) {
	for _, shape := range []struct {
		name   string
		n, dim int
	}{
		{"sigma100x4", 100, 4},   // the default Σ the Drift Inspector scores against
		{"sigma512x64", 512, 64}, // the exact loop of every width but 4
	} {
		// Reference samples of one provisioned condition concentrate, so
		// generate Σ as clusters, with the probe near one cluster.
		rng := stats.NewRNG(17)
		centers := make([]tensor.Vector, 8)
		for i := range centers {
			centers[i] = tensor.Vector(rng.UniformVec(shape.dim, 0, 1))
		}
		refs := make([]tensor.Vector, shape.n)
		for i := range refs {
			c := centers[i%len(centers)]
			noise := rng.UniformVec(shape.dim, -0.05, 0.05)
			v := c.Clone()
			for j := range v {
				v[j] += noise[j]
			}
			refs[i] = v
		}
		probe := centers[0].Clone()
		b.Run(shape.name+"/brute", func(b *testing.B) {
			m := conformal.KNN{K: 5}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.BruteScore(probe, refs)
			}
		})
		b.Run(shape.name+"/fast", func(b *testing.B) {
			s := conformal.NewKNNScorer(5, tensor.FlattenVectors(refs))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Score(probe)
			}
		})
	}
}

// BenchmarkMSBIParallel measures Algorithm 2 as the registry grows.
// Selection scores its candidates on the calling goroutine — the
// workers1 rows are the only ones left of a fan-out that read flat or
// worse at 2, 4 and 8 workers at every registry size (DESIGN.md §13) —
// and the names are kept so the committed baseline still lines up.
func BenchmarkMSBIParallel(b *testing.B) {
	for _, models := range []int{4, 8, 16} {
		entries := make([]*core.ModelEntry, models)
		for i := range entries {
			frames := vidsim.TrainingStream(vidsim.Angle(i, 5.5, -1), 16, 16, 150, vidsim.TrainingStride, int64(40+i))
			entries[i] = core.Provision(fmt.Sprintf("angle%d", i), frames, nil, core.DefaultProvisionConfig(16*16, 2))
		}
		window := vidsim.KeepAll(vidsim.GenerateTraining(vidsim.Angle(1, 5.5, -1), 16, 16, 40, 99))
		b.Run(fmt.Sprintf("models%d/workers1", models), func(b *testing.B) {
			cfg := core.DefaultMSBIConfig()
			rng := stats.NewRNG(7)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.MSBI(window, entries, cfg, rng.Split())
			}
		})
	}
}

// BenchmarkShardedThroughput measures aggregate monitoring throughput as
// shards (concurrent camera streams over the shared registry) are added:
// one frame per shard per iteration, steady-state in-distribution frames so
// no drift machinery beyond Algorithm 1 runs. The ns/frame metric is the
// per-stream cost; flat ns/frame across shard counts means linear
// aggregate throughput.
func BenchmarkShardedThroughput(b *testing.B) {
	opts := Defaults(facadeDim, facadeClasses)
	opts.Pipeline.Selector = MSBI
	day := BuildModel("day", facadeFrames(facadeCond(vidsim.Day()), 200, 51), nil, opts)
	night := BuildModel("night", facadeFrames(facadeCond(vidsim.Night()), 200, 52), nil, opts)
	models := []*Model{day, night}
	frames := facadeFrames(facadeCond(vidsim.Day()), 256, 53)
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards%d", shards), func(b *testing.B) {
			sm := fixedFleet(models, nil, ShardedOptions{Options: opts}, shards)
			batch := make([]Frame, shards)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for s := range batch {
					batch[s] = frames[(i+s)%len(frames)]
				}
				mustBatch(sm, batch)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*shards), "ns/frame")
		})
	}
}

// BenchmarkShardedThroughputBatched measures the same steady-state
// monitoring fan-out fed through ProcessBatches at growing micro-batch
// sizes. Supervision is batch-granular — one pipeline snapshot per batch
// instead of per frame — so ns/frame falls as the batch grows; batch1 is
// the cadence of BenchmarkShardedThroughput.
func BenchmarkShardedThroughputBatched(b *testing.B) {
	opts := Defaults(facadeDim, facadeClasses)
	opts.Pipeline.Selector = MSBI
	day := BuildModel("day", facadeFrames(facadeCond(vidsim.Day()), 200, 51), nil, opts)
	night := BuildModel("night", facadeFrames(facadeCond(vidsim.Night()), 200, 52), nil, opts)
	models := []*Model{day, night}
	frames := facadeFrames(facadeCond(vidsim.Day()), 256, 53)
	const shards = 4
	for _, size := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("shards%d/batch%d", shards, size), func(b *testing.B) {
			sm := fixedFleet(models, nil, ShardedOptions{Options: opts}, shards)
			batches := make([][]Frame, shards)
			for s := range batches {
				batches[s] = make([]Frame, size)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for s := range batches {
					for j := range batches[s] {
						batches[s][j] = frames[(i*size+j+s)%len(frames)]
					}
				}
				mustBatches(sm, batches)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*shards*size), "ns/frame")
		})
	}
}

// servingConfig is driftserve's `-scale 0.02 -train 300`, the benchmark's.
func servingConfig() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Scale = 0.02
	return cfg
}

// BenchmarkProvision measures one serving-time training — what
// Pipeline.trainNewModel pays after a drift no model fits: 300 frames of
// one BDD condition labelled, Σ and A_i drawn, a 20-epoch classifier fit
// and, under MSBO only (full), the L = 3 ensemble; an MSBI pipeline
// provisions lean.
func BenchmarkProvision(b *testing.B) {
	cfg := servingConfig()
	env := experiments.BuildEnvShell(dataset.BDD(cfg.Scale), cfg, query.Count)
	frames := env.DS.TrainingFrames(1, cfg.TrainFrames)
	for _, tc := range []struct {
		name string
		sel  Selector
	}{{"full", MSBO}, {"lean", MSBI}} {
		b.Run(tc.name, func(b *testing.B) {
			p := env.PipelineConfig(tc.sel).Provision.For(tc.sel)
			for i := 0; i < b.N; i++ {
				core.Provision("novel", slices.Values(frames), env.Labeler(), p)
			}
		})
	}
}

// BenchmarkBuildEnv measures driftserve's set-up under the default
// -selector msbi (`-scale 0.02 -train 300`): the four BDD sequences
// provisioned concurrently, each labelled, featurized and fitted straight
// from its training stream. B/op is what set-up allocates before the
// first /healthz; a set-up that renders whole clips again is ≈ 20× over.
func BenchmarkBuildEnv(b *testing.B) {
	cfg := servingConfig()
	ds := dataset.BDD(cfg.Scale)
	b.Run("msbi", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			experiments.BuildEnvFor(ds, cfg, query.Count, MSBI)
		}
	})
}

// BenchmarkAttachTenant measures a tenant's first frame on a dynamic
// fleet over the four boot models, attached as the server attaches it —
// its own tracer with the default -ring, forensics on: NewPipeline, which
// under MSBO calibrates the selector's thresholds (twelve ensemble
// scorings) and under MSBI does not; a supervision restore pays the
// same. B/tenant is what an attached tenant that has yet to see a frame
// keeps on the heap: the shard, its recorder, and a tracer whose ring
// holds no slot it has no event for.
func BenchmarkAttachTenant(b *testing.B) {
	for _, sel := range []Selector{MSBO, MSBI} {
		b.Run(strings.ToLower(sel.String()), func(b *testing.B) {
			cfg := servingConfig()
			env := experiments.BuildEnvFor(dataset.BDD(cfg.Scale), cfg, query.Count, sel)
			pcfg := env.PipelineConfig(sel)
			sm := NewDynamicSharded(env.Registry.Entries(), env.Labeler(), ShardedOptions{
				Options: Options{Provision: pcfg.Provision, Pipeline: pcfg, Forensics: ForensicsConfig{Enabled: true}},
				Workers: 1,
			})
			attach := func() int {
				slot, err := sm.Attach(NewTracer(TracerConfig{RingSize: 4096}))
				if err != nil {
					b.Fatal(err)
				}
				return slot
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sm.Detach(attach()); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			const held = 16
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for i := 0; i < held; i++ {
				attach()
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(after.HeapAlloc-before.HeapAlloc)/held, "B/tenant")
			runtime.KeepAlive(sm)
		})
	}
}
