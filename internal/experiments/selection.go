package experiments

import (
	"fmt"
	"strings"
	"time"

	"videodrift/internal/classifier"
	"videodrift/internal/core"
	"videodrift/internal/dataset"
	"videodrift/internal/query"
	"videodrift/internal/stats"
	"videodrift/internal/vidsim"
)

// SelectionOutcome is one model-selection measurement on a post-drift
// window.
type SelectionOutcome struct {
	Sequence     string
	MSBOSelected string // chosen model name ("" = train new)
	MSBISelected string
	MSBOCorrect  bool
	MSBICorrect  bool
	MSBOTime     time.Duration
	MSBITime     time.Duration
	MSBOFrames   int
	MSBIFrames   int
}

// Table8Result aggregates the model-selection measurements of one dataset
// (Tables 7 and 8, and the selection half of Figure 6).
type Table8Result struct {
	Dataset      string
	Models       int
	Outcomes     []SelectionOutcome
	ODINTime     time.Duration // ODIN-Select over the full stream
	ODINFrames   int
	ODINPerFrame time.Duration
}

// RunTable8 measures, for each drift in the dataset, how long MSBO and
// MSBI need to select a model (and whether they pick the right one), and
// how long ODIN-Select's per-frame selection costs over the whole stream
// — reproducing the paper's Tables 7/8 comparison where the one-shot
// selectors win by an order of magnitude in total.
func RunTable8(ds *dataset.Dataset, cfg Config) Table8Result {
	env := BuildEnv(ds, cfg, query.Count)
	res := Table8Result{Dataset: ds.Name, Models: env.Registry.Len()}
	rng := stats.NewRNG(cfg.Seed + 7)
	th := core.CalibrateMSBO(env.Registry.Entries())
	msboCfg := core.DefaultMSBOConfig()
	msbiCfg := core.DefaultMSBIConfig()
	labeler := env.Labeler()

	for seq := range ds.Sequences {
		// Post-drift window: fresh frames of the new condition.
		window := ds.TransitionStream(seq, 5, 64).Collect(-1)[5:]
		out := SelectionOutcome{Sequence: ds.Sequences[seq].Name}

		start := time.Now()
		labeled := make([]classifier.Sample, msboCfg.WT)
		for i := 0; i < msboCfg.WT; i++ {
			labeled[i] = env.Registry.Entries()[0].QuerySample(window[i], labeler(window[i]))
		}
		msbo := core.MSBO(labeled, env.Registry.Entries(), th, msboCfg)
		out.MSBOTime = time.Since(start)
		out.MSBOFrames = msbo.FramesUsed

		held := vidsim.KeepAll(window) // what a pipeline's selection window holds
		start = time.Now()
		msbi := core.MSBI(held, env.Registry.Entries(), msbiCfg, rng.Split())
		out.MSBITime = time.Since(start)
		out.MSBIFrames = msbi.FramesUsed

		want := ds.Sequences[seq].Name
		if msbo.Selected != nil {
			out.MSBOSelected = msbo.Selected.Name
		}
		if msbi.Selected != nil {
			out.MSBISelected = msbi.Selected.Name
		}
		out.MSBOCorrect = out.MSBOSelected == want
		out.MSBICorrect = out.MSBISelected == want
		res.Outcomes = append(res.Outcomes, out)
	}

	// ODIN-Select: per-frame selection over the full stream.
	sys := env.NewODIN()
	stream := ds.Stream()
	start := time.Now()
	for {
		f, ok := stream.Next()
		if !ok {
			break
		}
		sys.Process(f)
		res.ODINFrames++
	}
	res.ODINTime = time.Since(start)
	if res.ODINFrames > 0 {
		res.ODINPerFrame = res.ODINTime / time.Duration(res.ODINFrames)
	}
	return res
}

// Totals returns the summed selection times (the Table 8 row).
func (r Table8Result) Totals() (msbo, msbi time.Duration) {
	for _, o := range r.Outcomes {
		msbo += o.MSBOTime
		msbi += o.MSBITime
	}
	return msbo, msbi
}

// Accuracy returns the fraction of drifts for which each selector picked
// the matching model.
func (r Table8Result) Accuracy() (msbo, msbi float64) {
	if len(r.Outcomes) == 0 {
		return 0, 0
	}
	for _, o := range r.Outcomes {
		if o.MSBOCorrect {
			msbo++
		}
		if o.MSBICorrect {
			msbi++
		}
	}
	n := float64(len(r.Outcomes))
	return msbo / n, msbi / n
}

// Render formats the Tables 7/8 rows for this dataset.
func (r Table8Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 8 — model selection on %s (%d available models)\n", r.Dataset, r.Models)
	fmt.Fprintf(&b, "%-10s %14s %14s %10s %10s\n", "drift to", "MSBO (ms)", "MSBI (ms)", "MSBO pick", "MSBI pick")
	for _, o := range r.Outcomes {
		fmt.Fprintf(&b, "%-10s %14.3f %14.3f %10s %10s\n",
			o.Sequence, o.MSBOTime.Seconds()*1e3, o.MSBITime.Seconds()*1e3,
			pickStr(o.MSBOSelected, o.MSBOCorrect), pickStr(o.MSBISelected, o.MSBICorrect))
	}
	msboT, msbiT := r.Totals()
	msboA, msbiA := r.Accuracy()
	fmt.Fprintf(&b, "totals: MSBO %.3f ms (acc %.2f), MSBI %.3f ms (acc %.2f), ODIN-Select %s s over %d frames\n",
		msboT.Seconds()*1e3, msboA, msbiT.Seconds()*1e3, msbiA,
		fmtSeconds(r.ODINTime.Seconds()), r.ODINFrames)
	if r.ODINFrames > 0 {
		var o SelectionOutcome
		if len(r.Outcomes) > 0 {
			o = r.Outcomes[0]
		}
		fmt.Fprintf(&b, "Table 7 — per frame: MSBO %.3f ms, MSBI %.3f ms, ODIN-Select %.4f ms\n",
			perFrameMS(o.MSBOTime, o.MSBOFrames), perFrameMS(o.MSBITime, o.MSBIFrames),
			r.ODINPerFrame.Seconds()*1e3)
	}
	return b.String()
}

func pickStr(name string, correct bool) string {
	if name == "" {
		name = "(new)"
	}
	if correct {
		return name + "*"
	}
	return name
}

func perFrameMS(d time.Duration, frames int) float64 {
	if frames == 0 {
		return 0
	}
	return d.Seconds() * 1e3 / float64(frames)
}

// Fig6Result reproduces Figure 6 for one dataset: model invocations per
// frame, per sequence, for the pipeline (always 1) versus ODIN-Select.
type Fig6Result struct {
	Dataset   string
	Sequences []string
	Pipeline  []float64 // invocations per frame per sequence (DI+MSBO/MSBI)
	ODIN      []float64
}

// RunFig6 streams each sequence through the pipeline and through ODIN,
// recording the invocations-per-frame ratio the paper's Figure 6 plots.
func RunFig6(ds *dataset.Dataset, cfg Config) Fig6Result {
	env := BuildEnv(ds, cfg, query.Count)
	res := Fig6Result{Dataset: ds.Name}

	pipe := core.NewPipeline(env.Registry, env.Labeler(), env.PipelineConfig(core.SelectorMSBO))
	sys := env.NewODIN()

	seqLen := ds.SeqLength
	stream := ds.Stream()
	// Skip warmup.
	for i := 0; i < ds.WarmupLen; i++ {
		f, _ := stream.Next()
		pipe.Process(f)
		sys.Process(f)
	}
	for seq := range ds.Sequences {
		pInv, oInv := 0, 0
		for i := 0; i < seqLen; i++ {
			f, ok := stream.Next()
			if !ok {
				break
			}
			pInv += pipe.Process(f).Invocations
			oInv += sys.Process(f).Invocations
		}
		res.Sequences = append(res.Sequences, ds.Sequences[seq].Name)
		res.Pipeline = append(res.Pipeline, float64(pInv)/float64(seqLen))
		res.ODIN = append(res.ODIN, float64(oInv)/float64(seqLen))
	}
	return res
}

// Render formats the Figure 6 series.
func (r Fig6Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6 — model invocations per frame, %s\n", r.Dataset)
	fmt.Fprintf(&b, "%-10s %12s %12s\n", "sequence", "MSBO/MSBI", "ODIN-Select")
	for i, s := range r.Sequences {
		fmt.Fprintf(&b, "%-10s %12.3f %12.3f\n", s, r.Pipeline[i], r.ODIN[i])
	}
	return b.String()
}
