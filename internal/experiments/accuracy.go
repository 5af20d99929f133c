package experiments

import (
	"fmt"
	"strings"
	"time"

	"videodrift/internal/core"
	"videodrift/internal/dataset"
	"videodrift/internal/detect"
	"videodrift/internal/query"
	"videodrift/internal/vidsim"
)

// Method identifies one end-to-end approach in Table 9 / Figures 7–8.
type Method string

// The five compared methods.
const (
	MethodMSBO     Method = "(DI, MSBO)"
	MethodMSBI     Method = "(DI, MSBI)"
	MethodODIN     Method = "(ODIN-Detect, ODIN-Select)"
	MethodYOLO     Method = "YOLO"
	MethodMaskRCNN Method = "Mask R-CNN"
)

// EndToEndResult holds, for one dataset and query, each method's total
// processing time (Table 9) and per-sequence query accuracy A_q
// (Figures 7 and 8).
type EndToEndResult struct {
	Dataset   string
	Query     query.Kind
	Frames    int
	Sequences []string
	Times     map[Method]time.Duration
	Accuracy  map[Method][]float64 // per sequence
}

// frameSink consumes a frame and returns the method's query prediction.
type frameSink func(f vidsim.Frame) int

// RunEndToEnd streams the dataset through all five methods, timing each
// full pass (Table 9) and scoring per-sequence query accuracy against the
// oracle annotator on every EvalStride-th frame (Figures 7/8; the stride
// keeps ground-truth annotation tractable and is applied identically to
// every method).
func RunEndToEnd(ds *dataset.Dataset, cfg Config, kind query.Kind) EndToEndResult {
	env := BuildEnv(ds, cfg, kind)
	res := EndToEndResult{
		Dataset:   ds.Name,
		Query:     kind,
		Sequences: ds.SequenceNames(),
		Times:     map[Method]time.Duration{},
		Accuracy:  map[Method][]float64{},
	}

	// Materialize the evaluated stream once so every method sees identical
	// frames. (At scale 1.0 this would be large; experiment scales keep it
	// in memory comfortably.)
	frames := ds.Stream().Collect(-1)
	res.Frames = len(frames)

	// Ground-truth labels on the evaluation stride.
	truthAt := map[int]int{}
	for i := ds.WarmupLen; i < len(frames); i += cfg.EvalStride {
		truthAt[i] = env.Annotator.Label(kind, frames[i])
	}

	run := func(m Method, sink frameSink) {
		preds := map[int]int{}
		start := time.Now()
		for i, f := range frames {
			p := sink(f)
			if _, want := truthAt[i]; want {
				preds[i] = p
			}
		}
		res.Times[m] = time.Since(start)
		res.Accuracy[m] = perSequenceAccuracy(ds, preds, truthAt)
	}

	// Each pipeline trains into a registry of its own over the provisioned
	// entries, so the runs stay independent.
	pipeMSBO := core.NewPipeline(core.NewRegistry(env.Registry.Entries()...), env.Labeler(), env.PipelineConfig(core.SelectorMSBO))
	run(MethodMSBO, func(f vidsim.Frame) int { return pipeMSBO.Process(f).Prediction })
	pipeMSBI := core.NewPipeline(core.NewRegistry(env.Registry.Entries()...), env.Labeler(), env.PipelineConfig(core.SelectorMSBI))
	run(MethodMSBI, func(f vidsim.Frame) int { return pipeMSBI.Process(f).Prediction })

	sys := env.NewODIN()
	run(MethodODIN, func(f vidsim.Frame) int { return sys.Process(f).Prediction })

	yolo := query.NewAnnotatorWith(detect.NewYOLOSim(), cfg.MaxCount)
	run(MethodYOLO, func(f vidsim.Frame) int { return yolo.Label(kind, f) })

	oracle := query.NewAnnotator(cfg.MaxCount)
	run(MethodMaskRCNN, func(f vidsim.Frame) int { return oracle.Label(kind, f) })

	return res
}

// perSequenceAccuracy splits sampled predictions into dataset sequences
// and scores A_q per sequence.
func perSequenceAccuracy(ds *dataset.Dataset, preds, truth map[int]int) []float64 {
	acc := make([]float64, len(ds.Sequences))
	for seq := range ds.Sequences {
		lo := ds.WarmupLen + seq*ds.SeqLength
		hi := lo + ds.SeqLength
		correct, total := 0, 0
		for i, want := range truth {
			if i < lo || i >= hi {
				continue
			}
			total++
			if preds[i] == want {
				correct++
			}
		}
		if total > 0 {
			acc[seq] = float64(correct) / float64(total)
		}
	}
	return acc
}

// Mean returns a method's accuracy averaged over sequences.
func (r EndToEndResult) Mean(m Method) float64 {
	xs := r.Accuracy[m]
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Methods returns the methods in presentation order.
func Methods() []Method {
	return []Method{MethodMSBO, MethodMSBI, MethodODIN, MethodYOLO, MethodMaskRCNN}
}

// Render formats the Table 9 row and the Figure 7/8 series for this
// dataset.
func (r EndToEndResult) Render() string {
	var b strings.Builder
	figure := "Figure 7 (count query accuracy)"
	if r.Query == query.Spatial {
		figure = "Figure 8 (spatial query accuracy)"
	}
	fmt.Fprintf(&b, "Table 9 — end-to-end time on %s (%d frames) and %s\n", r.Dataset, r.Frames, figure)
	fmt.Fprintf(&b, "%-28s %12s %10s", "method", "time (s)", "mean A_q")
	for _, s := range r.Sequences {
		fmt.Fprintf(&b, " %9s", s)
	}
	fmt.Fprintln(&b)
	for _, m := range Methods() {
		fmt.Fprintf(&b, "%-28s %12s %10.3f", m, fmtSeconds(r.Times[m].Seconds()), r.Mean(m))
		for _, a := range r.Accuracy[m] {
			fmt.Fprintf(&b, " %9.3f", a)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// Fig5Result reproduces Figure 5 on the BDD analog: per-sequence
// classification accuracy versus ensemble Brier score for the matching
// model, showing the Brier score's stronger separation.
type Fig5Result struct {
	Sequences []string
	// Accuracy[i][j]: accuracy of model i's classifier on sequence j.
	Accuracy [][]float64
	// Brier[i][j]: Brier score of model i's ensemble on sequence j.
	Brier [][]float64
}

// RunFig5 evaluates every BDD model on every BDD sequence.
func RunFig5(cfg Config) Fig5Result {
	ds := dataset.BDD(cfg.Scale)
	env := BuildEnv(ds, cfg, query.Count)
	entries := env.Registry.Entries()
	labeler := env.Labeler()

	res := Fig5Result{Sequences: ds.SequenceNames()}
	// Fresh evaluation frames per sequence.
	const evalN = 60
	eval := make([][]vidsim.Frame, len(ds.Sequences))
	for j := range ds.Sequences {
		eval[j] = vidsim.GenerateTraining(ds.Sequences[j], ds.W, ds.H, evalN, cfg.Seed+int64(j)*977)
	}

	for _, e := range entries {
		accRow := make([]float64, len(ds.Sequences))
		brierRow := make([]float64, len(ds.Sequences))
		for j := range ds.Sequences {
			correct := 0
			brier := 0.0
			for _, f := range eval[j] {
				label := labeler(f)
				if e.Predict(f) == label {
					correct++
				}
				s := e.QuerySample(f, label)
				brier += e.Ensemble.Brier(s.X, s.Label)
			}
			accRow[j] = float64(correct) / evalN
			brierRow[j] = brier / evalN
		}
		res.Accuracy = append(res.Accuracy, accRow)
		res.Brier = append(res.Brier, brierRow)
	}
	return res
}

// Separation quantifies Figure 5's point: for each sequence, the relative
// gap between the matching model and the best competitor, under accuracy
// and under Brier score. Higher is better for both.
func (r Fig5Result) Separation() (accGap, brierGap float64) {
	n := len(r.Sequences)
	for j := 0; j < n; j++ {
		bestOtherAcc, bestOtherBrier := 0.0, 0.0
		for i := 0; i < n; i++ {
			if i == j {
				continue
			}
			if r.Accuracy[i][j] > bestOtherAcc {
				bestOtherAcc = r.Accuracy[i][j]
			}
			if bestOtherBrier == 0 || r.Brier[i][j] < bestOtherBrier {
				bestOtherBrier = r.Brier[i][j]
			}
		}
		if r.Accuracy[j][j] > 0 {
			accGap += (r.Accuracy[j][j] - bestOtherAcc) / r.Accuracy[j][j]
		}
		if bestOtherBrier > 0 {
			brierGap += (bestOtherBrier - r.Brier[j][j]) / bestOtherBrier
		}
	}
	return accGap / float64(n), brierGap / float64(n)
}

// Render formats the Figure 5 matrices.
func (r Fig5Result) Render() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 5 — accuracy vs Brier score on BDD (rows: models, cols: sequences)")
	fmt.Fprintf(&b, "%-8s", "acc")
	for _, s := range r.Sequences {
		fmt.Fprintf(&b, " %8s", s)
	}
	fmt.Fprintln(&b)
	for i, row := range r.Accuracy {
		fmt.Fprintf(&b, "%-8s", r.Sequences[i])
		for _, v := range row {
			fmt.Fprintf(&b, " %8.3f", v)
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintf(&b, "%-8s", "brier")
	for _, s := range r.Sequences {
		fmt.Fprintf(&b, " %8s", s)
	}
	fmt.Fprintln(&b)
	for i, row := range r.Brier {
		fmt.Fprintf(&b, "%-8s", r.Sequences[i])
		for _, v := range row {
			fmt.Fprintf(&b, " %8.3f", v)
		}
		fmt.Fprintln(&b)
	}
	accGap, brierGap := r.Separation()
	fmt.Fprintf(&b, "mean separation of the matching model: accuracy %.2f, Brier %.2f\n", accGap, brierGap)
	return b.String()
}

// Table5Result reproduces the dataset characteristics table.
type Table5Result struct {
	Rows []dataset.Stats
}

// RunTable5 measures Table 5 over the three datasets at the configured
// scale (stream sizes are reported at paper scale 1.0 regardless, as they
// are definitional).
func RunTable5(cfg Config) Table5Result {
	res := Table5Result{}
	for _, ds := range dataset.All(cfg.Scale) {
		st := ds.Stats(500)
		st.StreamSize = dataset.All(1.0)[len(res.Rows)].StreamSize()
		res.Rows = append(res.Rows, st)
	}
	return res
}

// Render formats Table 5.
func (r Table5Result) Render() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Table 5 — datasets and their characteristics")
	fmt.Fprintf(&b, "%-8s %10s %12s %10s %6s\n", "dataset", "#seq", "stream size", "obj/frame", "std")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-8s %10d %12d %10.1f %6.1f\n", row.Name, row.Sequences, row.StreamSize, row.ObjPerFrame, row.Std)
	}
	return b.String()
}
