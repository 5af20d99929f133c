package experiments

import (
	"math"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"videodrift/internal/core"
	"videodrift/internal/dataset"
	"videodrift/internal/query"
)

func TestTable5MatchesPaperShape(t *testing.T) {
	res := RunTable5(QuickConfig())
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	want := map[string]struct {
		size int
		obj  float64
	}{
		"BDD":    {80000, 9.2},
		"Detrac": {30000, 17.2},
		"Tokyo":  {45000, 19.2},
	}
	for _, row := range res.Rows {
		w := want[row.Name]
		if row.StreamSize != w.size {
			t.Errorf("%s stream size = %d, want %d", row.Name, row.StreamSize, w.size)
		}
		if math.Abs(row.ObjPerFrame-w.obj) > 0.3*w.obj {
			t.Errorf("%s obj/frame = %v, paper has %v", row.Name, row.ObjPerFrame, w.obj)
		}
	}
	if !strings.Contains(res.Render(), "Table 5") {
		t.Error("render missing header")
	}
}

func TestFig3DriftDetectionShape(t *testing.T) {
	cfg := QuickConfig()
	res := RunFig3(dataset.Detrac(cfg.Scale), cfg)
	if len(res.Lags) != 5 {
		t.Fatalf("lags = %d", len(res.Lags))
	}
	diDetected, odDetected := 0, 0
	for _, l := range res.Lags {
		if l.DILag >= 0 {
			diDetected++
		}
		if l.ODINLag >= 0 {
			odDetected++
		}
		if l.DIFalse > 1 {
			t.Errorf("%s: DI false positives = %d", l.Sequence, l.DIFalse)
		}
	}
	if diDetected < 4 {
		t.Errorf("DI detected only %d/5 drifts", diDetected)
	}
	if odDetected < 3 {
		t.Errorf("ODIN detected only %d/5 drifts", odDetected)
	}
	// The headline shapes: DI detects in fewer frames on average and
	// spends at most half the monitoring time (Table 6 claims >= 2x).
	di, od := res.MeanLags()
	if diDetected >= 4 && odDetected >= 3 && di > od {
		t.Errorf("DI mean lag %v > ODIN mean lag %v", di, od)
	}
	if res.DITime > res.ODINTime {
		t.Errorf("DI time %v > ODIN time %v", res.DITime, res.ODINTime)
	}
	if !strings.Contains(res.Render(), "Figure 3") {
		t.Error("render missing header")
	}
}

func TestFig4SlowDriftShape(t *testing.T) {
	cfg := QuickConfig()
	cfg.Scale = 0.05 // the transition needs room to unfold
	res := RunFig4(cfg)
	if res.DILag < 0 {
		t.Fatal("DI missed the slow drift")
	}
	if res.ODINLag >= 0 && res.DILag > res.ODINLag {
		t.Errorf("DI lag %d > ODIN lag %d on slow drift", res.DILag, res.ODINLag)
	}
	if res.DILag > res.Transition+600 {
		t.Errorf("DI lag %d beyond the evaluated horizon", res.DILag)
	}
	if !strings.Contains(res.Render(), "Figure 4") {
		t.Error("render missing header")
	}
}

func TestFig5BrierSeparatesBetterThanAccuracy(t *testing.T) {
	res := RunFig5(QuickConfig())
	if len(res.Accuracy) != 4 || len(res.Brier) != 4 {
		t.Fatalf("matrix shape wrong")
	}
	// The matching model should hold the Brier diagonal at least as
	// reliably as the accuracy diagonal (the paper's point: Brier is the
	// more robust selection signal), and separate by a real margin.
	diagWins := func(better func(a, b float64) bool, m [][]float64) int {
		wins := 0
		for j := range res.Sequences {
			best := 0
			for i := range res.Sequences {
				if better(m[i][j], m[best][j]) {
					best = i
				}
			}
			if best == j {
				wins++
			}
		}
		return wins
	}
	brierWins := diagWins(func(a, b float64) bool { return a < b }, res.Brier)
	accWins := diagWins(func(a, b float64) bool { return a > b }, res.Accuracy)
	if brierWins < accWins {
		t.Errorf("Brier diagonal wins %d < accuracy diagonal wins %d", brierWins, accWins)
	}
	if brierWins < 2 {
		t.Errorf("matching model won the Brier column only %d/4 times", brierWins)
	}
	if _, brierGap := res.Separation(); brierGap <= 0.05 {
		t.Errorf("Brier separation %.3f — no real margin", brierGap)
	}
	if !strings.Contains(res.Render(), "Figure 5") {
		t.Error("render missing header")
	}
}

func TestFig6InvocationShape(t *testing.T) {
	cfg := QuickConfig()
	res := RunFig6(dataset.Tokyo(cfg.Scale), cfg)
	if len(res.Sequences) != 3 {
		t.Fatalf("sequences = %d", len(res.Sequences))
	}
	for i := range res.Sequences {
		if math.Abs(res.Pipeline[i]-1.0) > 1e-9 {
			t.Errorf("pipeline invocations/frame = %v on %s, must be exactly 1", res.Pipeline[i], res.Sequences[i])
		}
		if res.ODIN[i] < 0.99 {
			t.Errorf("ODIN invocations/frame = %v on %s", res.ODIN[i], res.Sequences[i])
		}
	}
	if !strings.Contains(res.Render(), "Figure 6") {
		t.Error("render missing header")
	}
}

func TestTable8SelectionShape(t *testing.T) {
	cfg := QuickConfig()
	res := RunTable8(dataset.BDD(cfg.Scale), cfg)
	if len(res.Outcomes) != 4 {
		t.Fatalf("outcomes = %d", len(res.Outcomes))
	}
	msboAcc, msbiAcc := res.Accuracy()
	// MSBI reproduces the paper's selection behaviour fully; MSBO is
	// weaker here because our hand-built features leave the dark-vehicle
	// BDD conditions partially inter-servable (see EXPERIMENTS.md).
	if msbiAcc < 0.75 {
		t.Errorf("MSBI selection accuracy = %v", msbiAcc)
	}
	if msboAcc < 0.5 {
		t.Errorf("MSBO selection accuracy = %v", msboAcc)
	}
	// One-shot selection is cheaper than ODIN-Select's per-frame selection
	// over the stream even at this miniature scale; the paper's
	// order-of-magnitude gap appears at the committed run scale, where the
	// stream is 5-100x longer while selection cost stays constant.
	msboT, msbiT := res.Totals()
	if msboT > res.ODINTime || msbiT > res.ODINTime {
		t.Errorf("selection totals MSBO %v / MSBI %v vs ODIN %v", msboT, msbiT, res.ODINTime)
	}
	if !strings.Contains(res.Render(), "Table 8") || !strings.Contains(res.Render(), "Table 7") {
		t.Error("render missing headers")
	}
}

func TestEndToEndCountShape(t *testing.T) {
	cfg := QuickConfig()
	res := RunEndToEnd(dataset.BDD(cfg.Scale), cfg, query.Count)
	if res.Frames == 0 {
		t.Fatal("no frames evaluated")
	}
	// Mask R-CNN defines ground truth → perfect accuracy.
	if got := res.Mean(MethodMaskRCNN); got != 1 {
		t.Errorf("maskrcnn A_q = %v, must be 1.0 by construction", got)
	}
	// The drift-aware pipelines beat the drift-oblivious fast detector.
	if res.Mean(MethodMSBO) <= res.Mean(MethodYOLO) {
		t.Errorf("MSBO A_q %v <= YOLO %v", res.Mean(MethodMSBO), res.Mean(MethodYOLO))
	}
	// At this miniature scale the pipeline's one-off recovery training is
	// not amortized (the paper's streams are 100x longer), so MSBO is not
	// yet cheaper than full-frame Mask R-CNN processing; assert it stays
	// within a small factor — measured 3.2–3.5x on a busy two-core box,
	// 3.8–3.95x on an idle one — and leave the strict ordering to
	// the committed larger runs in EXPERIMENTS.md. The race detector taxes
	// the training loops far more than the detector (6.3x measured), so
	// the ratio is only asserted without it.
	if !raceDetector {
		msbo, mrcnn := cpuCost(cfg)
		t.Logf("MSBO %v, maskrcnn %v: %.2fx", msbo, mrcnn, float64(msbo)/float64(mrcnn))
		if msbo > 4*mrcnn {
			t.Errorf("MSBO CPU time %v vs maskrcnn %v", msbo, mrcnn)
		}
	}
	if !strings.Contains(res.Render(), "Table 9") {
		t.Error("render missing header")
	}
}

// cpuCost is MSBO's and Mask R-CNN's cost over the end-to-end stream in
// process CPU time on one processor, each the median of three runs, MSBO
// over a fresh registry each time. A wall clock reads a neighbour's load,
// two processors count MSBO's fan-out on both, and the two are interleaved
// frame by frame because this machine's speed shifts while they run (a
// neighbour on the sibling hyperthread starting or stopping): run one
// after the other, they are timed at different speeds. RunEndToEnd's
// Table 9 times stay wall-clock.
func cpuCost(cfg Config) (msbo, mrcnn time.Duration) {
	ds := dataset.BDD(cfg.Scale)
	env, frames := BuildEnv(ds, cfg, query.Count), ds.Stream().Collect(-1)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var runs [2][3]time.Duration
	for i := range 3 {
		pipe := core.NewPipeline(core.NewRegistry(env.Registry.Entries()...), env.Labeler(), env.PipelineConfig(core.SelectorMSBO))
		oracle := query.NewAnnotator(cfg.MaxCount)
		runtime.GC()
		for _, f := range frames {
			start := cpuTime()
			pipe.Process(f)
			mid := cpuTime()
			oracle.Label(query.Count, f)
			runs[0][i], runs[1][i] = runs[0][i]+mid-start, runs[1][i]+cpuTime()-mid
		}
	}
	slices.Sort(runs[0][:])
	slices.Sort(runs[1][:])
	return runs[0][1], runs[1][1]
}

// cpuTime is the process's CPU time so far, user and system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func TestEndToEndSpatialShape(t *testing.T) {
	cfg := QuickConfig()
	res := RunEndToEnd(dataset.BDD(cfg.Scale), cfg, query.Spatial)
	if got := res.Mean(MethodMaskRCNN); got != 1 {
		t.Errorf("maskrcnn spatial A_q = %v", got)
	}
	if got := res.Mean(MethodMSBO); got < 0.5 {
		t.Errorf("MSBO spatial A_q = %v, below coin flip", got)
	}
	if !strings.Contains(res.Render(), "Figure 8") {
		t.Error("render missing spatial figure header")
	}
}

func TestAblationShape(t *testing.T) {
	res := RunAblation(QuickConfig())
	if len(res.Rows) != 7 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byName := map[string]AblationRow{}
	for _, r := range res.Rows {
		byName[r.Variant] = r
	}
	def := byName["DI (default: W=4, stride 10)"]
	if def.Missed > 0 {
		t.Errorf("default DI missed %d drifts", def.Missed)
	}
	if def.FalsePos > 3 {
		t.Errorf("default DI false positives = %d", def.FalsePos)
	}
	// The design-choice story: removing stream sampling or using the
	// paper-literal threshold multiplies false alarms; the multiplicative
	// martingale (the §4.2.3 motivation) detects far later.
	if s1 := byName["DI (no sampling: stride 1)"]; s1.FalsePos <= def.FalsePos {
		t.Errorf("stride-1 false positives %d <= default %d", s1.FalsePos, def.FalsePos)
	}
	if mult := byName["multiplicative martingale"]; mult.Missed == 0 && mult.MeanLag <= def.MeanLag {
		t.Errorf("multiplicative martingale lag %v <= DI %v", mult.MeanLag, def.MeanLag)
	}
	if !strings.Contains(res.Render(), "Ablation") {
		t.Error("render missing header")
	}
}
