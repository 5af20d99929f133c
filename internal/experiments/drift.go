package experiments

import (
	"fmt"
	"strings"
	"time"

	"videodrift/internal/core"
	"videodrift/internal/dataset"
	"videodrift/internal/modelset"
	"videodrift/internal/odin"
	"videodrift/internal/stats"
	"videodrift/internal/vidsim"
)

// DriftLag is one drift-detection measurement: frames processed after the
// ground-truth drift before each detector declared it (-1 = missed), and
// false positives before the drift.
type DriftLag struct {
	Sequence  string
	DILag     int
	ODINLag   int
	DIFalse   int
	ODINFalse int
}

// Fig3Result reproduces Figure 3 for one dataset: per-sequence detection
// lags for DI versus ODIN-Detect, plus the monitoring wall time behind
// Table 6.
type Fig3Result struct {
	Dataset    string
	Lags       []DriftLag
	DITime     time.Duration
	ODINTime   time.Duration
	FramesSeen int
}

// detectOne measures the detection lag on one transition stream for both
// detectors. preLen frames precede the drift; postLen follow it.
func detectOne(ds *dataset.Dataset, env *Env, seq, preLen, postLen int) (DriftLag, time.Duration, time.Duration, int) {
	prevIdx := (seq + len(ds.Sequences) - 1) % len(ds.Sequences)
	prevEntry := env.Registry.Entries()[prevIdx]

	stream := ds.TransitionStream(seq, preLen, postLen)
	driftAt := stream.DriftPoints()[0]
	frames := stream.Collect(-1)

	lag := DriftLag{Sequence: ds.Sequences[seq].Name, DILag: -1, ODINLag: -1}

	// Drift Inspector monitoring the previous condition's model.
	di := core.NewDriftInspector(prevEntry, core.DefaultDIConfig(), stats.NewRNG(env.Cfg.Seed+int64(seq)))
	start := time.Now()
	for i, f := range frames {
		if di.ObserveFrame(f) {
			if i < driftAt {
				lag.DIFalse++
				di.Reset()
				continue
			}
			lag.DILag = i - driftAt + 1
			break
		}
	}
	diTime := time.Since(start)

	// ODIN-Detect bootstrapped on the previous condition.
	od := odin.NewDetector(odin.DefaultConfig(), ds.W, ds.H)
	od.Bootstrap(ds.TrainingFrames(prevIdx, env.Cfg.TrainFrames))
	start = time.Now()
	for i, f := range frames {
		if od.Observe(f).Drift {
			if i < driftAt {
				lag.ODINFalse++
				continue
			}
			lag.ODINLag = i - driftAt + 1
			break
		}
	}
	odinTime := time.Since(start)

	return lag, diTime, odinTime, len(frames)
}

// RunFig3 measures per-sequence drift-detection lag (Figure 3) and the
// total monitoring time (Table 6) for one dataset.
func RunFig3(ds *dataset.Dataset, cfg Config) Fig3Result {
	env := BuildEnvUnsupervised(ds, cfg)
	res := Fig3Result{Dataset: ds.Name}
	preLen := 400
	postLen := 600
	for seq := range ds.Sequences {
		lag, diT, odT, n := detectOne(ds, env, seq, preLen, postLen)
		res.Lags = append(res.Lags, lag)
		res.DITime += diT
		res.ODINTime += odT
		res.FramesSeen += n
	}
	return res
}

// BuildEnvUnsupervised provisions per-sequence entries without query
// classifiers (drift detection needs no labels), which keeps the
// drift-only experiments free of annotation cost.
func BuildEnvUnsupervised(ds *dataset.Dataset, cfg Config) *Env {
	entries := make([]*core.ModelEntry, len(ds.Sequences))
	p := core.DefaultProvisionConfig(ds.FrameDim(), 2)
	for i := range ds.Sequences {
		p.Seed = cfg.Seed + int64(i)*31
		entries[i] = core.Provision(ds.Sequences[i].Name, ds.TrainingStream(i, cfg.TrainFrames), nil, p)
	}
	return &Env{Set: &modelset.Set{DS: ds, Registry: core.NewRegistry(entries...), Provision: p}, Cfg: cfg}
}

// MeanLags returns the average detection lag over the sequences that were
// detected, for DI and ODIN respectively.
func (r Fig3Result) MeanLags() (di, od float64) {
	nd, no := 0, 0
	for _, l := range r.Lags {
		if l.DILag >= 0 {
			di += float64(l.DILag)
			nd++
		}
		if l.ODINLag >= 0 {
			od += float64(l.ODINLag)
			no++
		}
	}
	if nd > 0 {
		di /= float64(nd)
	}
	if no > 0 {
		od /= float64(no)
	}
	return di, od
}

// Render formats the result as the paper's Figure 3 bars plus the Table 6
// row.
func (r Fig3Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3 — drift detection lag, %s (frames after ground-truth drift)\n", r.Dataset)
	fmt.Fprintf(&b, "%-10s %12s %12s %8s %8s\n", "sequence", "DI", "ODIN-Detect", "DI-FP", "ODIN-FP")
	for _, l := range r.Lags {
		fmt.Fprintf(&b, "%-10s %12s %12s %8d %8d\n", l.Sequence, lagStr(l.DILag), lagStr(l.ODINLag), l.DIFalse, l.ODINFalse)
	}
	di, od := r.MeanLags()
	fmt.Fprintf(&b, "%-10s %12.1f %12.1f\n", "mean", di, od)
	fmt.Fprintf(&b, "Table 6 — monitoring time over %d frames: DI %s s, ODIN-Detect %s s\n",
		r.FramesSeen, fmtSeconds(r.DITime.Seconds()), fmtSeconds(r.ODINTime.Seconds()))
	return b.String()
}

func lagStr(l int) string {
	if l < 0 {
		return "missed"
	}
	return fmt.Sprintf("%d", l)
}

// Fig4Result reproduces Figure 4: detection lag on the gradual
// ("slow drift") day→night transition.
type Fig4Result struct {
	DILag      int
	ODINLag    int
	Transition int // frames over which the drift unfolds
}

// RunFig4 measures slow-drift detection for DI and ODIN-Detect on the
// live-camera analog (§6.1.3): both monitors watch the day distribution
// while the stream interpolates into night; lag is counted from the start
// of the transition ("sundown").
func RunFig4(cfg Config) Fig4Result {
	ds := dataset.SlowDrift(cfg.Scale)
	// A "slow" drift must unfold over a meaningful horizon regardless of
	// the experiment scale; at full scale the paper's transition is a real
	// sunset (thousands of frames).
	if ds.TransitionLen < 500 {
		ds.TransitionLen = 500
	}
	res := Fig4Result{DILag: -1, ODINLag: -1, Transition: ds.TransitionLen}

	// Day model provisioned from the day sequence ("a previous day").
	p := core.DefaultProvisionConfig(ds.FrameDim(), 2)
	p.Seed = cfg.Seed
	dayEntry := core.Provision("day", ds.TrainingStream(0, cfg.TrainFrames), nil, p)

	// The evaluated stream: day frames, then a gradual transition to night.
	stream := vidsim.NewStream(ds.W, ds.H, ds.Seed,
		vidsim.Segment{Cond: ds.Sequences[0], Length: 400},
		vidsim.Segment{Cond: ds.Sequences[1], Length: ds.TransitionLen + 600, TransitionLen: ds.TransitionLen},
	)
	driftAt := stream.DriftPoints()[0]
	frames := stream.Collect(-1)

	di := core.NewDriftInspector(dayEntry, core.DefaultDIConfig(), stats.NewRNG(cfg.Seed+5))
	for i, f := range frames {
		if di.ObserveFrame(f) && i >= driftAt {
			res.DILag = i - driftAt + 1
			break
		}
	}

	od := odin.NewDetector(odin.DefaultConfig(), ds.W, ds.H)
	od.Bootstrap(ds.TrainingFrames(0, cfg.TrainFrames))
	for i, f := range frames {
		if od.Observe(f).Drift && i >= driftAt {
			res.ODINLag = i - driftAt + 1
			break
		}
	}
	return res
}

// Render formats the result.
func (r Fig4Result) Render() string {
	return fmt.Sprintf(
		"Figure 4 — slow drift (day→night over %d frames)\nDI lag: %s frames   ODIN-Detect lag: %s frames\n",
		r.Transition, lagStr(r.DILag), lagStr(r.ODINLag))
}
