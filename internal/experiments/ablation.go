package experiments

import (
	"fmt"
	"math"
	"strings"

	"videodrift/internal/conformal"
	"videodrift/internal/core"
	"videodrift/internal/dataset"
	"videodrift/internal/stats"
	"videodrift/internal/vidsim"
	"videodrift/internal/vision"
)

// AblationRow is one detector variant's performance on the ablation
// transitions.
type AblationRow struct {
	Variant     string
	MeanLag     float64 // frames after the drift (detected transitions only)
	Missed      int
	FalsePos    int
	Transitions int
}

// AblationResult compares Drift Inspector variants and classical
// baselines on the same set of transitions — the design-choice ablation
// DESIGN.md §2 calls for (threshold form, window, stream sampling, Σ
// source) plus the two related-work detectors the paper discusses:
// the multiplicative conformal martingale (§4.2.3) and the two-sample
// Kolmogorov–Smirnov test (§2).
type AblationResult struct {
	Rows []AblationRow
}

// driftDetector is the minimal interface the ablation loop drives.
type driftDetector interface {
	observe(f vidsim.Frame) bool
	reset()
}

type diAdapter struct{ di *core.DriftInspector }

func (a diAdapter) observe(f vidsim.Frame) bool { return a.di.ObserveFrame(f) }
func (a diAdapter) reset()                      { a.di.Reset() }

// power returns the classic multiplicative betting function
// g_ε(p) = ε·p^(ε−1) with 0 < ε < 1, which integrates to one.
func power(epsilon float64) conformal.BettingFunc {
	return func(p float64) float64 {
		p = clampP(p)
		return epsilon * math.Pow(p, epsilon-1)
	}
}

// mixture returns the simple mixture betting function
// ∫₀¹ ε·p^(ε−1) dε = (p·ln p − p + 1) / (p·ln²p), the standard
// parameter-free choice for conformal martingales.
func mixture() conformal.BettingFunc {
	return func(p float64) float64 {
		p = clampP(p)
		lp := math.Log(p)
		return (p*lp - p + 1) / (p * lp * lp)
	}
}

func clampP(p float64) float64 {
	const eps = 1e-10
	if p < eps {
		return eps
	}
	if p > 1-eps {
		return 1 - eps
	}
	return p
}

// powerMartingale is the classic multiplicative conformal martingale
// (Eq. 5) kept in log space: the reference the Drift Inspector's additive
// martingale improves on (§4.2.3 discusses why the product form reacts
// slowly).
type powerMartingale struct {
	bet  conformal.BettingFunc
	logM float64
	max  float64
}

// update folds one p-value in and returns the current log-martingale.
func (m *powerMartingale) update(p float64) float64 {
	m.logM += math.Log(math.Max(m.bet(p), 1e-300))
	if m.logM > m.max {
		m.max = m.logM
	}
	return m.logM
}

// exceeds reports whether the martingale has ever exceeded 1/delta —
// by Ville's inequality (Eq. 4), rejecting exchangeability at level delta.
func (m *powerMartingale) exceeds(delta float64) bool {
	return m.max > math.Log(1/delta)
}

// reset clears the martingale.
func (m *powerMartingale) reset() { m.logM = 0; m.max = 0 }

// powerDetector wraps the classic multiplicative conformal martingale
// with Ville's inequality as its stopping rule.
type powerDetector struct {
	entry  *core.ModelEntry
	scorer *conformal.KNNScorer
	mart   *powerMartingale
	rng    *stats.RNG
	delta  float64
}

func newPowerDetector(e *core.ModelEntry, rng *stats.RNG) *powerDetector {
	return &powerDetector{
		entry:  e,
		scorer: conformal.NewKNNScorer(5, e.FeatMatrix()),
		mart:   &powerMartingale{bet: mixture()},
		rng:    rng,
		delta:  0.01,
	}
}

func (p *powerDetector) observe(f vidsim.Frame) bool {
	a := p.scorer.Score(vision.Featurize(f.Pixels, p.entry.W, p.entry.H))
	p.mart.update(p.entry.Calib.PValue(a, p.rng.Float64()))
	return p.mart.exceeds(p.delta)
}

func (p *powerDetector) reset() { p.mart.reset() }

// ksDetector is the classical non-parametric baseline: a sliding window
// of recent frames tested against the training sample with per-dimension
// two-sample Kolmogorov–Smirnov tests (Bonferroni-corrected) — what the
// paper's §2 cites as the standard statistics answer, noting that
// multidimensional KS does not scale.
type ksDetector struct {
	entry  *core.ModelEntry
	ref    [][]float64 // per-dimension training feature values
	window [][]float64 // per-dimension sliding window
	size   int
	alpha  float64
	every  int
	seen   int
}

func newKSDetector(e *core.ModelEntry, trainFrames []vidsim.Frame) *ksDetector {
	dims := len(e.SampleFeats[0])
	d := &ksDetector{entry: e, size: 40, alpha: 0.001, every: 4}
	d.ref = make([][]float64, dims)
	for _, f := range trainFrames {
		x := vision.Featurize(f.Pixels, e.W, e.H)
		for j, v := range x {
			d.ref[j] = append(d.ref[j], v)
		}
	}
	d.window = make([][]float64, dims)
	return d
}

func (d *ksDetector) observe(f vidsim.Frame) bool {
	x := vision.Featurize(f.Pixels, d.entry.W, d.entry.H)
	for j, v := range x {
		d.window[j] = append(d.window[j], v)
		if len(d.window[j]) > d.size {
			d.window[j] = d.window[j][1:]
		}
	}
	d.seen++
	if len(d.window[0]) < d.size || d.seen%d.every != 0 {
		return false
	}
	bonferroni := d.alpha / float64(len(d.window))
	for j := range d.window {
		if _, p := stats.KSTwoSample(d.window[j], d.ref[j]); p < bonferroni {
			return true
		}
	}
	return false
}

func (d *ksDetector) reset() {
	for j := range d.window {
		d.window[j] = d.window[j][:0]
	}
	d.seen = 0
}

// RunAblation evaluates every variant on all transitions of the Detrac
// analog (the dataset with the most drifts).
func RunAblation(cfg Config) AblationResult {
	ds := dataset.Detrac(cfg.Scale)
	env := BuildEnvUnsupervised(ds, cfg)

	// A paper-literal variant needs a betting gain large enough that the
	// un-logged threshold sqrt(2W·2/r) is attainable (see DESIGN.md §2).
	paperDI := core.DefaultDIConfig()
	paperDI.W = 3
	paperDI.Mode = conformal.ThresholdPaperLiteral
	paperDI.Kappa = 8

	strideOne := core.DefaultDIConfig()
	strideOne.SampleEvery = 1

	wideWindow := core.DefaultDIConfig()
	wideWindow.W = 8

	variants := []struct {
		name  string
		build func(e *core.ModelEntry, vae *core.ModelEntry, train []vidsim.Frame, seed int64) driftDetector
	}{
		{"DI (default: W=4, stride 10)", func(e, _ *core.ModelEntry, _ []vidsim.Frame, seed int64) driftDetector {
			return diAdapter{core.NewDriftInspector(e, core.DefaultDIConfig(), stats.NewRNG(seed))}
		}},
		{"DI (paper-literal: W=3)", func(e, _ *core.ModelEntry, _ []vidsim.Frame, seed int64) driftDetector {
			return diAdapter{core.NewDriftInspector(e, paperDI, stats.NewRNG(seed))}
		}},
		{"DI (no sampling: stride 1)", func(e, _ *core.ModelEntry, _ []vidsim.Frame, seed int64) driftDetector {
			return diAdapter{core.NewDriftInspector(e, strideOne, stats.NewRNG(seed))}
		}},
		{"DI (wide window: W=8)", func(e, _ *core.ModelEntry, _ []vidsim.Frame, seed int64) driftDetector {
			return diAdapter{core.NewDriftInspector(e, wideWindow, stats.NewRNG(seed))}
		}},
		{"DI (Σ from VAE)", func(_, v *core.ModelEntry, _ []vidsim.Frame, seed int64) driftDetector {
			return diAdapter{core.NewDriftInspector(v, core.DefaultDIConfig(), stats.NewRNG(seed))}
		}},
		{"multiplicative martingale", func(e, _ *core.ModelEntry, _ []vidsim.Frame, seed int64) driftDetector {
			return newPowerDetector(e, stats.NewRNG(seed))
		}},
		{"two-sample KS (window 40)", func(e, _ *core.ModelEntry, train []vidsim.Frame, _ int64) driftDetector {
			return newKSDetector(e, train)
		}},
	}

	// VAE-sourced entries, provisioned once per sequence.
	vaeEntries := make([]*core.ModelEntry, len(ds.Sequences))
	for i := range ds.Sequences {
		p := env.Provision
		p.Source = core.SourceVAE
		p.VAEEpochs = 4
		p.Seed = cfg.Seed + int64(i)*31
		vaeEntries[i] = core.Provision(ds.Sequences[i].Name, ds.TrainingStream(i, cfg.TrainFrames), nil, p)
	}

	res := AblationResult{}
	const preLen, postLen = 400, 600
	for _, v := range variants {
		row := AblationRow{Variant: v.name, Transitions: len(ds.Sequences)}
		lagSum, detected := 0, 0
		for seq := range ds.Sequences {
			prevIdx := (seq + len(ds.Sequences) - 1) % len(ds.Sequences)
			det := v.build(env.Registry.Entries()[prevIdx], vaeEntries[prevIdx],
				ds.TrainingFrames(prevIdx, cfg.TrainFrames), cfg.Seed+int64(seq))
			stream := ds.TransitionStream(seq, preLen, postLen)
			driftAt := stream.DriftPoints()[0]
			cooldown := 0 // frames to ignore after a false alarm, so one
			// excursion is not counted once per refire
			for i := 0; ; i++ {
				f, ok := stream.Next()
				if !ok {
					break
				}
				fired := det.observe(f)
				if cooldown > 0 {
					cooldown--
					continue
				}
				if fired {
					if i < driftAt {
						row.FalsePos++
						det.reset()
						cooldown = 50
						continue
					}
					lagSum += i - driftAt + 1
					detected++
					break
				}
			}
		}
		row.Missed = len(ds.Sequences) - detected
		if detected > 0 {
			row.MeanLag = float64(lagSum) / float64(detected)
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// Render formats the ablation table.
func (r AblationResult) Render() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Ablation — drift-detector variants on the Detrac transitions")
	fmt.Fprintf(&b, "%-32s %10s %8s %8s\n", "variant", "mean lag", "missed", "false+")
	for _, row := range r.Rows {
		lag := "—"
		if row.Missed < row.Transitions {
			lag = fmt.Sprintf("%.1f", row.MeanLag)
		}
		fmt.Fprintf(&b, "%-32s %10s %8d %8d\n", row.Variant, lag, row.Missed, row.FalsePos)
	}
	return b.String()
}
