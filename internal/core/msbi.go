package core

import (
	"videodrift/internal/conformal"
	"videodrift/internal/stats"
	"videodrift/internal/telemetry"
	"videodrift/internal/tensor"
	"videodrift/internal/vidsim"
	"videodrift/internal/vision"
)

// MSBIConfig carries the Model-Selection-Based-on-Input parameters
// (Algorithm 2).
type MSBIConfig struct {
	DI    DIConfig
	WN    int     // post-drift frames examined (§6.2 / §6.2.2)
	RStep float64 // significance escalation step for tie-breaking
	RMax  float64 // escalation cap (thresholds need r < 2)
	// MeanPFloor rescues marginal rejections: when every model's
	// martingale fires on the window, the model with the highest mean
	// conformal p-value is still selected if that mean clears this floor.
	// Matching models keep near-uniform p-values (mean ≈ 0.5, dipping
	// under transient scene cohorts) while genuinely mismatched models
	// sit near zero, so the floor separates "marginally strange" from
	// "novel distribution".
	MeanPFloor float64
}

// DefaultMSBIConfig returns the paper's MSBI parameters. W_N follows the
// §6.2.2 time analysis (30 frames examined). The selection window's Drift
// Inspectors sample every third frame: the window is short, but object
// appearance statistics persist for an object's lifetime (~25 frames), so
// per-frame testing would let one odd scene configuration masquerade as a
// rejection of the matching model.
func DefaultMSBIConfig() MSBIConfig {
	di := DefaultDIConfig()
	di.SampleEvery = 3
	return MSBIConfig{DI: di, WN: 30, RStep: 0.1, RMax: 1.9, MeanPFloor: 0.1}
}

// MSBIResult reports one MSBI run.
type MSBIResult struct {
	Selected    *ModelEntry // nil when a new model must be trained
	FramesUsed  int
	Escalations int // tie-break rounds (r increases)
	// Candidates records every model's first-round outcome at the base
	// significance level: whether its i.i.d. hypothesis was rejected,
	// its final martingale value and its mean conformal p-value on the
	// window (the telemetry payload of a SelectionResolved event).
	Candidates []telemetry.Candidate
}

// modelTrace is one model's memoized evidence on the selection window:
// the conformal p-values of the sampled frames (with their tie-break
// draws already consumed) plus the derived final martingale value and
// mean p-value. Escalation rounds and the least-drifted tie-break replay
// the martingale over ps at a different significance level instead of
// re-scoring frames — scores and p-values are computed exactly once per
// (model, frame).
type modelTrace struct {
	ps        []float64
	meanP     float64
	finalMart float64 // martingale value after the full window (r-independent)
}

// buildTrace scores one model over the pre-featurized sampled frames.
// RNG draw order matches a serial Drift Inspector replay: one uniform
// tie-break per sampled frame, in frame order.
func buildTrace(e *ModelEntry, feats []tensor.Vector, cfg DIConfig, rng *stats.RNG) *modelTrace {
	scorer := conformal.NewKNNScorer(cfg.K, e.FeatMatrix())
	tr := &modelTrace{ps: make([]float64, len(feats))}
	mart := conformal.NewCUSUM(conformal.ShiftedOdd(cfg.Kappa), cfg.Kappa/2, cfg.W)
	sum := 0.0
	for i, feat := range feats {
		a := scorer.Score(feat)
		p := e.Calib.PValue(a, rng.Float64())
		tr.ps[i] = p
		sum += p
		mart.Update(p)
	}
	if len(feats) > 0 {
		tr.meanP = sum / float64(len(feats))
	}
	tr.finalMart = mart.Value()
	return tr
}

// replayDrifted re-runs the martingale over a memoized p-value trace at
// significance r and reports whether the windowed test fires anywhere.
func replayDrifted(ps []float64, cfg DIConfig, r float64) bool {
	mart := conformal.NewCUSUM(conformal.ShiftedOdd(cfg.Kappa), cfg.Kappa/2, cfg.W)
	test := conformal.DriftTest{W: cfg.W, R: r, Mode: cfg.Mode}
	for _, p := range ps {
		mart.Update(p)
		if test.Check(mart) {
			return true
		}
	}
	return false
}

// MSBI is Algorithm 2: it replays the post-drift window through each
// provisioned model's conformal martingale at significance r. Models
// whose i.i.d. hypothesis is rejected (drift declared) are dropped. If
// every model rejects, the data is novel and a new model must be trained
// (Selected = nil). Ties between surviving models are broken by
// escalating r (shrinking the threshold) and, if several still survive
// at the cap, by the smallest final martingale value — the least-drifted
// match.
//
// The expensive work — featurizing the window and scoring it against
// every model's reference sample — happens exactly once: frames are
// featurized up front (features are model-independent), models are
// scored one after another on the calling goroutine (a fan-out measured
// flat or worse at every registry size — DESIGN.md §13), and the
// escalation rounds replay the memoized p-value traces through fresh
// martingales instead of consuming fresh randomness.
func MSBI(window []vidsim.Held, entries []*ModelEntry, cfg MSBIConfig, rng *stats.RNG) MSBIResult {
	if len(window) == 0 || len(entries) == 0 {
		return MSBIResult{}
	}
	n := cfg.WN
	if n <= 0 || n > len(window) {
		n = len(window)
	}
	frames := window[:n]
	res := MSBIResult{FramesUsed: n}

	di := cfg.DI
	if di.SampleEvery <= 0 {
		di.SampleEvery = 1
	}

	// Featurize the sampled frames once — appearance features depend only
	// on the frame, not on the model being tested — each widened into one
	// reused buffer.
	var (
		fz vision.Featurizer
		px tensor.Vector
	)
	feats := make([]tensor.Vector, 0, (n+di.SampleEvery-1)/di.SampleEvery)
	for i := 0; i < n; i += di.SampleEvery {
		f := frames[i]
		px = f.PixelsInto(px)
		feats = append(feats, fz.Appearance(px, f.W, f.H).Clone())
	}

	// Score every model on a stream of its own. One seed per entry is
	// drawn from rng, in registry order, before any entry is scored: the
	// traces, and rng's position after a selection, are pinned across
	// commits (TestMSBIParallelDeterminism), and checkpointed pipelines
	// carry that position.
	seeds := make([]int64, len(entries))
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	traces := make([]*modelTrace, len(entries))
	child := stats.NewRNG(seeds[0]) // seeding is a tenth of a selection: no spare one
	for i, e := range entries {
		if i > 0 {
			child.Reseed(seeds[i])
		}
		traces[i] = buildTrace(e, feats, di, child)
	}

	active := make([]int, len(entries))
	for i := range active {
		active[i] = i
	}
	r := di.R
	for {
		survivors := active[:0:0]
		bestMeanP := 0.0
		var bestEntry *ModelEntry
		for _, ci := range active {
			tr := traces[ci]
			drifted := replayDrifted(tr.ps, di, r)
			if tr.meanP > bestMeanP {
				bestMeanP = tr.meanP
				bestEntry = entries[ci]
			}
			if res.Escalations == 0 {
				res.Candidates = append(res.Candidates, telemetry.Candidate{
					Model:      entries[ci].Name,
					Rejected:   drifted,
					Martingale: tr.finalMart,
					MeanP:      tr.meanP,
				})
			}
			if !drifted {
				survivors = append(survivors, ci)
			}
		}
		switch {
		case len(survivors) == 0:
			// All models reject. If the best model's p-values were merely
			// dented (a transient scene cohort) rather than collapsed,
			// retain it; a genuinely novel distribution collapses every
			// model's p-values to ~0 (trainNewModel path). After
			// escalation rounds, the last surviving set ties and the
			// least-drifted candidate wins.
			switch {
			case res.Escalations > 0 && len(active) > 0:
				res.Selected = entries[leastDriftedIdx(traces, active)]
			case bestMeanP >= cfg.MeanPFloor:
				res.Selected = bestEntry
			}
			return res
		case len(survivors) == 1:
			res.Selected = entries[survivors[0]]
			return res
		}
		// Multiple survivors: escalate the significance level and retest
		// only them (Algorithm 2 line 14) over the memoized traces.
		active = survivors
		r += cfg.RStep
		res.Escalations++
		if r >= cfg.RMax {
			res.Selected = entries[leastDriftedIdx(traces, active)]
			return res
		}
	}
}

// leastDriftedIdx returns the candidate whose martingale ends lowest on
// the window — the closest distributional match. The final martingale
// value is significance-independent, so the memoized trace answers this
// directly.
func leastDriftedIdx(traces []*modelTrace, active []int) int {
	best := -1
	bestVal := 0.0
	for _, ci := range active {
		if v := traces[ci].finalMart; best < 0 || v < bestVal {
			best = ci
			bestVal = v
		}
	}
	return best
}
