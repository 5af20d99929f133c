package core

import (
	"fmt"
	"math"

	"videodrift/internal/classifier"
	"videodrift/internal/parallel"
	"videodrift/internal/stats"
	"videodrift/internal/telemetry"
)

// MSBOConfig carries the Model-Selection-Based-on-Output parameters
// (Algorithm 3).
type MSBOConfig struct {
	WT int // post-drift frames evaluated (§6.2)
}

// DefaultMSBOConfig returns the paper's W_T = 10.
func DefaultMSBOConfig() MSBOConfig { return MSBOConfig{WT: 10} }

// MSBOThresholds holds the calibrated per-model uncertainty baselines of
// §5.2.2: PCAvg[k] is the mean Brier score of model k's ensemble on the
// calibration samples of the *other* distributions (its typical
// off-distribution uncertainty) and Sigma[k] the standard deviation across
// those distributions. A candidate must beat PCAvg − Sigma to be deployed
// (Algorithm 3 line 15).
type MSBOThresholds struct {
	PCAvg map[string]float64
	Sigma map[string]float64
}

// Threshold returns the deployment threshold for the named model and
// whether calibration data for it exists. The margin below the
// off-distribution baseline is at least 15% of the baseline so that small
// registries (where the σ across other distributions is estimated from
// one or two values and can collapse to zero) still demand a clear
// improvement over "confidently wrong".
func (t MSBOThresholds) Threshold(name string) (float64, bool) {
	avg, ok := t.PCAvg[name]
	if !ok {
		return 0, false
	}
	margin := t.Sigma[name]
	if min := 0.15 * avg; margin < min {
		margin = min
	}
	return avg - margin, true
}

// CheckSelector reports whether a pipeline running sel can select among
// entries. MSBO skips an entry without an ensemble, so over the
// supervised ones an MSBI deployment provisions (EnsembleSize 0) it would
// select nothing and train a new model at every drift. MSBI reads none.
func CheckSelector(sel SelectorKind, entries []*ModelEntry) error {
	if sel != SelectorMSBO {
		return nil
	}
	for _, e := range entries {
		if e.Classifier != nil && e.Ensemble == nil {
			return fmt.Errorf("core: SelectorMSBO over model %q, which has a classifier but no MSBO ensemble (it was provisioned for MSBI)", e.Name)
		}
	}
	return nil
}

// CalibrateMSBO computes MSBOThresholds from the registry's retained
// calibration samples S_{T_i}. Entries without ensembles or calibration
// samples are skipped. With fewer than two supervised entries no
// calibration is possible and the thresholds are empty (MSBO then falls
// back to an absolute Brier bound).
func CalibrateMSBO(entries []*ModelEntry) MSBOThresholds {
	th := MSBOThresholds{PCAvg: map[string]float64{}, Sigma: map[string]float64{}}
	// The m×(m−1) cross-scores are independent; compute each model's row
	// concurrently and fold the results serially in registry order.
	rows := make([][]float64, len(entries))
	parallel.New(0).ForEach(len(entries), func(i int) {
		k := entries[i]
		if k.Ensemble == nil {
			return
		}
		var briers []float64
		for _, other := range entries {
			if other == k || len(other.CalibSample) == 0 {
				continue
			}
			briers = append(briers, k.Ensemble.AvgBrier(other.CalibSample))
		}
		rows[i] = briers
	})
	for i, k := range entries {
		if len(rows[i]) == 0 {
			continue
		}
		th.PCAvg[k.Name] = stats.Mean(rows[i])
		th.Sigma[k.Name] = stats.StdDev(rows[i])
	}
	return th
}

// fallbackBrier is the absolute acceptance bound used when no calibrated
// threshold exists (single-model registries): anything better than a
// maximally uncertain two-way prediction.
const fallbackBrier = 0.25

// MSBOResult reports one MSBO run.
type MSBOResult struct {
	Selected   *ModelEntry // nil when a new model must be trained
	Briers     map[string]float64
	BestBrier  float64
	FramesUsed int
	// Candidates records every scored ensemble's Brier on the window in
	// registry order; Rejected marks the best candidate when it failed
	// the calibrated deployment threshold (the train-new-model path).
	Candidates []telemetry.Candidate
}

// MSBO is Algorithm 3: it scores every provisioned ensemble's predictive
// uncertainty (Brier score, the proper scoring rule of §5.2.1) on the
// labeled post-drift window W_T and deploys the least-uncertain model if
// its score clears the calibrated baseline; otherwise it signals that a
// new model must be trained (Selected = nil).
func MSBO(window []classifier.Sample, entries []*ModelEntry, th MSBOThresholds, cfg MSBOConfig) MSBOResult {
	res := MSBOResult{Briers: map[string]float64{}, BestBrier: math.Inf(1)}
	if len(window) == 0 || len(entries) == 0 {
		return res
	}
	n := cfg.WT
	if n <= 0 || n > len(window) {
		n = len(window)
	}
	frames := window[:n]
	res.FramesUsed = n

	// Score every ensemble in registry order; Brier scoring consumes no
	// randomness.
	var best *ModelEntry
	for _, e := range entries {
		if e.Ensemble == nil {
			continue
		}
		b := e.Ensemble.AvgBrier(frames)
		res.Briers[e.Name] = b
		res.Candidates = append(res.Candidates, telemetry.Candidate{Model: e.Name, Brier: b})
		if b < res.BestBrier {
			res.BestBrier = b
			best = e
		}
	}
	if best == nil {
		return res
	}
	limit, ok := th.Threshold(best.Name)
	if !ok {
		limit = fallbackBrier
	}
	if res.BestBrier <= limit {
		res.Selected = best
	} else {
		for i := range res.Candidates {
			if res.Candidates[i].Model == best.Name {
				res.Candidates[i].Rejected = true
			}
		}
	}
	return res
}
