package core

import (
	"fmt"
	"time"

	"videodrift/internal/conformal"
	"videodrift/internal/stats"
	"videodrift/internal/telemetry"
	"videodrift/internal/tensor"
	"videodrift/internal/vidsim"
	"videodrift/internal/vision"
)

// DIConfig carries the Drift Inspector parameters of Algorithm 1 /
// Table 1.
type DIConfig struct {
	W     int     // martingale observation window
	R     float64 // significance level r
	K     int     // nearest neighbours for the non-conformity score
	Kappa float64 // betting-function gain: g(p) = κ(1/2 − p)
	Mode  conformal.ThresholdMode
	// SampleEvery monitors only every Nth frame (1 = every frame). The
	// paper monitors "by sampling the video stream" (§3); sampling both
	// cuts per-frame cost and decorrelates the martingale's increments, so
	// short in-distribution excursions (traffic bursts, exposure wander)
	// do not masquerade as drifts. Detection lag in frames is roughly
	// W × SampleEvery, matching the paper's reported ≈28-frame lags.
	SampleEvery int
}

// DefaultDIConfig returns the monitoring parameters: the paper's r=0.5 and
// K=5 (§6.1), W=4 rather than 3 (with the corrected Hoeffding threshold,
// W=3 leaves under 4% headroom between the threshold and the maximum
// attainable windowed growth — see DESIGN.md §2), a stream-sampling stride
// of 10 (spanning past in-distribution appearance excursions, which last up to ~25 frames), and a betting gain sized so the windowed test is satisfiable.
func DefaultDIConfig() DIConfig {
	return DIConfig{W: 4, R: 0.5, K: 5, Kappa: 4, Mode: conformal.ThresholdHoeffding, SampleEvery: 10}
}

// DriftInspector is Algorithm 1: an online conformal-martingale monitor
// for one model's distribution. Feed it every frame; it returns true when
// the windowed martingale growth exceeds the Eq. 15 threshold. It is not
// safe for concurrent use.
type DriftInspector struct {
	entry  *ModelEntry
	cfg    DIConfig
	scorer *conformal.KNNScorer // kNN fast path over the entry's FeatMatrix
	fz     vision.Featurizer    // reusable featurization scratch
	mart   *conformal.CUSUM
	test   conformal.DriftTest
	rng    *stats.RNG
	tracer *telemetry.Tracer
	fstats *FeatWindowStats // reference-vs-recent attribution statistics

	seen        int     // frames offered, including skipped ones
	sampled     int     // frames actually folded into the martingale
	quarantined int     // sampled frames rejected as malformed
	pSum        float64 // running sum of computed p-values
}

// NewDriftInspector builds a monitor for the distribution captured by
// entry, using the entry's precomputed Σ_{T_i} and A_i.
func NewDriftInspector(entry *ModelEntry, cfg DIConfig, rng *stats.RNG) *DriftInspector {
	if entry == nil {
		panic("core: NewDriftInspector with nil entry")
	}
	if cfg.W <= 0 || cfg.K <= 0 || cfg.Kappa <= 0 {
		panic("core: NewDriftInspector with invalid config")
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 1
	}
	return &DriftInspector{
		entry:  entry,
		cfg:    cfg,
		scorer: conformal.NewKNNScorer(cfg.K, entry.FeatMatrix()),
		mart:   conformal.NewCUSUM(conformal.ShiftedOdd(cfg.Kappa), cfg.Kappa/2, cfg.W),
		test:   conformal.DriftTest{W: cfg.W, R: cfg.R, Mode: cfg.Mode},
		rng:    rng,
		fstats: NewFeatWindowStats(entry.SampleFeats),
	}
}

// SetTracer attaches a telemetry tracer. A nil tracer (the default)
// keeps the untraced fast path: one pointer compare per sampled frame.
func (di *DriftInspector) SetTracer(tr *telemetry.Tracer) { di.tracer = tr }

// Observe offers one frame's pixels to the monitor and reports whether a
// drift is declared. Only every SampleEvery-th frame is folded into the
// martingale (Algorithm 1 end to end: non-conformity score, p-value with
// uniform tie-break, betting-function update, windowed threshold test);
// skipped frames are free.
func (di *DriftInspector) Observe(pixels tensor.Vector) bool { return di.observe(pixels, nil) }

// observe is Observe for a frame whose appearance features the caller
// may already hold: feat, when not nil, is what vision.Featurize computes
// for the pixels, bit for bit (the deployed classifier's query vector
// carries it), and a sampled frame is not featurized again.
func (di *DriftInspector) observe(pixels, feat tensor.Vector) bool {
	di.seen++
	if (di.seen-1)%di.cfg.SampleEvery != 0 {
		return false
	}
	// Boundary validation (defense in depth behind the pipeline's
	// admission gate, and the only gate for callers driving Observe
	// directly): a malformed vector never reaches the featurizer, the
	// kNN scorer or the martingale. Only sampled frames are scanned, so
	// stride-skipped frames stay free.
	if reason := PixelsProblem(pixels, di.entry.W, di.entry.H); reason != "" {
		di.quarantined++
		di.tracer.FrameQuarantined(reason)
		return false
	}
	di.sampled++
	// Stage timestamps come from the tracer's injected clock, never
	// time.Now: the untraced path reads no clock at all, and traced
	// deterministic replays stay bit-identical under a test clock (the
	// driftlint determinism analyzer enforces this).
	tr := di.tracer
	var t0 time.Time
	if tr != nil {
		t0 = tr.Now()
	}
	if feat == nil {
		feat = di.fz.Appearance(pixels, di.entry.W, di.entry.H)
	}
	di.fstats.Observe(feat) // copies; the featurizer reuses its buffer
	if tr != nil {
		t1 := tr.Now()
		tr.ObserveStage(telemetry.StageFeaturize, t1.Sub(t0))
		t0 = t1
	}
	a := di.scorer.Score(feat)
	if tr != nil {
		t1 := tr.Now()
		tr.ObserveStage(telemetry.StageKNNScore, t1.Sub(t0))
		t0 = t1
	}
	p := di.entry.Calib.PValue(a, di.rng.Float64())
	if tr != nil {
		t1 := tr.Now()
		tr.ObserveStage(telemetry.StagePValue, t1.Sub(t0))
		t0 = t1
	}
	di.pSum += p
	di.mart.Update(p)
	fired := di.test.Check(di.mart)
	if tr != nil {
		tr.ObserveStage(telemetry.StageMartingale, tr.Now().Sub(t0))
		tr.MartingaleUpdate(p, di.mart.Value(), di.mart.WindowDelta(), di.MeanP())
		if fired {
			tr.DriftDeclared(di.entry.Name, di.seen, di.sampled, di.mart.Value(), di.mart.WindowDelta(), di.MeanP(),
				di.fstats.Attribution())
		}
	}
	return fired
}

// Attribution returns the ranked per-dimension reference-vs-recent
// divergences of the inspector's feature statistics (nil before the
// first sampled frame). It is a pure read: calling it does not perturb
// the replay-critical state.
func (di *DriftInspector) Attribution() []telemetry.DimShift { return di.fstats.Attribution() }

// SetProbe attaches an observational probe to the inspector's martingale
// (see conformal.Probe); forensics replay uses it to trace every update
// of a restored inspector.
func (di *DriftInspector) SetProbe(fn conformal.Probe) { di.mart.SetProbe(fn) }

// ObserveFrame is Observe on a vidsim frame.
func (di *DriftInspector) ObserveFrame(f vidsim.Frame) bool { return di.Observe(f.Pixels) }

// MartingaleValue returns the current martingale value S_l.
func (di *DriftInspector) MartingaleValue() float64 { return di.mart.Value() }

// WindowDelta returns the current windowed growth |S_l − S_{l−W}|.
func (di *DriftInspector) WindowDelta() float64 { return di.mart.WindowDelta() }

// Observed returns the number of frames offered since the last reset
// (including frames the sampling stride skipped).
func (di *DriftInspector) Observed() int { return di.seen }

// ReadLast reports whether the sampling stride fell on the last frame
// offered — Observe read its pixels rather than only counting it.
func (di *DriftInspector) ReadLast() bool { return di.seen > 0 && (di.seen-1)%di.cfg.SampleEvery == 0 }

// Sampled returns the number of frames actually folded into the
// martingale since the last reset.
func (di *DriftInspector) Sampled() int { return di.sampled }

// Quarantined returns the number of sampled frames rejected as
// malformed since the last reset.
func (di *DriftInspector) Quarantined() int { return di.quarantined }

// MeanP returns the mean conformal p-value of the sampled frames since
// the last reset (0.5 in expectation when the stream matches the model's
// distribution — Theorem 4.1 — and near 0 under drift).
func (di *DriftInspector) MeanP() float64 {
	if di.sampled == 0 {
		return 0
	}
	return di.pSum / float64(di.sampled)
}

// Reset clears the martingale and the recent feature window (called
// after a model switch).
func (di *DriftInspector) Reset() {
	di.mart.Reset()
	di.fstats.Reset()
	di.seen = 0
	di.sampled = 0
	di.quarantined = 0
	di.pSum = 0
}

// DISnapshot is a serializable copy of a Drift Inspector's mutable
// state: the martingale, the tie-break RNG's stream position, and the
// frame counters. Together with the (externally supplied) DIConfig and
// model entry it reconstructs the inspector bit-exactly.
//
//driftlint:snapshot encode=DriftInspector.capture decode=RestoreDriftInspector
type DISnapshot struct {
	Mart        conformal.CUSUMState
	RNG         stats.RNGState
	Seen        int
	Sampled     int
	Quarantined int
	PSum        float64
	// FStats is the attribution accumulator's recent feature window (its
	// reference half is recomputed from the entry on restore).
	FStats FeatStatsState
}

// Snapshot captures the inspector's current state for checkpointing.
func (di *DriftInspector) Snapshot() DISnapshot {
	return di.capture(di.mart.State(), di.fstats.State())
}

// SnapshotInto is Snapshot into the storage s holds (see
// Pipeline.SnapshotInto).
func (di *DriftInspector) SnapshotInto(s DISnapshot) DISnapshot {
	return di.capture(di.mart.StateInto(s.Mart), di.fstats.StateInto(s.FStats))
}

// capture is the inspector's state around the given martingale and
// attribution-window captures.
func (di *DriftInspector) capture(mart conformal.CUSUMState, fstats FeatStatsState) DISnapshot {
	return DISnapshot{
		Mart:        mart,
		RNG:         di.rng.State(),
		Seen:        di.seen,
		Sampled:     di.sampled,
		Quarantined: di.quarantined,
		PSum:        di.pSum,
		FStats:      fstats,
	}
}

// RestoreDriftInspector rebuilds an inspector from a snapshot taken
// against the same entry and config: every subsequent Observe returns
// exactly what the snapshotted inspector would have returned.
func RestoreDriftInspector(entry *ModelEntry, cfg DIConfig, snap DISnapshot) (*DriftInspector, error) {
	if snap.Seen < 0 || snap.Sampled < 0 || snap.Sampled > snap.Seen || snap.Quarantined < 0 {
		return nil, fmt.Errorf("core: drift-inspector snapshot has inconsistent counters (seen=%d sampled=%d quarantined=%d)", snap.Seen, snap.Sampled, snap.Quarantined)
	}
	di := NewDriftInspector(entry, cfg, stats.ResumeRNG(snap.RNG))
	if err := di.mart.SetState(snap.Mart); err != nil {
		return nil, err
	}
	di.seen = snap.Seen
	di.sampled = snap.Sampled
	di.quarantined = snap.Quarantined
	di.pSum = snap.PSum
	di.fstats.SetState(snap.FStats)
	return di, nil
}
