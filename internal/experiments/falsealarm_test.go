package experiments

import (
	"os"
	"testing"

	"videodrift/internal/core"
	"videodrift/internal/dataset"
	"videodrift/internal/query"
	"videodrift/internal/stats"
	"videodrift/internal/vidsim"
)

// falseAlarmFrames is each stationary stream's length: 10 000 frames, a
// thousand sampled p-values at the default stride.
const falseAlarmFrames = 10_000

// falseAlarmSeeds are the stream seeds every condition is run under.
var falseAlarmSeeds = []int64{1, 2}

// falseAlarmRun is one stationary stream through the served pipeline.
type falseAlarmRun struct {
	frames, alarms, selections, trainings int
	// pvals are the sampled p-values of the condition's own model, in
	// stream order, across the resets after its alarms.
	pvals []float64
}

// runFalseAlarm streams frames of condition seq alone — no drift — through
// the pipeline driftserve serves (env built by BuildEnvFor under MSBI, the
// condition's own model deployed first, DefaultDIConfig) and collects the
// inspector's sampled p-values through its probe while the condition's
// own model is deployed. Every alarm ends the inspector it came from: the
// selection or training that follows deploys a fresh one.
func runFalseAlarm(env *Env, seq, frames int, seed int64) falseAlarmRun {
	entries := env.Registry.Entries()
	own := entries[seq]
	ordered := append([]*core.ModelEntry{own}, entries[:seq]...)
	ordered = append(ordered, entries[seq+1:]...)
	cfg := env.PipelineConfig(core.SelectorMSBI)
	cfg.DI = core.DefaultDIConfig()
	cfg.Seed = seed
	p := core.NewPipeline(core.NewRegistry(ordered...), env.Labeler(), cfg)
	var run falseAlarmRun
	var di *core.DriftInspector
	stream := vidsim.NewStream(env.DS.W, env.DS.H, seed, vidsim.Segment{Cond: env.DS.Sequences[seq], Length: frames})
	for f, ok := stream.Next(); ok; f, ok = stream.Next() {
		if d := p.Inspector(); d != di {
			di = d
			if p.Current() == own {
				di.SetProbe(func(pv, _, _ float64) { run.pvals = append(run.pvals, pv) })
			}
		}
		p.Process(f)
	}
	m := p.Metrics()
	run.frames, run.alarms, run.selections, run.trainings = m.Frames, m.DriftsDetected, m.ModelsSelected, m.ModelsTrained
	return run
}

// autocorr is the lag-k sample autocorrelation of xs.
func autocorr(xs []float64, k int) float64 {
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	num, den := 0.0, 0.0
	for i, x := range xs {
		den += (x - mean) * (x - mean)
		if i+k < len(xs) {
			num += (x - mean) * (xs[i+k] - mean)
		}
	}
	return num / den
}

// falseAlarmRow is one condition's record over every seed.
type falseAlarmRow struct {
	name                   string
	per10k                 float64    // alarms per 10 000 frames
	acf                    [4]float64 // lag 1–4, the mean over seeds
	ksD                    float64    // KS distance from uniform, the mean over seeds
	alarms, sel, trainings int
}

func falseAlarmCondition(env *Env, seq int) falseAlarmRow {
	row := falseAlarmRow{name: env.DS.Name + " " + env.DS.Sequences[seq].Name}
	frames := 0
	for _, seed := range falseAlarmSeeds {
		run := runFalseAlarm(env, seq, falseAlarmFrames, seed)
		frames += run.frames
		row.alarms += run.alarms
		row.sel += run.selections
		row.trainings += run.trainings
		for k := range row.acf {
			row.acf[k] += autocorr(run.pvals, k+1) / float64(len(falseAlarmSeeds))
		}
		d, _ := stats.KSUniform(run.pvals)
		row.ksD += d / float64(len(falseAlarmSeeds))
	}
	row.per10k = 1e4 * float64(row.alarms) / float64(frames)
	return row
}

// TestFalseAlarmsOnStationaryStreams is the false-alarm measurement of the
// served detector (ROADMAP item 1(a), EXPERIMENTS.md "falsealarm"): on a
// stream that never drifts, every alarm is false. It pins what breaks the
// conformal validity guarantee, which rests on exchangeable p-values (Vovk
// et al.): on every condition measured, the sampled p-values are serially
// dependent — their lag-1 autocorrelation is positive. The alarm rate
// against the 0.79-per-10 000 design rate is logged, not asserted: the
// calibration and dependence fixes (1(b), 1(c)) come first. A subset of
// three conditions runs by default; FALSEALARM_ALL=1 runs all twelve and
// logs the table's rows.
func TestFalseAlarmsOnStationaryStreams(t *testing.T) {
	if raceDetector {
		t.Skip("a statistical measurement: the race detector only slows it")
	}
	subset := map[string][]int{"bdd": {0}, "detrac": {2}, "tokyo": {1}}
	all := os.Getenv("FALSEALARM_ALL") != ""
	for _, name := range []string{"bdd", "detrac", "tokyo"} {
		ds, err := dataset.ByName(name, DefaultConfig().Scale)
		if err != nil {
			t.Fatal(err)
		}
		env := BuildEnvFor(ds, DefaultConfig(), query.Count, core.SelectorMSBI)
		seqs := subset[name]
		if all {
			seqs = nil
			for i := range ds.Sequences {
				seqs = append(seqs, i)
			}
		}
		for _, seq := range seqs {
			r := falseAlarmCondition(env, seq)
			t.Logf("| %s | %.1f | %.2f | %.2f | %.2f | %.2f | %.3f | %d | %.2f | %.2f |", r.name, r.per10k,
				r.acf[0], r.acf[1], r.acf[2], r.acf[3], r.ksD, r.alarms,
				share(r.sel, r.alarms), share(r.trainings, r.alarms))
			if r.acf[0] <= 0 {
				t.Errorf("%s: lag-1 autocorrelation of the sampled p-values %.3f, want > 0 (the serial dependence the measurement found)", r.name, r.acf[0])
			}
		}
	}
}

// share is n/of, 0 when of is.
func share(n, of int) float64 {
	if of == 0 {
		return 0
	}
	return float64(n) / float64(of)
}
