package core

import (
	"fmt"
	"testing"

	"videodrift/internal/classifier"
	"videodrift/internal/stats"
	"videodrift/internal/vidsim"
)

// TestMSBIParallelDeterminism holds the serial selector to what the
// pooled one decided at the commit before it (values recorded there, the
// same at 1, 2 and 8 workers): for every drift scenario MSBI under a
// fixed seed selects the same model, escalates the same number of times,
// reports identical candidate outcomes — p-value tie-break draws included
// — and leaves the caller's RNG where the fan-out left it, one draw per
// entry on.
func TestMSBIParallelDeterminism(t *testing.T) {
	f := getFixture()
	entries := []*ModelEntry{f.day, f.night, f.rain}
	const rejected = `{%s true 20 0}` // martingale at its cap, every p-value 0
	scenarios := []struct {
		name       string
		window     []vidsim.Frame
		selected   string
		candidates [3]string // Model, Rejected, Martingale, MeanP
	}{
		{"to-day", streamFrames(dayC(), 40, 101), "day", [3]string{"{day false 0 0.520833333}", rejected, rejected}},
		{"to-night", streamFrames(nightC(), 40, 101), "night", [3]string{rejected, "{night false 3 0.425}", rejected}},
		{"to-rain", streamFrames(rainC(), 40, 101), "rain", [3]string{rejected, rejected, "{rain false 0 0.550833333}"}},
		{"to-novel-fog", streamFrames(fogCond(), 40, 101), "<train-new>", [3]string{rejected, rejected, rejected}},
		// The day model's own training frames: those it calibrated on score
		// exact ties, so these p-values are the only ones here that read
		// their tie-break draws — the entry's child stream, bit for bit.
		{"ties", vidsim.GenerateTraining(dayC(), testW, testH, 200, 11)[:40], "day", [3]string{"{day false 2.00324349 0.497990491}", rejected, rejected}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			rng := stats.NewRNG(55)
			got := MSBI(vidsim.KeepAll(sc.window), entries, DefaultMSBIConfig(), rng)
			if name(got.Selected) != sc.selected || got.Escalations != 0 || got.FramesUsed != 30 {
				t.Fatalf("Selected = %s after %d escalations over %d frames; the parent: %s, 0, 30",
					name(got.Selected), got.Escalations, got.FramesUsed, sc.selected)
			}
			if len(got.Candidates) != len(entries) {
				t.Fatalf("%d candidates, want %d", len(got.Candidates), len(entries))
			}
			for i, c := range got.Candidates {
				want := sc.candidates[i]
				if want == rejected {
					want = fmt.Sprintf(rejected, entries[i].Name)
				}
				if s := fmt.Sprintf("{%s %v %.9g %.9g}", c.Model, c.Rejected, c.Martingale, c.MeanP); s != want {
					t.Errorf("candidate %d = %s, the parent: %s", i, s, want)
				}
			}
			if next := rng.Int63(); next != 8258778747693504227 {
				t.Errorf("the caller's RNG draws %d after the selection; after the parent's, 8258778747693504227", next)
			}
		})
	}
}

// TestMSBOParallelDeterminism checks the output-side selector the same
// way: the winner and the candidates' order and verdicts everywhere, the
// Brier scores where the fixture's training is bit-reproducible
// (pinBriers).
func TestMSBOParallelDeterminism(t *testing.T) {
	f := getFixture()
	entries := []*ModelEntry{f.day, f.night, f.rain}
	th := CalibrateMSBO(entries)
	for _, sc := range []struct {
		name     string
		cond     vidsim.Condition
		selected string
		briers   [3]string
	}{
		{"to-night", nightC(), "day", [3]string{"1.72134808e-05", "0.00441093655", "0.0126437868"}},
		{"to-novel-fog", fogCond(), "night", [3]string{"0.0790574485", "0.0579464575", "0.314500603"}},
	} {
		t.Run(sc.name, func(t *testing.T) {
			frames := streamFrames(sc.cond, 12, 77)
			labeled := make([]classifier.Sample, len(frames))
			for i, fr := range frames {
				labeled[i] = f.day.QuerySample(fr, testLabeler(fr))
			}
			got := MSBO(labeled, entries, th, DefaultMSBOConfig())
			if name(got.Selected) != sc.selected || got.FramesUsed != 10 {
				t.Fatalf("Selected = %s over %d frames; the parent: %s over 10", name(got.Selected), got.FramesUsed, sc.selected)
			}
			if len(got.Candidates) != len(entries) {
				t.Fatalf("%d candidates, want %d", len(got.Candidates), len(entries))
			}
			for i, c := range got.Candidates {
				if c.Model != entries[i].Name || c.Rejected || c.Brier != got.Briers[c.Model] {
					t.Errorf("candidate %d = %+v (Briers[%s] = %v); want %s, not rejected", i, c, c.Model, got.Briers[c.Model], entries[i].Name)
				}
				if s := fmt.Sprintf("%.9g", c.Brier); pinBriers && s != sc.briers[i] {
					t.Errorf("candidate %d: Brier %s, the parent: %s", i, s, sc.briers[i])
				}
			}
			if got.BestBrier != got.Briers[sc.selected] {
				t.Errorf("BestBrier = %v, the selected model's is %v", got.BestBrier, got.Briers[sc.selected])
			}
		})
	}
}

func name(e *ModelEntry) string {
	if e == nil {
		return "<train-new>"
	}
	return e.Name
}
