package forensics

import (
	"fmt"
	"io"

	"videodrift/internal/core"
	"videodrift/internal/telemetry"
)

// Report is the full forensic explanation of one drift declaration:
// the recorded evidence, the ranked per-feature attribution, the
// replayed martingale trajectory, and how the selection phase resolved.
// It is what `drifttool explain` renders and what driftserve's
// /drift/<id> endpoint serves as JSON.
type Report struct {
	ID    string `json:"id"`
	Frame int    `json:"frame"`
	Model string `json:"model"`

	Lag         int     `json:"lag"`
	Sampled     int     `json:"sampled"`
	Martingale  float64 `json:"martingale"`
	WindowDelta float64 `json:"window_delta"`
	MeanP       float64 `json:"mean_p"`

	Attribution []telemetry.DimShift `json:"attribution,omitempty"`

	BaseFrame int          `json:"base_frame"`
	PreRoll   int          `json:"pre_roll"` // stream frames the replay spans
	Kept      int          `json:"kept"`     // of them, the frames it reads
	Replay    ReplayResult `json:"replay"`

	Resolved   bool       `json:"resolved"`
	Resolution Resolution `json:"resolution,omitzero"`
}

// BuildReport replays the declaration and assembles its report. See
// Replay for the entries/cfg contract.
func BuildReport(entries []*core.ModelEntry, cfg core.PipelineConfig, d Declaration) (Report, error) {
	rep, err := Replay(entries, cfg, d)
	if err != nil {
		return Report{}, err
	}
	return Report{
		ID:          d.ID,
		Frame:       d.Frame,
		Model:       d.Model,
		Lag:         d.Lag,
		Sampled:     d.Sampled,
		Martingale:  d.Martingale,
		WindowDelta: d.WindowDelta,
		MeanP:       d.MeanP,
		Attribution: d.Attribution,
		BaseFrame:   d.BaseFrame,
		PreRoll:     d.Frame - d.BaseFrame + 1,
		Kept:        len(d.Frames),
		Replay:      rep,
		Resolved:    d.Resolved,
		Resolution:  d.Resolution,
	}, nil
}

// WriteText renders the report as an indented plain-text explanation.
func (rep Report) WriteText(w io.Writer) {
	p := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }
	p("%s — drift on model %s at frame %d\n", rep.ID, rep.Model, rep.Frame)
	p("  declared  after %d frames observed (%d sampled into the martingale)\n", rep.Lag, rep.Sampled)
	p("  evidence  martingale %.4f, window delta %.4f, mean p-value %.4f\n", rep.Martingale, rep.WindowDelta, rep.MeanP)
	match := "NO — trajectory diverged"
	if rep.Replay.Matches {
		match = "yes, bit-identical"
	}
	redeclared := "never re-fired"
	if rep.Replay.DeclaredFrame >= 0 {
		redeclared = fmt.Sprintf("re-declared at frame %d", rep.Replay.DeclaredFrame)
	}
	p("  replay    %d pre-roll frames from frame %d, %d kept: %s (matches recording: %s)\n",
		rep.PreRoll, rep.BaseFrame, rep.Kept, redeclared, match)
	if len(rep.Attribution) > 0 {
		p("  attribution (reference vs recent window, most moved first):\n")
		p("    %4s  %-14s  %8s  %8s  %11s  %9s\n", "dim", "name", "js", "kl", "mean shift", "var ratio")
		for _, a := range rep.Attribution {
			name := a.Name
			if name == "" {
				name = "-"
			}
			p("    %4d  %-14s  %8.4f  %8.4f  %+11.4f  %9.4f\n", a.Dim, name, a.JS, a.KL, a.MeanShift, a.VarRatio)
		}
	}
	if len(rep.Replay.Points) > 0 {
		p("  trajectory (replayed martingale updates):\n")
		p("    %7s  %8s  %10s  %12s\n", "frame", "p-value", "martingale", "window delta")
		for _, pt := range rep.Replay.Points {
			p("    %7d  %8.4f  %10.4f  %12.4f\n", pt.Frame, pt.PValue, pt.Martingale, pt.WindowDelta)
		}
	}
	switch {
	case rep.Resolved && rep.Resolution.Abandoned:
		p("  resolution  training abandoned at frame %d; %s kept serving degraded\n", rep.Resolution.Frame, rep.Model)
	case rep.Resolved && rep.Resolution.TrainedNew:
		p("  resolution  trained and deployed %s at frame %d\n", rep.Resolution.Model, rep.Resolution.Frame)
	case rep.Resolved:
		p("  resolution  switched to %s at frame %d\n", rep.Resolution.Model, rep.Resolution.Frame)
	default:
		p("  resolution  pending (selection still collecting)\n")
	}
	if rep.Resolved && len(rep.Resolution.Candidates) > 0 {
		p("    candidates:\n")
		for _, c := range rep.Resolution.Candidates {
			switch {
			case c.Rejected:
				p("      %-12s  rejected (martingale %.4f, mean p %.4f)\n", c.Model, c.Martingale, c.MeanP)
			case c.Brier > 0:
				p("      %-12s  brier %.4f\n", c.Model, c.Brier)
			default:
				p("      %-12s  accepted (martingale %.4f, mean p %.4f)\n", c.Model, c.Martingale, c.MeanP)
			}
		}
	}
}
