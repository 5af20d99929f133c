package forensics

import (
	"fmt"
	"math"

	"videodrift/internal/core"
	"videodrift/internal/tensor"
)

// ReplayPoint is one martingale update observed during a replay: the
// stream frame whose sample produced it, the conformal p-value folded
// in, and the post-update martingale value and windowed growth.
type ReplayPoint struct {
	Frame       int     `json:"frame"`
	PValue      float64 `json:"p_value"`
	Martingale  float64 `json:"martingale"`
	WindowDelta float64 `json:"window_delta"`
}

// ReplayResult is the outcome of re-running a declaration's pre-roll.
type ReplayResult struct {
	// Points traces every martingale update, in stream order. Frames the
	// sampling stride skipped (and quarantined frames) produce no point.
	Points []ReplayPoint `json:"points"`
	// DeclaredFrame is the stream frame on which the replayed pipeline
	// re-declared the drift, or -1 if it never fired (a mismatch).
	DeclaredFrame int `json:"declared_frame"`
	// Martingale and WindowDelta are the inspector's final values when
	// the replay stopped.
	Martingale  float64 `json:"martingale"`
	WindowDelta float64 `json:"window_delta"`
	// Matches reports a bit-identical reproduction: the replay declared
	// on the recorded frame with exactly the recorded martingale value
	// and windowed growth.
	Matches bool `json:"matches"`
}

// Replay re-runs a declaration's captured pre-roll through a pipeline
// restored from the declaration's base snapshot, tracing every
// martingale update; over the frames the recorder did not keep it only
// steps the inspector's count, which is all the live run did with them.
// entries must be the registry the declaring
// pipeline ran over (the facade's checkpointed entries qualify: the
// base snapshot only references entries that existed before the
// pre-roll, and registry insertion order is stable). cfg must carry the
// declaring pipeline's monitoring parameters; its Tracer, TrainFault
// and Selector are overridden — selection never runs before a
// declaration, so the replay forces the label-free selector and needs
// no labeler.
func Replay(entries []*core.ModelEntry, cfg core.PipelineConfig, d Declaration) (ReplayResult, error) {
	if len(d.Frames) == 0 || len(d.At) != len(d.Frames) {
		return ReplayResult{}, fmt.Errorf("forensics: declaration %s has %d captured frames at %d positions", d.ID, len(d.Frames), len(d.At))
	}
	rcfg := cfg
	rcfg.Tracer = nil
	rcfg.TrainFault = nil
	rcfg.Selector = core.SelectorMSBI
	pipe, err := core.RestorePipeline(core.NewRegistry(entries...), nil, rcfg, d.Base)
	if err != nil {
		return ReplayResult{}, fmt.Errorf("forensics: restoring replay pipeline for %s: %w", d.ID, err)
	}
	res := ReplayResult{DeclaredFrame: -1}
	cur := d.BaseFrame
	di := pipe.Inspector()
	di.SetProbe(func(p, value, windowDelta float64) {
		res.Points = append(res.Points, ReplayPoint{Frame: cur, PValue: p, Martingale: value, WindowDelta: windowDelta})
	})
	var px tensor.Vector // each kept frame widened into it, and lent to Process
	for i, h := range d.Frames {
		// The stream frames up to the next kept one were counted, not read:
		// nil pixels go unread too. Were the stride due on one of them — a
		// wrong At — the inspector quarantines the nil vector and the
		// trajectory ends there, short of the declaration: no match.
		for ; cur < d.At[i]; cur++ {
			di.Observe(nil)
		}
		f := h.Frame(px)
		px = f.Pixels
		if out := pipe.Process(f); out.Drift {
			res.DeclaredFrame = cur
			break
		}
		cur++
	}
	res.Martingale = di.MartingaleValue()
	res.WindowDelta = di.WindowDelta()
	res.Matches = res.DeclaredFrame == d.Frame &&
		math.Float64bits(res.Martingale) == math.Float64bits(d.Martingale) &&
		math.Float64bits(res.WindowDelta) == math.Float64bits(d.WindowDelta)
	return res, nil
}
