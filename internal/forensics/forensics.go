// Package forensics turns drift declarations into explainable records.
// A Recorder rides alongside a pipeline, keeping a rolling pre-roll of
// the frames feeding the monitoring state — the ones the inspector's
// sampling stride read, not the ones it only counted — plus a pipeline
// snapshot from just before that pre-roll. When the Drift Inspector
// declares a drift, the recorder freezes the pre-roll, the snapshot, and
// the inspector's evidence (martingale value, windowed growth, mean
// p-value, ranked per-feature attribution) into a Declaration; Replay
// can then re-run the captured frames through a restored pipeline and
// reproduce the declaration bit-identically, step by step — the "time
// travel" half of drift forensics.
//
// All Recorder methods are nil-safe: a nil *Recorder no-ops, so callers
// keep a single untraced fast path (mirroring telemetry.Tracer).
package forensics

import (
	"fmt"
	"slices"
	"sync"

	"videodrift/internal/core"
	"videodrift/internal/telemetry"
	"videodrift/internal/vidsim"
)

// Defaults for Config fields left zero.
const (
	DefaultWindow = 64 // pre-roll frames retained before a declaration
	DefaultKeep   = 8  // declarations retained, oldest evicted first
)

// Config sizes a Recorder.
type Config struct {
	// Enabled turns forensic recording on. The zero Config (disabled)
	// makes the facade skip recorder construction entirely.
	Enabled bool
	// Window is the pre-roll length in stream frames: how far before a
	// declaration a replay starts. Of those frames the recorder keeps the
	// ones the inspector read (one in DIConfig.SampleEvery) and the ones
	// the admission gate quarantined. 0 means DefaultWindow.
	Window int
	// Keep bounds how many declarations are retained. 0 means DefaultKeep.
	Keep int
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	if c.Keep <= 0 {
		c.Keep = DefaultKeep
	}
	return c
}

// Resolution records how a declaration's selection phase ended.
type Resolution struct {
	// Frame is the stream frame on which the pipeline returned to
	// monitoring (model switch or degraded fallback).
	Frame int `json:"frame"`
	// Model is the model deployed after the drift ("" when training was
	// abandoned and the old model kept serving degraded).
	Model string `json:"model,omitempty"`
	// TrainedNew reports whether the deployed model was freshly trained
	// rather than selected from the registry.
	TrainedNew bool `json:"trained_new,omitempty"`
	// Abandoned reports the degraded path: training failed terminally and
	// the pre-drift model kept serving.
	Abandoned bool `json:"abandoned,omitempty"`
	// Candidates is the per-candidate outcome of the MSBI/MSBO run that
	// followed the declaration (empty when the tracer was nil).
	Candidates []telemetry.Candidate `json:"candidates,omitempty"`
}

// Declaration is one captured drift declaration: the evidence the
// inspector fired on, plus everything Replay needs to reproduce it.
type Declaration struct {
	// ID is the stable drift identifier (telemetry.DriftID of Frame).
	ID string `json:"id"`
	// Frame is the stream frame (0-based, per shard) of the declaration.
	Frame int `json:"frame"`
	// Model is the model that was being monitored when the drift fired.
	Model string `json:"model"`

	// Lag and Sampled are the inspector's frame counters at declaration:
	// frames observed since deployment (the detection lag upper bound)
	// and frames actually folded into the martingale.
	Lag     int `json:"lag"`
	Sampled int `json:"sampled"`
	// Martingale, WindowDelta and MeanP are the martingale value S_l, the
	// windowed growth |S_l − S_{l−W}| that crossed the threshold, and the
	// mean conformal p-value at declaration.
	Martingale  float64 `json:"martingale"`
	WindowDelta float64 `json:"window_delta"`
	MeanP       float64 `json:"mean_p"`
	// Attribution ranks the featurizer dimensions by reference-vs-recent
	// divergence — which features moved, most-moved first.
	Attribution []telemetry.DimShift `json:"attribution,omitempty"`

	// BaseFrame is the stream frame the replay base snapshot was taken
	// before. Frames are the frames from there on that the inspector read
	// or the gate quarantined — all Replay needs, the rest were only
	// counted — and At[i] is the stream frame Frames[i] is; both end with
	// the declaration frame itself.
	BaseFrame int                   `json:"base_frame"`
	Base      core.PipelineSnapshot `json:"-"`
	Frames    []vidsim.Held         `json:"-"`
	At        []int                 `json:"-"`

	// Resolved reports whether the post-drift selection has concluded;
	// Resolution is only meaningful when it has.
	Resolved   bool       `json:"resolved"`
	Resolution Resolution `json:"resolution,omitzero"`
}

// Mark is a point the pre-roll can be replayed from: the pipeline
// snapshot taken just before stream frame Frame.
type Mark struct {
	Frame int
	Snap  core.PipelineSnapshot
}

// Recorder captures drift declarations from one pipeline's frame stream.
// Its own locking makes reads (Declarations, Get, State) safe against
// the owning monitor's Record calls, but Record itself must be
// serialized with the pipeline — the facade calls it inline after
// Pipeline.Process.
type Recorder struct {
	mu     sync.Mutex
	cfg    Config
	tracer *telemetry.Tracer

	frame int // next stream frame index (frames seen so far)

	// Pre-roll state, maintained only while the pipeline is monitoring.
	// ring holds the kept frames since marks[0], the replay base, and at
	// the stream frame each one is; a further mark is taken every step
	// frames, and the oldest mark goes, with the frames before the next
	// one, as soon as Window stream frames follow it — so a declaration's
	// pre-roll spans at least Window and fewer than Window+step stream
	// frames once the stream has run that long.
	ring  []vidsim.Held
	at    []int
	marks []Mark

	// pending is true between a declaration and the pipeline's return to
	// monitoring; pre-roll collection is suspended in between.
	pending bool

	recs []Declaration
}

// NewRecorder builds a recorder attached to pipe's current state. The
// tracer (may be nil) supplies candidate outcomes for resolutions.
func NewRecorder(cfg Config, tracer *telemetry.Tracer, pipe *core.Pipeline) *Recorder {
	r := &Recorder{cfg: cfg.withDefaults(), tracer: tracer, frame: pipe.Metrics().Frames}
	r.resetPreRoll(pipe, r.frame)
	// A pipeline restored mid-selection has no pre-roll to collect until
	// it next returns to monitoring.
	r.pending = !pipe.Monitoring()
	return r
}

// Config returns the recorder's (defaulted) configuration.
func (r *Recorder) Config() Config {
	if r == nil {
		return Config{}
	}
	return r.cfg
}

// Record observes one processed frame: the frame itself, the pipeline
// after processing it, and the outcome. Call it inline after every
// Pipeline.Process, with the same serialization. Like Process it borrows
// f: a frame it keeps is copied once, and the pre-roll, the declarations
// cut from it and every state captured share that copy.
func (r *Recorder) Record(pipe *core.Pipeline, f vidsim.Frame, out core.Outcome) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	frame := r.frame
	r.frame++

	if r.pending {
		// Waiting out selection/training. The frame that returns the
		// pipeline to monitoring resolves the open declaration — via a
		// model switch, or degraded (training abandoned) without one.
		if out.SwitchedTo != "" {
			r.resolve(frame, out, false)
		}
		if pipe.Monitoring() {
			if out.SwitchedTo == "" {
				r.resolve(frame, out, true)
			}
			r.resetPreRoll(pipe, frame+1)
			r.pending = false
		}
		return
	}

	// The one trim rule: the oldest mark goes while the frames from the
	// next one, this frame included, still number Window.
	// slices.Delete, here and below, zeroes the slots it vacates: a frame
	// header left beyond len would pin its pixels.
	for len(r.marks) > 1 && frame+1-r.marks[1].Frame >= r.cfg.Window {
		n, _ := slices.BinarySearch(r.at, r.marks[1].Frame)
		r.ring = slices.Delete(r.ring, 0, n)
		r.at = slices.Delete(r.at, 0, n)
		r.marks = slices.Delete(r.marks, 0, 1)
	}
	// A frame the stride skipped moved nothing but the inspector's count,
	// which Replay advances from at; a quarantined one must be there for
	// the gate to reject again, or the count would advance over it.
	if out.Quarantined || out.Drift || pipe.Inspector().ReadLast() {
		r.ring = append(r.ring, f.Keep()) // f is borrowed; this copy is what every list shares
		r.at = append(r.at, frame)
	}
	if out.Drift {
		r.capture(pipe, frame)
		r.pending = true
		return
	}
	if frame+1-r.marks[len(r.marks)-1].Frame >= max(1, r.cfg.Window/8) {
		r.marks = append(r.marks, Mark{Frame: frame + 1, Snap: pipe.Snapshot()})
	}
}

// resetPreRoll restarts pre-roll collection from pipe's current state;
// nextFrame is the stream index of the next frame the ring will hold.
func (r *Recorder) resetPreRoll(pipe *core.Pipeline, nextFrame int) {
	r.ring = slices.Delete(r.ring, 0, len(r.ring))
	r.at = r.at[:0]
	r.marks = append(slices.Delete(r.marks, 0, len(r.marks)), Mark{Frame: nextFrame, Snap: pipe.Snapshot()})
}

// capture freezes the open pre-roll into a Declaration for the drift
// that fired on the given stream frame.
func (r *Recorder) capture(pipe *core.Pipeline, frame int) {
	di := pipe.Inspector()
	d := Declaration{
		ID:          telemetry.DriftID(frame),
		Frame:       frame,
		Model:       pipe.Current().Name,
		Lag:         di.Observed(),
		Sampled:     di.Sampled(),
		Martingale:  di.MartingaleValue(),
		WindowDelta: di.WindowDelta(),
		MeanP:       di.MeanP(),
		Attribution: di.Attribution(),
		BaseFrame:   r.marks[0].Frame,
		Base:        r.marks[0].Snap,
		Frames:      slices.Clone(r.ring),
		At:          slices.Clone(r.at),
	}
	r.recs = append(r.recs, d)
	if len(r.recs) > r.cfg.Keep {
		r.recs = slices.Delete(r.recs, 0, len(r.recs)-r.cfg.Keep)
	}
}

// resolve closes the most recent declaration with the selection outcome.
func (r *Recorder) resolve(frame int, out core.Outcome, abandoned bool) {
	if len(r.recs) == 0 {
		return
	}
	d := &r.recs[len(r.recs)-1]
	if d.Resolved {
		return
	}
	d.Resolved = true
	d.Resolution = Resolution{
		Frame:      frame,
		Model:      out.SwitchedTo,
		TrainedNew: out.TrainedNew,
		Abandoned:  abandoned,
	}
	// The selector's per-candidate outcomes live in the tracer's event
	// ring; the latest SelectionResolved belongs to this declaration.
	if e, ok := r.tracer.Last(telemetry.KindSelectionResolved); ok {
		d.Resolution.Candidates = e.Candidates
	}
}

// Declarations returns the retained declarations, oldest first. The
// slice is a copy; the nested snapshots and frames are shared and must
// be treated as immutable.
func (r *Recorder) Declarations() []Declaration {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Declaration(nil), r.recs...)
}

// Get returns the retained declaration with the given drift ID.
func (r *Recorder) Get(id string) (Declaration, bool) {
	if r == nil {
		return Declaration{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.recs {
		if r.recs[i].ID == id {
			return r.recs[i], true
		}
	}
	return Declaration{}, false
}

// RecorderState is the serializable copy of a Recorder, persisted per
// shard inside checkpoints. It is a value type (no pointers) so gob
// round-trips it unambiguously; Enabled distinguishes a real state from
// the zero value a forensics-less checkpoint carries. It holds runtime
// state only: the sizing comes from the Config the recorder resumes
// under.
//
//driftlint:snapshot encode=Recorder.State,Recorder.StateInto decode=Restore,Recorder.Rewind
type RecorderState struct {
	Enabled      bool
	Frame        int
	Ring         []vidsim.Held
	At           []int // stream frame of each Ring frame
	Marks        []Mark
	Pending      bool
	Declarations []Declaration
}

// State captures the recorder for checkpointing. A nil recorder returns
// the zero (disabled) state.
func (r *Recorder) State() RecorderState {
	if r == nil {
		return RecorderState{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return RecorderState{
		Enabled:      true,
		Frame:        r.frame,
		Ring:         slices.Clone(r.ring),
		At:           slices.Clone(r.at),
		Marks:        slices.Clone(r.marks),
		Pending:      r.pending,
		Declarations: slices.Clone(r.recs),
	}
}

// StateInto is State into the storage s already holds: the supervisor's
// rewind point, taken at every batch start and read by nothing but Rewind
// (which copies), allocates nothing once warm. s must only ever have
// been filled by StateInto. A nil recorder leaves the zero state.
func (r *Recorder) StateInto(s *RecorderState) {
	if r == nil {
		*s = RecorderState{}
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	*s = RecorderState{
		Enabled:      true,
		Frame:        r.frame,
		Ring:         refill(s.Ring, r.ring),
		At:           refill(s.At, r.at),
		Marks:        refill(s.Marks, r.marks),
		Pending:      r.pending,
		Declarations: refill(s.Declarations, r.recs),
	}
}

// refill copies src into dst's storage, zeroing what dst held past the
// copy: a header left there would pin what the recorder has let go.
func refill[T any](dst, src []T) []T {
	held := len(dst)
	dst = append(dst[:0], src...)
	if held > len(dst) {
		clear(dst[len(dst):held])
	}
	return dst
}

// Restore rebuilds a recorder from a state captured by State, sized by
// cfg (zero fields take their defaults; Enabled is implied). With the
// sizing the snapshotted recorder ran under, every subsequent Record call
// leaves the recorder exactly where that recorder would have been —
// declarations, pre-roll and replay bases included.
func Restore(s RecorderState, cfg Config, tracer *telemetry.Tracer) (*Recorder, error) {
	if !s.Enabled {
		return nil, fmt.Errorf("forensics: restoring a disabled recorder state")
	}
	// Record cuts the ring at a mark: there is one at least, the marks run
	// forward to the head, and the kept frames lie from the first of them
	// to the head, At saying where each one is.
	if len(s.Marks) == 0 || len(s.At) != len(s.Ring) {
		return nil, fmt.Errorf("forensics: recorder state has %d marks and %d frames at %d positions", len(s.Marks), len(s.Ring), len(s.At))
	}
	first, last := s.Marks[0].Frame, s.Marks[len(s.Marks)-1].Frame
	bad := !slices.IsSortedFunc(s.Marks, func(a, b Mark) int { return a.Frame - b.Frame }) || first < 0 || last > s.Frame
	for i, a := range s.At {
		bad = bad || a < first || a >= s.Frame || i > 0 && a <= s.At[i-1]
	}
	if bad {
		return nil, fmt.Errorf("forensics: recorder state has inconsistent frames (frame=%d base=%d ring=%d)", s.Frame, first, len(s.Ring))
	}
	cfg.Enabled = true
	r := &Recorder{cfg: cfg.withDefaults(), tracer: tracer}
	r.Rewind(s)
	return r, nil
}

// Rewind restores the recorder's live state to a snapshot previously
// captured by State, discarding everything recorded since. The sharded
// supervisor pairs it with the pipeline snapshot it keeps per batch:
// when a mid-batch panic restores the pipeline to the batch start and
// re-runs the batch, the recorder must rewind with it or the re-run
// would duplicate pre-roll frames and declarations. The state may be
// rewound to more than once (repeated crashes of one batch); Rewind
// never aliases its argument's slices. Nil-safe no-op, matching the
// nil-safe State.
func (r *Recorder) Rewind(s RecorderState) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.frame = s.Frame
	r.ring = slices.Clone(s.Ring)
	r.at = slices.Clone(s.At)
	r.marks = slices.Clone(s.Marks)
	r.pending = s.Pending
	r.recs = slices.Clone(s.Declarations)
}
