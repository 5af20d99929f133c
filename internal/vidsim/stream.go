package vidsim

import (
	"iter"

	"videodrift/internal/stats"
)

// Segment is one scripted portion of a stream: Length frames drawn under
// Cond. When TransitionLen > 0 the previous segment's condition is
// linearly interpolated into Cond over the first TransitionLen frames (a
// gradual drift, like the day→night "slow drift" setting of paper §6.1.3);
// otherwise the switch is abrupt (camera-angle or weather cut).
type Segment struct {
	Cond          Condition
	Length        int
	TransitionLen int
}

// Stream produces a scripted frame sequence with known drift points — the
// unbounded sequence S = {f1, f2, ...} of the paper's problem statement,
// materialized lazily. It is not safe for concurrent use.
type Stream struct {
	segments []Segment
	w, h     int
	seed     int64

	rng    *stats.RNG
	gen    *SceneGenerator
	seg    int
	pos    int // frames produced within the current segment
	global int // frames produced overall
}

// NewStream builds a stream over the given segments. Frames are w×h.
// Generation is fully deterministic given the seed.
func NewStream(w, h int, seed int64, segments ...Segment) *Stream {
	if len(segments) == 0 {
		panic("vidsim: NewStream with no segments")
	}
	for _, s := range segments {
		if s.Length <= 0 {
			panic("vidsim: NewStream segment with non-positive length")
		}
	}
	s := &Stream{segments: segments, w: w, h: h, seed: seed}
	s.Reset()
	return s
}

// Reset rewinds the stream to its first frame; the regenerated sequence is
// identical to the original.
func (s *Stream) Reset() {
	s.rng = stats.NewRNG(s.seed)
	s.gen = NewSceneGenerator(s.segments[0].Cond, s.w, s.h, s.rng.Split())
	s.seg = 0
	s.pos = 0
	s.global = 0
}

// TotalLength returns the total number of frames the stream will produce.
func (s *Stream) TotalLength() int {
	n := 0
	for _, seg := range s.segments {
		n += seg.Length
	}
	return n
}

// DriftPoints returns the global frame index at which each segment after
// the first begins — the ground-truth drift frames θ.
func (s *Stream) DriftPoints() []int {
	pts := make([]int, 0, len(s.segments)-1)
	acc := 0
	for i, seg := range s.segments {
		if i > 0 {
			pts = append(pts, acc)
		}
		acc += seg.Length
	}
	return pts
}

// Next returns the next frame and true, or a zero Frame and false when the
// script is exhausted. Frame indices are global stream positions.
func (s *Stream) Next() (Frame, bool) {
	for s.seg < len(s.segments) && s.pos >= s.segments[s.seg].Length {
		s.seg++
		s.pos = 0
		if s.seg >= len(s.segments) {
			break
		}
		next := s.segments[s.seg]
		if next.TransitionLen > 0 {
			// Gradual: keep the generator (objects persist), interpolate in
			// Next below.
		} else {
			// Abrupt: a hard cut to a new scene.
			s.gen = NewSceneGenerator(next.Cond, s.w, s.h, s.rng.Split())
		}
	}
	if s.seg >= len(s.segments) {
		return Frame{}, false
	}
	seg := s.segments[s.seg]
	if seg.TransitionLen > 0 && s.pos < seg.TransitionLen && s.seg > 0 {
		t := float64(s.pos+1) / float64(seg.TransitionLen)
		s.gen.SetCondition(Lerp(s.segments[s.seg-1].Cond, seg.Cond, t))
	} else {
		s.gen.SetCondition(seg.Cond)
	}
	f := s.gen.Next()
	f.Index = s.global
	s.pos++
	s.global++
	return f, true
}

// Collect materializes up to n frames from the stream's current position
// (all remaining frames when n < 0).
func (s *Stream) Collect(n int) []Frame {
	var out []Frame
	for n < 0 || len(out) < n {
		f, ok := s.Next()
		if !ok {
			break
		}
		out = append(out, f)
	}
	return out
}

// GenerateTraining renders n training frames under cond — the training
// data T_i associated with a provisioned model. A fresh generator with a
// burn-in period is used so the sample reflects the condition's steady
// state rather than any particular stream run, and frames are taken every
// few steps so the sample spans several traffic-burst cycles (the paper
// trains on 3 minutes of video, far longer than the burst correlation
// time; a short consecutive clip would miss the count tail and produce
// conformal false alarms on every live burst).
func GenerateTraining(cond Condition, w, h, n int, seed int64) []Frame {
	return GenerateTrainingStride(cond, w, h, n, TrainingStride, seed)
}

// TrainingStride is GenerateTraining's temporal stride between retained
// frames; trainingBurnIn is how many frames a training clip's generator
// renders before its first.
const (
	TrainingStride = 5
	trainingBurnIn = 20
)

// GenerateTrainingStride is GenerateTraining with an explicit temporal
// stride between retained frames (stride 1 = consecutive clip).
// TrainingStream yields the same frames without holding them.
func GenerateTrainingStride(cond Condition, w, h, n, stride int, seed int64) []Frame {
	if stride < 1 {
		stride = 1
	}
	g := NewSceneGenerator(cond, w, h, stats.NewRNG(seed))
	for i := 0; i < trainingBurnIn; i++ {
		g.Next()
	}
	out := make([]Frame, n)
	for i := range out {
		for s := 1; s < stride; s++ {
			g.Next()
		}
		out[i] = g.Next()
	}
	return out
}

// TrainingStream yields GenerateTrainingStride's frames, bit for bit, one
// at a time and rendered into one reused buffer: a yielded frame is
// borrowed, valid until the next one, and a consumer that keeps it must
// Clone it. The burn-in and the frames the stride skips are rendered into
// the same buffer with the same draws, so walking the stream allocates
// next to nothing whatever n and the stride are.
func TrainingStream(cond Condition, w, h, n, stride int, seed int64) iter.Seq[Frame] {
	stride = max(stride, 1)
	return func(yield func(Frame) bool) {
		g := NewSceneGenerator(cond, w, h, stats.NewRNG(seed))
		var f Frame
		for i := 0; i < trainingBurnIn; i++ {
			g.nextInto(&f)
		}
		for i := 0; i < n; i++ {
			for s := 1; s < stride; s++ {
				g.nextInto(&f)
			}
			g.nextInto(&f)
			if !yield(f) {
				return
			}
		}
	}
}
