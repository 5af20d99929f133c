// Package dataset builds the synthetic analogs of the paper's three
// evaluation datasets (Table 5) plus the slow-drift live-camera setting of
// §6.1.3. Each dataset is a scripted vidsim stream: an ordered list of
// condition sequences with known drift points, together with per-condition
// training data for provisioning models (the T_i of the paper).
//
// Scale 1.0 reproduces the paper's stream sizes (BDD 80k frames, Detrac
// 30k, Tokyo 45k); experiments and tests pass smaller scales.
package dataset

import (
	"fmt"
	"iter"
	"math"

	"videodrift/internal/stats"
	"videodrift/internal/vidsim"
)

// Dataset describes one evaluation dataset: an ordered list of condition
// sequences of equal length, rendered as a single stream with a drift at
// each sequence boundary. A warmup segment under the *last* condition
// precedes the first sequence so that every listed sequence — including
// the first — is entered through a genuine drift, matching how the paper
// counts drifts (BDD: 4, Detrac: 5, Tokyo: 3).
type Dataset struct {
	Name          string
	W, H          int
	Sequences     []vidsim.Condition
	SeqLength     int
	WarmupLen     int
	TransitionLen int // >0 → every drift is gradual over this many frames
	Seed          int64
}

// FrameDim returns the flattened pixel dimensionality of the dataset's
// frames.
func (d *Dataset) FrameDim() int { return d.W * d.H }

// StreamSize returns the number of frames in the evaluated stream
// (sequences only, excluding warmup) — the "Stream Size" column of Table 5.
func (d *Dataset) StreamSize() int { return len(d.Sequences) * d.SeqLength }

// NumDrifts returns the number of ground-truth drifts in the stream.
func (d *Dataset) NumDrifts() int { return len(d.Sequences) }

// SequenceNames returns the names of the sequences in stream order.
func (d *Dataset) SequenceNames() []string {
	names := make([]string, len(d.Sequences))
	for i, c := range d.Sequences {
		names[i] = c.Name
	}
	return names
}

// Stream builds the dataset's scripted stream: warmup under the last
// condition, then every sequence in order. The returned stream's
// DriftPoints()[k] is the ground-truth drift frame into Sequences[k].
func (d *Dataset) Stream() *vidsim.Stream {
	segs := make([]vidsim.Segment, 0, len(d.Sequences)+1)
	segs = append(segs, vidsim.Segment{Cond: d.Sequences[len(d.Sequences)-1], Length: d.WarmupLen})
	for _, c := range d.Sequences {
		segs = append(segs, vidsim.Segment{Cond: c, Length: d.SeqLength, TransitionLen: d.TransitionLen})
	}
	return vidsim.NewStream(d.W, d.H, d.Seed, segs...)
}

// TenantStream is camera tenant i's endless stream, the one cmd/driftfeed
// sends as tenant i: the scripted stream looped, lap k rendered under seed
// Seed + i·104729 + k·7907, so tenants drift at different times and every
// lap brings fresh drifts. Each call returns the next frame, its Index
// counting frames across laps.
func (d *Dataset) TenantStream(i int) func() vidsim.Frame {
	var s *vidsim.Stream
	lap, index := 0, 0
	return func() vidsim.Frame {
		for {
			if s != nil {
				if f, ok := s.Next(); ok {
					f.Index = index
					index++
					return f
				}
				lap++
			}
			ds := *d
			ds.Seed += int64(i)*104729 + int64(lap)*7907
			s = ds.Stream()
		}
	}
}

// TransitionStream builds a two-segment stream for evaluating one drift in
// isolation: preLen frames of the sequence before index seq, then the
// sequence seq itself. Its single drift point is at preLen.
func (d *Dataset) TransitionStream(seq, preLen, postLen int) *vidsim.Stream {
	if seq < 0 || seq >= len(d.Sequences) {
		panic(fmt.Sprintf("dataset: TransitionStream sequence %d out of range", seq))
	}
	prev := d.Sequences[(seq+len(d.Sequences)-1)%len(d.Sequences)]
	return vidsim.NewStream(d.W, d.H, d.Seed+int64(seq)*7919,
		vidsim.Segment{Cond: prev, Length: preLen},
		vidsim.Segment{Cond: d.Sequences[seq], Length: postLen, TransitionLen: d.TransitionLen},
	)
}

// TrainingFrames renders n independent training frames for sequence seq —
// the training data T_i provisioned alongside model M_i: TrainingStream's
// frames, each a copy of its own.
func (d *Dataset) TrainingFrames(seq, n int) []vidsim.Frame {
	out := make([]vidsim.Frame, 0, n)
	for f := range d.TrainingStream(seq, n) {
		out = append(out, f.Clone())
	}
	return out
}

// TrainingStream yields sequence seq's n training frames one at a time,
// each borrowed until the next (vidsim.TrainingStream): what provisioning
// walks once, without holding the clip. The generator seed differs from
// the stream seed, standing in for "captured on a previous day".
func (d *Dataset) TrainingStream(seq, n int) iter.Seq[vidsim.Frame] {
	if seq < 0 || seq >= len(d.Sequences) {
		panic(fmt.Sprintf("dataset: training sequence %d out of range", seq))
	}
	return vidsim.TrainingStream(d.Sequences[seq], d.W, d.H, n, vidsim.TrainingStride, d.Seed^0x5eed+int64(seq)*104729)
}

// Stats summarizes a dataset the way the paper's Table 5 does.
type Stats struct {
	Name        string
	Sequences   int
	StreamSize  int
	ObjPerFrame float64
	Std         float64
}

// Stats measures objects-per-frame statistics over a sample of up to
// sampleLen frames per sequence (the full sequence when sampleLen <= 0).
func (d *Dataset) Stats(sampleLen int) Stats {
	if sampleLen <= 0 || sampleLen > d.SeqLength {
		sampleLen = d.SeqLength
	}
	var w stats.Welford
	for i, c := range d.Sequences {
		g := vidsim.NewSceneGenerator(c, d.W, d.H, stats.NewRNG(d.Seed+int64(i)*31))
		for k := 0; k < sampleLen; k++ {
			w.Add(float64(len(g.Next().Truth)))
		}
	}
	return Stats{
		Name:        d.Name,
		Sequences:   len(d.Sequences),
		StreamSize:  d.StreamSize(),
		ObjPerFrame: w.Mean(),
		Std:         w.StdDev(),
	}
}

func scaled(n int, scale float64) int {
	s := int(math.Round(float64(n) * scale))
	if s < 10 {
		s = 10
	}
	return s
}

// BDD builds the Berkeley-Deep-Drive analog: 4 weather/daytime sequences
// (Night, Rain, Snow, Day — the drift order of §6) of 20k frames each at
// scale 1.0, ~9.2 objects per frame.
func BDD(scale float64) *Dataset {
	return &Dataset{
		Name: "BDD", W: 32, H: 32,
		Sequences: []vidsim.Condition{vidsim.Night(), vidsim.RainCond(), vidsim.SnowCond(), vidsim.Day()},
		SeqLength: scaled(20000, scale),
		WarmupLen: scaled(1000, scale),
		Seed:      1001,
	}
}

// Detrac builds the Detrac analog: 5 fixed-camera angle sequences of 6k
// frames each at scale 1.0, ~17.2 objects per frame.
func Detrac(scale float64) *Dataset {
	seqs := make([]vidsim.Condition, 5)
	for k := range seqs {
		seqs[k] = vidsim.Angle(k+1, 17, -1)
	}
	return &Dataset{
		Name: "Detrac", W: 32, H: 32,
		Sequences: seqs,
		SeqLength: scaled(6000, scale),
		WarmupLen: scaled(1000, scale),
		Seed:      2002,
	}
}

// Tokyo builds the Tokyo-intersection analog: 3 camera angles over the
// same road intersection, 15k frames each at scale 1.0, ~19.2 objects per
// frame. Angles 1 and 3 share part of their field of view (angle 3 is
// built similar to angle 1), the property that makes ODIN-Detect faster
// than DI on Angle 2 in the paper's Figure 3(c).
func Tokyo(scale float64) *Dataset {
	return &Dataset{
		Name: "Tokyo", W: 32, H: 32,
		Sequences: []vidsim.Condition{
			vidsim.Angle(1, 19, -1),
			vidsim.Angle(2, 19, -1),
			vidsim.Angle(3, 19, 1),
		},
		SeqLength: scaled(15000, scale),
		WarmupLen: scaled(1000, scale),
		Seed:      3003,
	}
}

// SlowDrift builds the §6.1.3 live-camera setting: a day sequence drifting
// gradually into night over a long transition (no abrupt cut). The
// ground-truth drift point ("sundown") is the start of the night sequence.
func SlowDrift(scale float64) *Dataset {
	return &Dataset{
		Name: "TokyoLive", W: 32, H: 32,
		Sequences:     []vidsim.Condition{vidsim.Day(), vidsim.Night()},
		SeqLength:     scaled(10000, scale),
		WarmupLen:     scaled(1000, scale),
		TransitionLen: scaled(2000, scale),
		Seed:          4004,
	}
}

// ByName builds the dataset a command line names — bdd, detrac, tokyo or
// slow — at the given scale.
func ByName(name string, scale float64) (*Dataset, error) {
	build, ok := map[string]func(float64) *Dataset{
		"bdd": BDD, "detrac": Detrac, "tokyo": Tokyo, "slow": SlowDrift,
	}[name]
	if !ok {
		return nil, fmt.Errorf("unknown dataset %q (want bdd, detrac, tokyo or slow)", name)
	}
	return build(scale), nil
}

// All returns the three Table-5 datasets at the given scale.
func All(scale float64) []*Dataset {
	return []*Dataset{BDD(scale), Detrac(scale), Tokyo(scale)}
}
