package core

import (
	"bytes"
	"encoding"
	"iter"
	"math"
	"reflect"
	"slices"
	"testing"

	"videodrift/internal/tensor"
	"videodrift/internal/vidsim"
)

// lentFrames yields frames the way a training stream does, every one in
// one reused pixel buffer, and NaN-fills that buffer after each yield: a
// consumer that reads a frame after letting it go reads NaN.
func lentFrames(frames []vidsim.Frame) iter.Seq[vidsim.Frame] {
	return func(yield func(vidsim.Frame) bool) {
		buf := make(tensor.Vector, len(frames[0].Pixels))
		for _, f := range frames {
			copy(buf, f.Pixels)
			f.Pixels = buf
			ok := yield(f)
			for i := range buf {
				buf[i] = math.NaN()
			}
			if !ok {
				return
			}
		}
	}
}

// TestProvisionBorrowsFrames pins Provision's one pass: each frame is
// featurized and labelled while it is lent, and nothing but what Provision
// copies outlives the yield, so an entry provisioned from frames that are
// poisoned as soon as they are let go equals the one provisioned from the
// slice — networks, Σ, A_i and the calibration sample, bit for bit.
func TestProvisionBorrowsFrames(t *testing.T) {
	frames := vidsim.GenerateTraining(dayC(), testW, testH, 120, 11)
	vaeCfg := quickProvision(7)
	vaeCfg.Source = SourceVAE
	for _, tc := range []struct {
		name    string
		labeler Labeler
		cfg     ProvisionConfig
	}{
		{"lean", testLabeler, quickProvision(21).For(SelectorMSBI)},
		{"full", testLabeler, quickProvision(21).For(SelectorMSBO)},
		{"vae-unsupervised", nil, vaeCfg},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := Provision("day", slices.Values(frames), tc.labeler, tc.cfg)
			got := Provision("day", lentFrames(frames), tc.labeler, tc.cfg)
			for _, f := range []struct {
				field     string
				got, want any
			}{
				{"W×H", [2]int{got.W, got.H}, [2]int{want.W, want.H}},
				{"SampleFeats", got.SampleFeats, want.SampleFeats},
				{"CalibRaw", got.CalibRaw, want.CalibRaw},
				{"CalibSample", got.CalibSample, want.CalibSample},
			} {
				if !reflect.DeepEqual(f.got, f.want) {
					t.Errorf("%s differs from the slice-fed entry's", f.field)
				}
			}
			for _, m := range []struct {
				name      string
				got, want encoding.BinaryMarshaler
			}{
				{"classifier", got.Classifier, want.Classifier},
				{"ensemble", got.Ensemble, want.Ensemble},
				{"VAE", got.VAE, want.VAE},
			} {
				if !bytes.Equal(marshal(t, m.got), marshal(t, m.want)) {
					t.Errorf("%s bytes differ from the slice-fed entry's", m.name)
				}
			}
		})
	}
}

// marshal returns m's encoding, or nil for a nil network.
func marshal(t *testing.T, m encoding.BinaryMarshaler) []byte {
	t.Helper()
	if reflect.ValueOf(m).IsNil() {
		return nil
	}
	b, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}
