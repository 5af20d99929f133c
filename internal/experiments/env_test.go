package experiments

import (
	"bytes"
	"encoding"
	"fmt"
	"reflect"
	"testing"

	"videodrift/internal/core"
	"videodrift/internal/dataset"
	"videodrift/internal/parallel"
	"videodrift/internal/query"
)

// requireSameRegistry fails unless got holds want's entries in want's
// order: the same names, reference samples, features and calibration
// scores, and byte-equal classifier and ensemble weights. (ModelEntry
// carries a func and a sync.Once, so DeepEqual on the whole does not
// apply.)
func requireSameRegistry(t *testing.T, label string, got, want *core.Registry) {
	t.Helper()
	g, w := got.Entries(), want.Entries()
	if len(g) != len(w) {
		t.Fatalf("%s: %d entries, want %d", label, len(g), len(w))
	}
	for i := range w {
		if g[i].Name != w[i].Name {
			t.Fatalf("%s: entry %d is %q, want %q (dataset order)", label, i, g[i].Name, w[i].Name)
		}
		for _, f := range []struct {
			field     string
			got, want any
		}{
			{"SampleFeats", g[i].SampleFeats, w[i].SampleFeats},
			{"CalibRaw", g[i].CalibRaw, w[i].CalibRaw},
			{"CalibSample", g[i].CalibSample, w[i].CalibSample},
		} {
			if !reflect.DeepEqual(f.got, f.want) {
				t.Errorf("%s: %s.%s differs", label, w[i].Name, f.field)
			}
		}
		if !bytes.Equal(mustMarshal(t, g[i].Classifier), mustMarshal(t, w[i].Classifier)) {
			t.Errorf("%s: %s classifier weights differ", label, w[i].Name)
		}
		if !bytes.Equal(mustMarshal(t, g[i].Ensemble), mustMarshal(t, w[i].Ensemble)) {
			t.Errorf("%s: %s ensemble weights differ", label, w[i].Name)
		}
	}
}

func mustMarshal(t *testing.T, m encoding.BinaryMarshaler) []byte {
	t.Helper()
	b, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBuildEnvPoolDeterminism: set-up provisions the sequences
// concurrently, and must hand back what the serial loop it replaced did,
// whatever the pool's size. The concurrent Provision calls share one
// labeler (and each nests an ensemble fan-out of its own), so CI
// runs this under -race and under GOMAXPROCS 1, 2 and 4.
func TestBuildEnvPoolDeterminism(t *testing.T) {
	cfg := QuickConfig()
	cfg.TrainFrames = 40 // the fan-out is under test, not the models
	ds := dataset.BDD(cfg.Scale)

	serial := BuildEnvShell(ds, cfg, query.Count)
	entries := make([]*core.ModelEntry, len(ds.Sequences))
	for i := range ds.Sequences {
		p := serial.Provision
		p.Seed = cfg.Seed + int64(i)*31
		entries[i] = core.Provision(ds.Sequences[i].Name, ds.TrainingFrames(i, cfg.TrainFrames), serial.Labeler(), p)
	}
	serial.Registry = core.NewRegistry(entries...)

	for _, workers := range []int{1, 2, 4} {
		env := buildEnv(ds, cfg, query.Count, core.SelectorMSBO, parallel.New(workers))
		requireSameRegistry(t, fmt.Sprintf("pool of %d", workers), env.Registry, serial.Registry)
	}
	requireSameRegistry(t, "BuildEnv", BuildEnv(ds, cfg, query.Count).Registry, serial.Registry)
}
