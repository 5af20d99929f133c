package store

import (
	"testing"

	"videodrift/internal/core"
	"videodrift/internal/dataset"
	"videodrift/internal/modelset"
	"videodrift/internal/query"
)

// servedEntry provisions one boot model the way driftserve does on the
// benchmark's command line (-dataset bdd -scale 0.02, 300 training
// frames): lean under -selector msbi, full (L = 5 ensemble) under msbo.
func servedEntry(sel core.SelectorKind) *core.ModelEntry {
	if e := servedCache[sel]; e != nil {
		return e
	}
	cfg := modelset.DefaultConfig()
	set := modelset.Shell(dataset.BDD(0.02), cfg, query.Count)
	p := set.Provision.For(sel)
	p.Seed = cfg.Seed
	e := core.Provision(set.DS.Sequences[0].Name, set.DS.TrainingStream(0, cfg.TrainFrames), set.Labeler(), p)
	servedCache[sel] = e
	return e
}

// servedCache keeps servedEntry's fits across a benchmark's b.N rounds;
// nothing here runs in parallel.
var servedCache = map[core.SelectorKind]*core.ModelEntry{}

var servedEntries = []struct {
	name  string
	sel   core.SelectorKind
	limit int // bytes; a pixel-space Σ alone was ≈ 920 000
}{
	{"lean", core.SelectorMSBI, 32 << 10},
	{"full", core.SelectorMSBO, 96 << 10},
}

// TestEncodedEntrySize pins what one model costs in every checkpoint,
// delta and standby: Σ in feature space, A_i and the networks — tens of
// kilobytes. Anything that scales with W·H per reference sample blows
// the limit by an order of magnitude.
func TestEncodedEntrySize(t *testing.T) {
	for _, tc := range servedEntries {
		blob, err := encodeEntry(servedEntry(tc.sel))
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s entry: %d bytes", tc.name, len(blob))
		if len(blob) > tc.limit {
			t.Errorf("a %s BDD entry encodes to %d bytes, over the %d budget", tc.name, len(blob), tc.limit)
		}
	}
}

// BenchmarkEncodeEntry is what a training adds to the next replication
// delta and every model adds to a full checkpoint: time and bytes.
func BenchmarkEncodeEntry(b *testing.B) {
	for _, tc := range servedEntries {
		b.Run(tc.name, func(b *testing.B) {
			e := servedEntry(tc.sel)
			var blob []byte
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if blob, err = encodeEntry(e); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(blob)), "B/entry")
		})
	}
}
