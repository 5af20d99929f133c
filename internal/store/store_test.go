package store

import (
	"bytes"
	"errors"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	"videodrift/internal/classifier"
	"videodrift/internal/core"
	"videodrift/internal/stats"
	"videodrift/internal/vae"
	"videodrift/internal/vidsim"
	"videodrift/internal/vision"
	"videodrift/internal/wire"
)

const (
	testW   = 16
	testH   = 16
	testDim = testW * testH
	classes = 6
)

func testLabeler(f vidsim.Frame) int {
	c := f.CountClass(vidsim.Car)
	if c >= classes {
		c = classes - 1
	}
	return c
}

func testCond(base vidsim.Condition) vidsim.Condition {
	base.CarRate, base.BusRate = 5.5, 0
	return base
}

func quickProvision(seed int64) core.ProvisionConfig {
	return core.ProvisionConfig{
		VAE:          vae.Config{InputDim: testDim, HiddenDim: 16, LatentDim: 4, Beta: 0.5, LR: 2e-3},
		VAEEpochs:    2,
		SampleCount:  60,
		K:            5,
		Classifier:   classifier.Config{InputDim: vision.QueryDim, HiddenDim: 16, NumClasses: classes, LR: 5e-3, Epochs: 10},
		EnsembleSize: 2,
		Seed:         seed,
	}
}

var (
	fixOnce     sync.Once
	fixDay      *core.ModelEntry
	fixNightVAE *core.ModelEntry
)

// fixtures: one supervised held-out-sample entry, one unsupervised
// VAE-sample entry, covering both provisioning paths the codec handles.
func getFixtures(t testing.TB) (*core.ModelEntry, *core.ModelEntry) {
	t.Helper()
	fixOnce.Do(func() {
		day := vidsim.GenerateTraining(testCond(vidsim.Day()), testW, testH, 120, 1)
		night := vidsim.GenerateTraining(testCond(vidsim.Night()), testW, testH, 120, 2)
		fixDay = core.Provision("day", slices.Values(day), testLabeler, quickProvision(21))
		cfg := quickProvision(22)
		cfg.Source = core.SourceVAE
		fixNightVAE = core.Provision("night", slices.Values(night), nil, cfg)
	})
	return fixDay, fixNightVAE
}

// testCheckpoint assembles a two-shard checkpoint over the fixtures with
// mid-stream pipeline state.
func testCheckpoint(t testing.TB) *Checkpoint {
	t.Helper()
	day, night := getFixtures(t)
	reg := core.NewRegistry(day)
	cfg := core.DefaultPipelineConfig(testDim, classes)
	cfg.Selector = core.SelectorMSBO
	cfg.Provision = quickProvision(31)
	pipe := core.NewPipeline(reg, testLabeler, cfg)
	for _, f := range vidsim.GenerateTraining(testCond(vidsim.Day()), testW, testH, 50, 3) {
		pipe.Process(f)
	}
	return &Checkpoint{
		CreatedUnixNano: 1700000000000000000,
		Frames:          50,
		Entries:         []*core.ModelEntry{day, night},
		Shards: []ShardState{
			{Registry: []int{0, 1}, Pipeline: pipe.Snapshot()},
			{Registry: []int{0}, Pipeline: pipe.Snapshot()},
		},
	}
}

// leanDay is the day fixture as an MSBI deployment provisions it: same
// frames and seed, no MSBO ensemble.
func leanDay(t testing.TB) *core.ModelEntry {
	t.Helper()
	day := vidsim.GenerateTraining(testCond(vidsim.Day()), testW, testH, 120, 1)
	return core.Provision("day", slices.Values(day), testLabeler, quickProvision(21).For(core.SelectorMSBI))
}

// leanCheckpoint is testCheckpoint with a third, supervised but
// ensemble-less entry that shard 1 also holds.
func leanCheckpoint(t testing.TB) *Checkpoint {
	t.Helper()
	cp := testCheckpoint(t)
	cp.Entries = append(cp.Entries, leanDay(t))
	cp.Shards[1].Registry = []int{0, 2}
	return cp
}

// TestLeanEntryEncoding: a supervised entry without an ensemble — what an
// MSBI deployment provisions — encodes to exactly the bytes of the full
// entry with its ensemble taken out, round-trips to the same bytes, and
// Inspect tells the two apart.
func TestLeanEntryEncoding(t *testing.T) {
	full, _ := getFixtures(t)
	stripped := &core.ModelEntry{
		Name: full.Name, W: full.W, H: full.H, SampleFeats: full.SampleFeats,
		CalibRaw: full.CalibRaw, Calib: full.Calib, Classifier: full.Classifier, CalibSample: full.CalibSample,
	}
	stripped.SetQueryFn(full.QueryFn())
	want, err := encodeEntry(stripped)
	if err != nil {
		t.Fatal(err)
	}
	lean := leanDay(t)
	got, err := encodeEntry(lean)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the lean entry encodes to %d bytes that differ from the full entry's %d without its ensemble", len(got), len(want))
	}
	if whole, _ := encodeEntry(full); len(whole) <= len(want) {
		t.Errorf("the full entry encodes to %d bytes, no more than the lean one's %d", len(whole), len(want))
	}

	cp := leanCheckpoint(t)
	data, err := Encode(cp)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode of a checkpoint with an ensemble-less supervised entry: %v", err)
	}
	if e := back.Entries[2]; e.Classifier == nil || e.Ensemble != nil || e.QueryFn() == nil || len(e.CalibSample) != len(lean.CalibSample) {
		t.Errorf("decoded lean entry: classifier %v, ensemble %v, %d calibration samples", e.Classifier != nil, e.Ensemble != nil, len(e.CalibSample))
	}
	if again, err := Encode(back); err != nil || !bytes.Equal(again, data) {
		t.Errorf("re-encoding the decoded checkpoint: %v, %d bytes against %d", err, len(again), len(data))
	}

	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Save(cp)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Inspect(p)
	if err != nil {
		t.Fatal(err)
	}
	if m := d.Models; m[0].Ensemble != 2 || !m[2].Supervised || m[2].Ensemble != 0 || m[1].Ensemble != 0 {
		t.Errorf("ensemble members: %d, %d, %d; want 2, 0 (unsupervised), 0 (lean)", m[0].Ensemble, m[1].Ensemble, m[2].Ensemble)
	}
	var buf strings.Builder
	d.WriteText(&buf)
	lines := strings.Split(buf.String(), "\n")
	for i, want := range []string{"supervised/query ensemble=2 ", "unsupervised +vae ", "supervised/query ensemble=none "} {
		if line := lines[4+i]; !strings.Contains(line, want) {
			t.Errorf("model line %d = %q, want it to hold %q", i, line, want)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	cp := testCheckpoint(t)
	cp.Shards[0].Tenant, cp.Shards[0].Next = "cam-7", 12 // shard 1 stays unnamed
	data, err := Encode(cp)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.CreatedUnixNano != cp.CreatedUnixNano || got.Frames != cp.Frames {
		t.Errorf("meta: got (%d,%d) want (%d,%d)", got.CreatedUnixNano, got.Frames, cp.CreatedUnixNano, cp.Frames)
	}
	if len(got.Entries) != 2 || len(got.Shards) != 2 {
		t.Fatalf("shape: %d entries, %d shards", len(got.Entries), len(got.Shards))
	}
	for k, sh := range got.Shards {
		if sh.Tenant != cp.Shards[k].Tenant || sh.Next != cp.Shards[k].Next {
			t.Errorf("shard %d serves %q at %d, want %q at %d", k, sh.Tenant, sh.Next, cp.Shards[k].Tenant, cp.Shards[k].Next)
		}
	}

	for i, e := range got.Entries {
		orig := cp.Entries[i]
		if e.Name != orig.Name || e.W != orig.W || e.H != orig.H {
			t.Errorf("entry %d identity mismatch", i)
		}
		if len(e.SampleFeats) != len(orig.SampleFeats) {
			t.Fatalf("entry %d: %d feats, want %d", i, len(e.SampleFeats), len(orig.SampleFeats))
		}
		for j := range e.SampleFeats {
			for k := range e.SampleFeats[j] {
				if e.SampleFeats[j][k] != orig.SampleFeats[j][k] {
					t.Fatalf("entry %d feat[%d][%d] differs", i, j, k)
				}
			}
		}
		for j := range e.CalibRaw {
			if e.CalibRaw[j] != orig.CalibRaw[j] {
				t.Fatalf("entry %d calib[%d] differs", i, j)
			}
		}
	}

	// Supervised entry: restored classifier and ensemble must predict
	// bit-identically.
	day := cp.Entries[0]
	restored := got.Entries[0]
	if restored.Classifier == nil || restored.Ensemble == nil || restored.QueryFn() == nil {
		t.Fatal("supervised entry lost its classifier state")
	}
	for _, f := range vidsim.GenerateTraining(testCond(vidsim.Day()), testW, testH, 20, 9) {
		if a, b := day.Predict(f), restored.Predict(f); a != b {
			t.Fatalf("restored classifier predicts %d, original %d", b, a)
		}
	}
	if a, b := day.Ensemble.AvgBrier(day.CalibSample), restored.Ensemble.AvgBrier(restored.CalibSample); a != b {
		t.Fatalf("restored ensemble Brier %v, original %v", b, a)
	}

	// VAE entry: weights restored, future samples identical.
	night := cp.Entries[1]
	nr := got.Entries[1]
	if nr.VAE == nil {
		t.Fatal("VAE entry lost its VAE")
	}
	a, b := night.VAE.Sample(2), nr.VAE.Sample(2)
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("restored VAE sample[%d][%d] differs", i, j)
			}
		}
	}

	// Pipeline snapshots survive verbatim. (DISnapshot holds a slice
	// inside CUSUMState, so compare field by field.)
	gs, ws := got.Shards[0].Pipeline, cp.Shards[0].Pipeline
	if gs.Current != ws.Current || gs.State != ws.State || gs.Metrics != ws.Metrics ||
		gs.RNG != ws.RNG || gs.DI.RNG != ws.DI.RNG || gs.DI.Seen != ws.DI.Seen ||
		gs.DI.PSum != ws.DI.PSum || gs.DI.Mart.Value != ws.DI.Mart.Value {
		t.Errorf("pipeline snapshot mismatch:\n got %+v\nwant %+v", gs, ws)
	}
}

func TestSaveLoadRotation(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.LoadLatest(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty store LoadLatest error = %v, want ErrNoCheckpoint", err)
	}
	cp := testCheckpoint(t)
	var paths []string
	for i := 0; i < 3; i++ {
		cp.Frames = int64(100 * (i + 1))
		p, err := s.Save(cp)
		if err != nil {
			t.Fatalf("Save %d: %v", i, err)
		}
		paths = append(paths, p)
	}
	kept, err := s.Paths()
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != retainCheckpoints {
		t.Fatalf("store retains %d checkpoints, want %d", len(kept), retainCheckpoints)
	}
	if kept[0] != paths[2] {
		t.Errorf("newest = %s, want %s", kept[0], paths[2])
	}
	got, p, err := s.LoadLatest()
	if err != nil {
		t.Fatalf("LoadLatest: %v", err)
	}
	if p != paths[2] || got.Frames != 300 {
		t.Errorf("loaded %s frames=%d, want %s frames=300", p, got.Frames, paths[2])
	}
	// No temp droppings left behind.
	ents, _ := os.ReadDir(dir)
	for _, de := range ents {
		if _, ok := seqOf(de.Name()); !ok {
			t.Errorf("unexpected file %s in store dir", de.Name())
		}
	}
}

// TestCorruptionFallback damages the newest checkpoint in several ways;
// each must produce a typed error and LoadLatest must fall back to the
// previous good generation. A checkpoint of another format version —
// one this build's successor wrote, or its predecessor — is refused by
// name, and a directory that holds nothing else does not load.
func TestCorruptionFallback(t *testing.T) {
	cp := testCheckpoint(t)
	corruptions := []struct {
		name    string
		mutate  func([]byte) []byte
		wantErr error
		version uint8 // the *VersionError's Got when wantErr is nil
	}{
		{"truncated-header", func(b []byte) []byte { return b[:10] }, ErrTruncated, 0},
		{"truncated-payload", func(b []byte) []byte { return b[:len(b)/2] }, ErrTruncated, 0},
		{"flipped-payload-byte", func(b []byte) []byte { b[wire.HeaderSize+len(b)/3] ^= 0x40; return b }, ErrChecksum, 0},
		{"bad-magic", func(b []byte) []byte { b[0] = 'X'; return b }, ErrBadMagic, 0},
		{"future-version", func(b []byte) []byte { b[4] = 0xff; return b }, nil, 0xff},
		{"previous-version", previousEpoch, nil, 4},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			cp.Frames = 111
			good, err := s.Save(cp)
			if err != nil {
				t.Fatal(err)
			}
			cp.Frames = 222
			bad, err := s.Save(cp)
			if err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(bad)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(bad, tc.mutate(data), 0o644); err != nil {
				t.Fatal(err)
			}

			if _, err := LoadPath(bad); err == nil {
				t.Fatal("corrupted checkpoint decoded cleanly")
			} else if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
				t.Fatalf("error = %v, want %v", err, tc.wantErr)
			} else if tc.wantErr == nil {
				var ve *VersionError
				if !errors.As(err, &ve) || *ve != (VersionError{Got: tc.version, Want: Version}) {
					t.Fatalf("error = %v, want *VersionError{Got: %d, Want: %d}", err, tc.version, Version)
				}
			}

			got, p, err := s.LoadLatest()
			if err != nil {
				t.Fatalf("LoadLatest after corruption: %v", err)
			}
			if got.Frames != 111 {
				t.Errorf("fell back to frames=%d via %s, want the 111 generation", got.Frames, p)
			}
			if tc.wantErr != nil {
				return
			}
			if err := os.Remove(good); err != nil {
				t.Fatal(err)
			}
			var ve *VersionError
			if _, _, err := s.LoadLatest(); !errors.As(err, &ve) {
				t.Errorf("LoadLatest over nothing but the other version's generation: %v, want a *VersionError", err)
			}
		})
	}
}

// TestAllGenerationsDamaged verifies the terminal case: every file bad
// returns a joined error, not a panic or a zero checkpoint.
func TestAllGenerationsDamaged(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cp := testCheckpoint(t)
	for i := 0; i < 2; i++ {
		p, err := s.Save(cp)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := s.LoadLatest(); err == nil {
		t.Fatal("LoadLatest succeeded over all-damaged store")
	} else if errors.Is(err, ErrNoCheckpoint) {
		t.Fatal("all-damaged store reported ErrNoCheckpoint; want the decode failures")
	}
}

func TestInspect(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cp := testCheckpoint(t)
	p, err := s.Save(cp)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Inspect(p)
	if err != nil {
		t.Fatalf("Inspect: %v", err)
	}
	if d.Version != Version || len(d.Models) != 2 || len(d.Shards) != 2 {
		t.Fatalf("description = %+v", d)
	}
	day := d.Models[0]
	if day.Name != "day" || !day.Supervised || day.QueryFn != vision.FeatureFuncQuery ||
		day.FeatDim != vision.AppearanceDim || day.CRC32 == 0 {
		t.Errorf("day model info = %+v", day)
	}
	night := d.Models[1]
	if night.Name != "night" || night.Supervised || !night.HasVAE {
		t.Errorf("night model info = %+v", night)
	}
	sh := d.Shards[0]
	if sh.Frames != 50 || sh.State != "monitoring" || sh.Deployed != "day" || sh.Models != 2 {
		t.Errorf("shard info = %+v", sh)
	}
	// The text rendering must mention the essentials.
	var buf strings.Builder
	d.WriteText(&buf)
	for _, want := range []string{"day", "night", "crc32", "monitoring"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("WriteText output missing %q:\n%s", want, buf.String())
		}
	}

	// Frame lists come back from the file's runs: the selection buffer,
	// the pre-roll against its span, and the retained declaration.
	framed, _ := framedGenerations(t)
	if p, err = s.Save(framed); err != nil {
		t.Fatal(err)
	}
	if d, err = Inspect(p); err != nil {
		t.Fatalf("Inspect of a framed checkpoint: %v", err)
	}
	rec := framed.Shards[0].Forensics
	decl := rec.Declarations[0]
	if sh := d.Shards[0]; sh.PreRollKept != len(rec.Ring) || sh.PreRollSpan != rec.Frame-rec.Marks[0].Frame ||
		sh.Declarations != 1 || sh.LastDrift != decl.ID || sh.LastDriftFrame != decl.Frame {
		t.Errorf("framed shard 0 info = %+v, want pre-roll %d/%d and drift %s @ %d",
			sh, len(rec.Ring), rec.Frame-rec.Marks[0].Frame, decl.ID, decl.Frame)
	}
	if sh := d.Shards[1]; sh.Buffered != len(framed.Shards[1].Pipeline.Buffer) || sh.Buffered == 0 || sh.Declarations != 0 {
		t.Errorf("framed shard 1 info = %+v, want %d buffered frames", sh, len(framed.Shards[1].Pipeline.Buffer))
	}
}

// TestRNGStreamResume is the primitive the whole restore guarantee rests
// on: an RNG resumed from State() must emit exactly the values the
// original emits next, across every sampler the pipeline uses.
func TestRNGStreamResume(t *testing.T) {
	g := stats.NewRNG(42)
	for i := 0; i < 1000; i++ {
		g.Float64()
		if i%3 == 0 {
			g.Normal(0, 1)
		}
		if i%7 == 0 {
			g.Perm(5)
		}
	}
	st := g.State()
	h := stats.ResumeRNG(st)
	for i := 0; i < 1000; i++ {
		if a, b := g.Float64(), h.Float64(); a != b {
			t.Fatalf("draw %d: %v vs %v", i, a, b)
		}
		if i%5 == 0 {
			if a, b := g.Int63(), h.Int63(); a != b {
				t.Fatalf("int draw %d: %v vs %v", i, a, b)
			}
		}
	}
	// Split children line up too.
	a, b := g.Split(), h.Split()
	if x, y := a.Float64(), b.Float64(); x != y {
		t.Fatalf("split children diverge: %v vs %v", x, y)
	}
}
