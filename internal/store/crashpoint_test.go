package store

import (
	"errors"
	"testing"

	"videodrift/internal/conformal"
	"videodrift/internal/core"
	"videodrift/internal/tensor"
)

// tinyCheckpoint builds the smallest valid checkpoint the codec accepts,
// so the crash-point sweep below (one Save per byte offset) stays cheap.
// frames tags the generation, making it checkable after a recovery.
func tinyCheckpoint(t testing.TB, frames int64) *Checkpoint {
	t.Helper()
	calib := []float64{0.5, 0.25, 0.75}
	entry := &core.ModelEntry{
		Name:        "tiny",
		W:           2,
		H:           2,
		SampleFeats: []tensor.Vector{{0.1, 0.2, 0.3, 0.4}},
		CalibRaw:    calib,
		Calib:       conformal.NewSortedCalib(calib),
	}
	cfg := core.DefaultPipelineConfig(4, 2)
	cfg.Selector = core.SelectorMSBI
	pipe := core.NewPipeline(core.NewRegistry(entry), nil, cfg)
	return &Checkpoint{
		CreatedUnixNano: 1700000000000000000,
		Frames:          frames,
		Entries:         []*core.ModelEntry{entry},
		Shards:          []ShardState{{Registry: []int{0}, Pipeline: pipe.Snapshot()}},
	}
}

var errInjectedCrash = errors.New("injected crash")

// crashFS fails the next checkpoint write through one of three crash
// points: a torn payload write after `bytes` bytes, a failed fsync, or a
// failed rename. One-shot: the save after the failed one runs clean.
type crashFS struct {
	FS
	mode  string // "write", "sync", "rename"
	bytes int    // for "write": bytes accepted before the failure
	armed bool
}

func (c *crashFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := c.FS.CreateTemp(dir, pattern)
	if err != nil || !c.armed || c.mode == "rename" {
		return f, err
	}
	c.armed = false
	return &crashFile{File: f, mode: c.mode, remaining: c.bytes}, nil
}

func (c *crashFS) Rename(oldPath, newPath string) error {
	if c.armed && c.mode == "rename" {
		c.armed = false
		return errInjectedCrash
	}
	return c.FS.Rename(oldPath, newPath)
}

type crashFile struct {
	File
	mode      string
	remaining int
}

func (f *crashFile) Write(p []byte) (int, error) {
	if f.mode != "write" {
		return f.File.Write(p)
	}
	if len(p) <= f.remaining {
		f.remaining -= len(p)
		return f.File.Write(p)
	}
	n := f.remaining
	if n > 0 {
		if _, err := f.File.Write(p[:n]); err != nil {
			return 0, err
		}
		f.remaining = 0
	}
	return n, errInjectedCrash
}

func (f *crashFile) Sync() error {
	if f.mode == "sync" {
		return errInjectedCrash
	}
	return f.File.Sync()
}

// TestCrashPointRecovery kills a checkpoint write at every byte offset
// (plus the fsync and rename crash points) and asserts the invariant the
// atomic-write protocol promises: the failed Save surfaces an error, the
// previous generation stays the newest loadable checkpoint, and the next
// Save recovers cleanly.
func TestCrashPointRecovery(t *testing.T) {
	good := tinyCheckpoint(t, 100)
	next := tinyCheckpoint(t, 200)
	encoded, err := Encode(next)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("sweeping %d byte offsets", len(encoded))

	crash := func(t *testing.T, mode string, offset int) {
		t.Helper()
		cfs := &crashFS{FS: NewMemFS(), mode: mode, bytes: offset}
		st, err := OpenFS("/ckpt", cfs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Save(good); err != nil {
			t.Fatalf("seed save: %v", err)
		}
		cfs.armed = true
		if _, err := st.Save(next); !errors.Is(err, errInjectedCrash) {
			t.Fatalf("crashed save returned %v, want injected crash", err)
		}
		cp, _, err := st.LoadLatest()
		if err != nil {
			t.Fatalf("LoadLatest after crash: %v", err)
		}
		if cp.Frames != good.Frames {
			t.Fatalf("recovered generation has Frames=%d, want the previous generation (%d)", cp.Frames, good.Frames)
		}
		// The store is not wedged: the retried save must land and win.
		if _, err := st.Save(next); err != nil {
			t.Fatalf("retry save: %v", err)
		}
		cp, _, err = st.LoadLatest()
		if err != nil {
			t.Fatal(err)
		}
		if cp.Frames != next.Frames {
			t.Fatalf("after retry Frames=%d, want %d", cp.Frames, next.Frames)
		}
	}

	for offset := 0; offset < len(encoded); offset++ {
		crash(t, "write", offset)
	}
	crash(t, "sync", 0)
	crash(t, "rename", 0)
}

// TestCrashBeforeFirstSave covers the cold-start corner: a crash during
// the very first Save must leave ErrNoCheckpoint (a clean cold start),
// not a corrupt file.
func TestCrashBeforeFirstSave(t *testing.T) {
	cp := tinyCheckpoint(t, 1)
	for _, offset := range []int{0, 1, 10} {
		cfs := &crashFS{FS: NewMemFS(), mode: "write", bytes: offset, armed: true}
		st, err := OpenFS("/ckpt", cfs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Save(cp); !errors.Is(err, errInjectedCrash) {
			t.Fatalf("crashed save returned %v", err)
		}
		if _, _, err := st.LoadLatest(); !errors.Is(err, ErrNoCheckpoint) {
			t.Fatalf("LoadLatest = %v, want ErrNoCheckpoint", err)
		}
	}
}
