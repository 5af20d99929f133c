package store

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerifyDir(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	base := tinyCheckpoint(t, 100)
	base.Gen, base.Epoch = 1, 2
	if _, err := st.Save(base); err != nil {
		t.Fatal(err)
	}
	next := tinyCheckpoint(t, 200)
	next.Gen, next.Epoch = 2, 2
	newest, err := st.Save(next)
	if err != nil {
		t.Fatal(err)
	}
	// A foreign file is ignored, not reported.
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("unrelated"), 0o644); err != nil {
		t.Fatal(err)
	}

	results, err := VerifyDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("verified %d files, want 2", len(results))
	}
	for i, r := range results {
		if r.Gen != uint64(i+1) || r.Epoch != 2 || r.Entries != len(base.Entries) || r.Err != nil {
			t.Fatalf("result %d: %+v", i, r)
		}
	}
	var buf strings.Builder
	if damaged := WriteVerifyText(&buf, dir, results); damaged != 0 {
		t.Fatalf("damaged=%d on a clean dir:\n%s", damaged, buf.String())
	}
	if !strings.Contains(buf.String(), "all 2 files verified") {
		t.Fatalf("clean summary missing:\n%s", buf.String())
	}

	// Corrupt the newest: it is reported, the older full stays clean,
	// and the renderer counts it.
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}
	results, err = VerifyDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || results[1].Err == nil {
		t.Fatalf("damage attribution wrong: %+v", results)
	}
	buf.Reset()
	if damaged := WriteVerifyText(&buf, dir, results); damaged != 1 {
		t.Fatalf("damaged=%d, want 1", damaged)
	}
	if !strings.Contains(buf.String(), "DAMAGED") || !strings.Contains(buf.String(), "1 of 2 files damaged") {
		t.Fatalf("damage summary missing:\n%s", buf.String())
	}
}
