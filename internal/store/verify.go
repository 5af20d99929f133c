package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// VerifyResult is one file's integrity report from VerifyDir.
type VerifyResult struct {
	Path    string
	Bytes   int
	Gen     uint64
	Epoch   uint64
	Entries int // model entry blobs carried
	Shards  int
	Err     error // nil when the file verified clean
}

// VerifyDir walks every full checkpoint file in a state directory and
// re-checksums each one: envelope header, payload CRC, and every
// per-model entry blob CRC, without rebuilding the heavyweight model
// objects. It reports one result per file in sequence order —
// `drifttool inspect -verify` renders them and exits 1 if any Err is
// set. Damage is reported, never fatal: a torn file yields a result,
// not an early return.
func VerifyDir(dir string) ([]VerifyResult, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var fulls []string
	for _, de := range ents {
		if _, ok := seqOf(de.Name()); ok && !de.IsDir() {
			fulls = append(fulls, filepath.Join(dir, de.Name()))
		}
	}
	sort.Strings(fulls)
	results := make([]VerifyResult, len(fulls))
	for i, p := range fulls {
		results[i] = verifyFile(p)
	}
	return results, nil
}

// verifyFile re-checksums one checkpoint file.
func verifyFile(path string) VerifyResult {
	res := VerifyResult{Path: path}
	data, err := os.ReadFile(path)
	if err != nil {
		res.Err = err
		return res
	}
	res.Bytes = len(data)
	// The decoder re-checksums every entry blob against its recorded
	// CRC — the per-model half of the verification.
	d, err := decodeFile(data)
	if err != nil {
		res.Err = err
		return res
	}
	res.Gen, res.Epoch = d.Gen, d.Epoch
	res.Entries = len(d.NewEntries)
	res.Shards = len(d.Shards)
	return res
}

// WriteVerifyText renders VerifyDir results in the layout
// `drifttool inspect -verify` prints, returning how many files were
// damaged.
func WriteVerifyText(w io.Writer, dir string, results []VerifyResult) int {
	damaged := 0
	fmt.Fprintf(w, "verify %s: %d files\n", dir, len(results))
	for _, r := range results {
		status := "ok"
		if r.Err != nil {
			damaged++
			status = "DAMAGED: " + r.Err.Error()
		}
		gen := ""
		if r.Gen > 0 || r.Epoch > 0 {
			gen = fmt.Sprintf(" gen=%d epoch=%d", r.Gen, r.Epoch)
		}
		fmt.Fprintf(w, "  %s  %d bytes  entries=%d shards=%d%s  %s\n",
			filepath.Base(r.Path), r.Bytes, r.Entries, r.Shards, gen, status)
	}
	if damaged > 0 {
		fmt.Fprintf(w, "%d of %d files damaged\n", damaged, len(results))
	} else {
		fmt.Fprintf(w, "all %d files verified\n", len(results))
	}
	return damaged
}
