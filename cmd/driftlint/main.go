// Command driftlint is the repo's invariant multichecker: four custom
// analyzers that mechanically enforce what the test suite cannot check
// — restart determinism (no wall clock / global randomness / unordered
// iteration in replay-critical packages), checkpoint completeness
// (every snapshot field covered by encode and decode), goroutine stop
// paths and lock-acquisition-order cycles. The per-package passes and the
// whole-program passes share one type-checked load and one
// cross-package fact layer (DESIGN.md §10, §15).
//
// Usage:
//
//	driftlint [package pattern ...]    # default ./...
//	driftlint -timing [...]            # print the load/facts/analyze split
//	driftlint -help                    # list analyzers
//
// Exit status: 0 clean, 1 findings, 2 load failure. Suppress a finding
// with `//lint:allow <analyzer> <reason>` on the flagged line or the
// line above. The identical gate runs in CI and via scripts/lint.sh.
package main

import (
	"os"

	"videodrift/internal/analysis"
	"videodrift/internal/analysis/driftlint"
)

func main() {
	dir, err := os.Getwd()
	if err != nil {
		os.Stderr.WriteString(err.Error() + "\n")
		os.Exit(2)
	}
	os.Exit(driftlint.Main(os.Stderr, dir, os.Args[1:], analysis.Suite()))
}
