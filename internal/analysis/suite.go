// Package analysis assembles the driftlint analyzer suite — the
// mechanically-enforced invariants no test can check: replay
// determinism, checkpoint completeness, goroutine stop paths and
// lock-acquisition order (DESIGN.md §10, §15).
package analysis

import (
	"videodrift/internal/analysis/determinism"
	"videodrift/internal/analysis/driftlint"
	"videodrift/internal/analysis/goroleak"
	"videodrift/internal/analysis/lockorder"
	"videodrift/internal/analysis/snapshotsync"
)

// Suite returns every analyzer, in diagnostic-name order.
func Suite() []*driftlint.Analyzer {
	return []*driftlint.Analyzer{
		determinism.Analyzer,
		goroleak.Analyzer,
		lockorder.Analyzer,
		snapshotsync.Analyzer,
	}
}
