package parallel

import (
	"testing"

	"videodrift/internal/analysis/leakcheck"
)

// TestMain gates the package on the leakcheck harness (DESIGN.md §15):
// a helper goroutine still alive after the tests fails the run — a
// fan-out's helpers exit once its indices are claimed.
func TestMain(m *testing.M) {
	leakcheck.Main(m)
}
