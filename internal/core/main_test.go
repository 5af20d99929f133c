package core

import (
	"testing"

	"videodrift/internal/analysis/leakcheck"
)

// TestMain gates the package on the leakcheck harness (DESIGN.md §15):
// selection, training and ensemble fan-outs must leave no goroutine
// behind when their tests finish.
func TestMain(m *testing.M) {
	leakcheck.Main(m)
}
