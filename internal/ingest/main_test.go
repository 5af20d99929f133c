package ingest

import (
	"testing"

	"videodrift/internal/analysis/leakcheck"
)

// TestMain gates the package on the leakcheck harness (DESIGN.md §15):
// every server accept loop, per-connection handler and router pump
// started by a test must be stopped by that test's cleanup — a leak
// the static goroleak pass cannot see (or was told to waive) still
// fails here.
func TestMain(m *testing.M) {
	leakcheck.Main(m)
}
