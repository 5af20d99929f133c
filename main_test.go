package videodrift

import (
	"testing"

	"videodrift/internal/analysis/leakcheck"
)

// TestMain gates the package on the leakcheck harness (DESIGN.md §15):
// the fleet's shard fan-outs, the supervisor and replication must leave
// no goroutine behind when their tests finish.
func TestMain(m *testing.M) {
	leakcheck.Main(m)
}
