package main

import (
	"io"
	"runtime/pprof"
	"time"
)

// pumpStopTimeout is how long shutdown waits for the ingest pump to
// finish its batch. A pump inside a recovery training returns in well
// under a second; one that has not returned in ten is wedged, and a
// process that waits for it ignores SIGTERM for good.
const pumpStopTimeout = 10 * time.Second

// waitStopped waits for done to close, for at most timeout. When the
// wait runs out it writes every goroutine's stack to w — what the
// operator needs to see where the pump is stuck — and reports false.
func waitStopped(done <-chan struct{}, timeout time.Duration, w io.Writer) bool {
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-done:
		return true
	case <-t.C:
		// A failed write to stderr on the way out has nowhere to go.
		_ = pprof.Lookup("goroutine").WriteTo(w, 2)
		return false
	}
}
