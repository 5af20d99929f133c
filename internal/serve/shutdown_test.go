package serve

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestWaitStoppedReturnsWhenDone(t *testing.T) {
	done := make(chan struct{})
	close(done)
	var dump bytes.Buffer
	if !waitStopped(done, time.Minute, &dump) {
		t.Fatal("waitStopped reported a timeout on a closed channel")
	}
	if dump.Len() != 0 {
		t.Errorf("a clean stop wrote %d bytes of goroutine dump", dump.Len())
	}
}

// A wedged pump never closes its channel: the wait must end anyway, and
// leave behind the stacks that show where it is stuck.
func TestWaitStoppedDumpsGoroutinesOnTimeout(t *testing.T) {
	wedged := make(chan struct{})
	release := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		stuckPump(release)
	}()
	defer func() {
		close(release)
		<-exited
	}()

	var dump bytes.Buffer
	start := time.Now()
	if waitStopped(wedged, 20*time.Millisecond, &dump) {
		t.Fatal("waitStopped reported a stop that never happened")
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("waited %v on a 20 ms timeout", waited)
	}
	if !strings.Contains(dump.String(), "stuckPump") {
		t.Errorf("goroutine dump does not show the stuck goroutine:\n%s", dump.String())
	}
}

// stuckPump stands in for a pump that cannot make progress; its name is
// what the test looks for in the dump.
func stuckPump(release <-chan struct{}) { <-release }
