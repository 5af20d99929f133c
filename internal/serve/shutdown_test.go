package serve

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"videodrift/internal/faults"
	"videodrift/internal/ingest"
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

// TestShutdownWedgedPump is SIGTERM with the pump wedged on a connection's
// goroutine: a worker stall holds the fleet call that the connection's
// own feed made, so the final drain waits behind it. Shutdown must still
// return within stopTimeout, with its error and every goroutine's stack
// on stderr — the connection's feed among them — and flush nothing.
func TestShutdownWedgedPump(t *testing.T) {
	inj := faults.NewInjector(faults.Schedule{Faults: []faults.Fault{{Shard: 0, Frame: 5, Kind: faults.KindWorkerStall}}})
	stalled, release := make(chan struct{}), make(chan struct{})
	inj.SetSleeper(func(time.Duration) {
		close(stalled)
		<-release
	})
	beforeProcess, stopTimeout = inj.BeforeProcess, 200*time.Millisecond
	defer func() { beforeProcess, stopTimeout = nil, 10*time.Second }()
	s := start(t, testConfig())
	c, err := ingest.Dial(ingest.ClientConfig{Addr: s.IngestAddr(), Tenant: "cam-0", MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	sending := make(chan struct{})
	go func() {
		defer close(sending)
		next := s.env.DS.TenantStream(0)
		for c.Send(next()) == nil {
		}
	}()
	<-stalled

	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	dump := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		dump <- string(b)
	}()
	stderr := os.Stderr
	os.Stderr = w
	begin := time.Now()
	err = s.Shutdown()
	took := time.Since(begin)
	os.Stderr = stderr
	w.Close()
	out := <-dump
	r.Close()

	if err == nil || !strings.Contains(err.Error(), "pump still running") {
		t.Errorf("Shutdown with the pump wedged returned %v, want the wedged-pump error", err)
	}
	if took > 25*stopTimeout {
		t.Errorf("Shutdown took %v on a %v stop timeout", took, stopTimeout)
	}
	for _, frame := range []string{"ingest.(*Router).feed", "ingest.(*Server).serveConn", "ingest.(*Router).Pump"} {
		if !strings.Contains(out, frame) {
			t.Errorf("the goroutine dump does not show %s", frame)
		}
	}
	if strings.Contains(out, "flushing final") {
		t.Error("Shutdown flushed behind a wedged pump")
	}

	// What Shutdown left for the process's exit: the worker, the
	// connection, the final drain and the listeners.
	close(release)
	s.flt.Load().isrv.Close()
	s.hsrv.Close()
	s.serving.Wait()
	<-sending // the closed connection failed the Send in flight
	c.Close()
}
