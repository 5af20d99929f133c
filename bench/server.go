package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// server is one spawned driftserve process, measured from outside.
type server struct {
	cmd        *exec.Cmd
	httpAddr   string
	ingestAddr string
	logPath    string
	done       chan struct{} // closed once the process has ended and been waited for

	// Stamped by the log scanner: when provisioning was announced and
	// when the process moved on to opening its listeners.
	mu             sync.Mutex
	provisionStart time.Time
	provisionEnd   time.Time

	setup time.Duration // spawn → /healthz 200 and ingest port accepting
}

// freeAddrs reserves n loopback ports by binding them all, then
// releasing them.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// httpClient keeps one warm connection per server, so a poll costs a
// request, not a handshake.
var httpClient = &http.Client{Timeout: 5 * time.Second}

// spawn starts driftserve with the given flags and waits until it
// serves. Its stderr goes to logPath.
func spawn(bin, logPath string, flags []string, httpAddr, ingestAddr string, ready time.Duration) (*server, error) {
	if err := os.MkdirAll(filepath.Dir(logPath), 0o755); err != nil {
		return nil, err
	}
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	s := &server{httpAddr: httpAddr, ingestAddr: ingestAddr, logPath: logPath, done: make(chan struct{})}
	s.cmd = exec.Command(bin, flags...)
	// The server must not outlive the benchmark, however the benchmark dies.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := s.cmd.StderrPipe()
	if err != nil {
		logFile.Close()
		return nil, err
	}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		defer close(s.done)
		defer logFile.Close()
		// Wait closes the pipe, so it may only run once the log is drained.
		defer s.cmd.Wait()
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			now := time.Now()
			s.mu.Lock()
			switch {
			case strings.HasPrefix(line, "provisioning "):
				s.provisionStart = now
			case s.provisionEnd.IsZero() && !s.provisionStart.IsZero():
				s.provisionEnd = now
			}
			s.mu.Unlock()
			fmt.Fprintln(logFile, line)
		}
	}()
	deadline := start.Add(ready)
	for {
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("driftserve not serving within %v (log: %s)", ready, logPath)
		}
		if s.exited() {
			s.stop()
			return nil, fmt.Errorf("driftserve exited during start-up (log: %s)", logPath)
		}
		if resp, err := httpClient.Get("http://" + httpAddr + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if ingestAddr != "" {
		conn, err := net.DialTimeout("tcp", ingestAddr, time.Second)
		if err != nil {
			s.stop()
			return nil, fmt.Errorf("ingest port %s not accepting: %w", ingestAddr, err)
		}
		conn.Close()
	}
	s.setup = time.Since(start)
	return s, nil
}

func (s *server) exited() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// provisionSeconds is the time the process spent between announcing
// provisioning and its next log line.
func (s *server) provisionSeconds() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.provisionStart.IsZero() || s.provisionEnd.IsZero() {
		return 0
	}
	return s.provisionEnd.Sub(s.provisionStart).Seconds()
}

// quit sends SIGQUIT, on which the Go runtime prints every goroutine's
// stack to stderr and exits, and gives it a moment to do so.
func (s *server) quit() {
	s.cmd.Process.Signal(syscall.SIGQUIT)
	select {
	case <-s.done:
	case <-time.After(2 * time.Second):
	}
}

// stop kills the process and waits until it has ended.
func (s *server) stop() {
	s.cmd.Process.Kill()
	<-s.done
}

// tenantHealth is one tenant's counters in /healthz.
type tenantHealth struct {
	Tenant    string `json:"tenant"`
	Slot      int    `json:"slot"`
	Accepted  int64  `json:"accepted"`
	Processed int64  `json:"processed"`
	Dups      int64  `json:"dups"`
}

// health is the slice of /healthz the benchmark reads.
type health struct {
	Ingest struct {
		Tenants []tenantHealth `json:"tenants"`
	} `json:"ingest"`
	Replication struct {
		Generation uint64 `json:"generation"`
		Lag        int    `json:"lag_generations"`
		Applied    uint64 `json:"applied"`
	} `json:"replication"`
}

// tenant returns the named tenant's counters, zero when the server does
// not know it yet.
func (h health) tenant(id string) tenantHealth {
	for _, t := range h.Ingest.Tenants {
		if t.Tenant == id {
			return t
		}
	}
	return tenantHealth{Slot: -1}
}

func (s *server) health() (health, error) {
	var h health
	resp, err := httpClient.Get("http://" + s.httpAddr + "/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return h, fmt.Errorf("/healthz: %w", err)
	}
	return h, nil
}

// get fetches a path from the server's HTTP address.
func (s *server) get(path string) ([]byte, error) {
	resp, err := httpClient.Get("http://" + s.httpAddr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", path, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return b, nil
}

// cpuSeconds is the process's user+system CPU time so far, read from the
// process's CPU-time clock: nanoseconds, where /proc/<pid>/stat counts in
// ticks of 10 ms, which is a tenth of what a second of `drift` traffic
// costs.
func (s *server) cpuSeconds() (float64, error) {
	// A process's clock id is its negated pid above the low three bits;
	// 2 (CPUCLOCK_SCHED) picks the scheduler's count for the whole thread
	// group, threads that have exited included.
	clock := int32(^s.cmd.Process.Pid<<3 | 2)
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(clock), uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("clock_gettime for pid %d: %w", s.cmd.Process.Pid, errno)
	}
	return float64(ts.Sec) + float64(ts.Nsec)/1e9, nil
}

// peakRSSMB is the process's resident-set high-water mark.
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("unexpected VmHWM line: %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}
