// Package leakcheck is the runtime complement to the goroleak static
// analyzer: where goroleak proves spawn sites have a stop path at
// compile time, leakcheck verifies at test exit that the stop paths
// were actually taken. A package's TestMain hands control to Main,
// which runs the tests and then diffs the live goroutine dump against
// an allowlist, retrying with exponential backoff so goroutines still
// winding down after the last test get a chance to finish. Leaks that
// the static side waived with //lint:allow still fail here — the two
// gates are independent by design.
//
// Only goroutines whose stacks mention this module are reported, so
// runtime and testing internals never trip the gate; what can trip it
// is a repo goroutine parked in a channel receive or ticker loop with
// nobody left to release it.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// modulePrefix marks the stack frames this harness cares about: a
// goroutine leak is only reportable when repo code is on the stack or
// at the creation site.
const modulePrefix = "videodrift/"

// defaultAllow waives the harness's own frames: when Check runs inside
// a test, the package's main goroutine is parked in TestMain → m.Run
// with this package (module-prefixed) on its stack — that is the gate,
// not a leak.
var defaultAllow = []string{
	"videodrift/internal/analysis/leakcheck.",
	".TestMain(",
}

type config struct {
	allow   []string
	maxWait time.Duration
}

// Option configures a Check or Main call.
type Option func(*config)

// Allow waives goroutines whose stack text contains any of the given
// substrings — typically the qualified name of a deliberately
// process-lifetime goroutine, e.g. "videodrift/internal/foo.(*Cache).run"
// for a cache's refresher that lives as long as the process. No package
// in the module waives anything today.
func Allow(substrs ...string) Option {
	return func(c *config) { c.allow = append(c.allow, substrs...) }
}

// MaxWait bounds the retry-with-backoff window granted to goroutines
// still shutting down (default one second).
func MaxWait(d time.Duration) Option {
	return func(c *config) { c.maxWait = d }
}

// Main wraps a package's TestMain: run the tests, then gate a clean
// exit on a leak-free goroutine dump.
func Main(m *testing.M, opts ...Option) {
	code := m.Run()
	if code == 0 {
		if err := Check(opts...); err != nil {
			fmt.Fprintf(os.Stderr, "leakcheck: %v\n", err)
			code = 1
		}
	}
	os.Exit(code)
}

// Check reports an error if module goroutines beyond the allowlist are
// still alive. It retries with exponential backoff (1ms doubling, up
// to MaxWait cumulative) before declaring a leak, so a goroutine whose
// stop signal fired just before the check does not race it.
func Check(opts ...Option) error {
	cfg := config{allow: defaultAllow, maxWait: time.Second}
	for _, o := range opts {
		o(&cfg)
	}
	var leaked []string
	waited := time.Duration(0)
	for delay := time.Millisecond; ; delay *= 2 {
		leaked = leakedStacks(&cfg)
		if len(leaked) == 0 {
			return nil
		}
		if waited+delay > cfg.maxWait {
			break
		}
		time.Sleep(delay)
		waited += delay
	}
	return fmt.Errorf("%d leaked goroutine(s) after %v:\n\n%s",
		len(leaked), waited, strings.Join(leaked, "\n\n"))
}

// leakedStacks returns the stack text of every live module goroutine
// not covered by the allowlist. The current goroutine (the harness
// itself) is never counted.
func leakedStacks(cfg *config) []string {
	var leaked []string
	for _, g := range dumpStacks() {
		if !strings.Contains(g, modulePrefix) {
			continue
		}
		allowed := false
		for _, a := range cfg.allow {
			if strings.Contains(g, a) {
				allowed = true
				break
			}
		}
		if !allowed {
			leaked = append(leaked, g)
		}
	}
	return leaked
}

// dumpStacks snapshots every goroutine's stack except the caller's
// own, one text block per goroutine.
func dumpStacks() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	blocks := strings.Split(strings.TrimSpace(string(buf)), "\n\n")
	if len(blocks) > 0 {
		// runtime.Stack(all=true) lists the calling goroutine first.
		blocks = blocks[1:]
	}
	return blocks
}
