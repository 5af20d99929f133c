package replica

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"videodrift/internal/core"
	"videodrift/internal/forensics"
	"videodrift/internal/store"
	"videodrift/internal/telemetry"
	"videodrift/internal/tensor"
	"videodrift/internal/vidsim"
)

// TestCycleCostFollowsNewFrames pins what a steady-state cycle costs, on
// both sides of the wire: bytes shipped and bytes allocated follow the
// frames that arrived since the last cycle, not the frames the shard
// state retains. Two fleets differ tenfold in retained declaration
// frames and receive the same traffic; their cycles must ship the same
// bytes, allocate (primary and in-process standby together) within a
// fraction of each other, and never fall back to a full.
func TestCycleCostFollowsNewFrames(t *testing.T) {
	const (
		pixels   = 1024
		perCycle = 20 // new frames per cycle
		ring     = 48 // pre-roll length
		cycles   = 10
	)
	frameBytes := 8 * pixels
	entries := []*core.ModelEntry{testEntry("m0")}
	newFrame := func(i int) vidsim.Frame {
		px := make(tensor.Vector, pixels)
		for j := range px {
			px[j] = float64(i) + float64(j)/pixels
		}
		return vidsim.Frame{Index: i, W: 32, H: 32, Pixels: px}
	}

	measure := func(declarations int) (allocPerCycle, bytesPerCycle uint64) {
		sb, addr := startStandby(t, StandbyConfig{})
		next := 0
		var decls []forensics.Declaration
		for d := 0; d < declarations; d++ {
			frames := make([]vidsim.Held, 64)
			for i := range frames {
				frames[i] = newFrame(next).Keep()
				next++
			}
			decls = append(decls, forensics.Declaration{ID: telemetry.DriftID(next), Frame: next, Frames: frames})
		}
		var stream []vidsim.Held
		base := testCheckpoint(t, entries, 0)
		prim := NewPrimary(PrimaryConfig{
			Addrs: []string{addr},
			Capture: func() *store.Checkpoint {
				for i := 0; i < perCycle; i++ {
					stream = append(stream, newFrame(next).Keep())
					next++
				}
				stream = stream[max(0, len(stream)-ring):]
				sh := base.Shards[0]
				sh.Forensics = forensics.RecorderState{
					Enabled: true, Frame: next,
					Ring:         append([]vidsim.Held(nil), stream...),
					Declarations: decls,
				}
				return &store.Checkpoint{
					CreatedUnixNano: base.CreatedUnixNano,
					Frames:          int64(next),
					Entries:         entries,
					Shards:          []store.ShardState{sh},
				}
			},
		})
		defer prim.Close()
		for i := 0; i < 4; i++ { // first contact, then buffers reach their size
			if err := prim.Cycle(); err != nil {
				t.Fatalf("warm-up cycle %d: %v", i+1, err)
			}
		}
		before := prim.Stats()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < cycles; i++ {
			if err := prim.Cycle(); err != nil {
				t.Fatalf("cycle %d: %v", i+1, err)
			}
		}
		runtime.ReadMemStats(&m1)
		after := prim.Stats()
		if after.Fulls != 1 || after.Deltas-before.Deltas != cycles {
			t.Fatalf("%d declarations: %d fulls, %d deltas over %d measured cycles; want first contact's full only",
				declarations, after.Fulls, after.Deltas-before.Deltas, cycles)
		}
		if sb.Gen() != prim.Gen() {
			t.Fatalf("standby at gen %d, primary at %d", sb.Gen(), prim.Gen())
		}
		if got := len(sb.Latest().Shards[0].Forensics.Declarations); got != declarations {
			t.Fatalf("standby holds %d declarations, want %d", got, declarations)
		}
		return (m1.TotalAlloc - m0.TotalAlloc) / cycles, (after.DeltaBytes - before.DeltaBytes) / cycles
	}

	smallAlloc, smallBytes := measure(4)  // 256 retained frames, 2 MB
	largeAlloc, largeBytes := measure(40) // 2560 retained frames, 21 MB
	t.Logf("per cycle of %d new frames (%d bytes): 4 declarations ship %d bytes and allocate %d; 40 declarations ship %d and allocate %d",
		perCycle, perCycle*frameBytes, smallBytes, smallAlloc, largeBytes, largeAlloc)
	fresh := uint64(perCycle * frameBytes)
	for name, shipped := range map[string]uint64{"4": smallBytes, "40": largeBytes} {
		if shipped > fresh+64<<10 {
			t.Errorf("%s declarations: a cycle ships %d bytes for %d bytes of new frames", name, shipped, fresh)
		}
	}
	// Both sides together: the wire message is read once and its frames
	// decoded once on the standby, encoded in place on the primary.
	if smallAlloc > 4*fresh {
		t.Errorf("a cycle allocates %d bytes for %d bytes of new frames", smallAlloc, fresh)
	}
	if largeAlloc > smallAlloc+smallAlloc/4 {
		t.Errorf("ten times the retained frames raise a cycle's allocation from %d to %d bytes", smallAlloc, largeAlloc)
	}
}

// TestDeltaBufferBounded ships one delta larger than deltaKeepBytes,
// then small ones: the large buffer goes once it has shipped, and the
// small deltas reuse one buffer from then on.
func TestDeltaBufferBounded(t *testing.T) {
	_, addr := startStandby(t, StandbyConfig{})
	entries := []*core.ModelEntry{testEntry("m0")}
	base := testCheckpoint(t, entries, 0)
	var ring []vidsim.Held
	next, arrive := 0, 0
	prim := NewPrimary(PrimaryConfig{
		Addrs: []string{addr},
		Capture: func() *store.Checkpoint {
			for ; arrive > 0; arrive-- {
				px := make(tensor.Vector, 1024)
				for j := range px {
					px[j] = float64(next) + float64(j)/1024
				}
				ring = append(ring, vidsim.Frame{Index: next, W: 32, H: 32, Pixels: px}.Keep())
				next++
			}
			sh := base.Shards[0]
			sh.Forensics = forensics.RecorderState{Enabled: true, Frame: next, Ring: slices.Clone(ring)}
			return &store.Checkpoint{Frames: int64(next), Entries: entries, Shards: []store.ShardState{sh}}
		},
	})
	defer prim.Close()
	cycle := func(frames int) {
		t.Helper()
		arrive = frames
		if err := prim.Cycle(); err != nil {
			t.Fatal(err)
		}
	}
	cycle(1) // first contact: a full
	cycle(100)
	if got := prim.Stats(); got.Deltas != 1 || got.LastBytes <= deltaKeepBytes {
		t.Fatalf("fixture: %d deltas, the last %d bytes; want one larger than %d", got.Deltas, got.LastBytes, deltaKeepBytes)
	}
	if c := cap(prim.deltaMsg); c > deltaKeepBytes {
		t.Fatalf("after a %d-byte delta shipped the primary keeps a %d-byte buffer, want at most %d", prim.Stats().LastBytes, c, deltaKeepBytes)
	}
	cycle(4)
	kept := cap(prim.deltaMsg)
	for i := 0; i < 5; i++ {
		cycle(4)
		if c := cap(prim.deltaMsg); c != kept || c > deltaKeepBytes {
			t.Fatalf("small delta %d: the buffer's capacity went from %d to %d (bound %d)", i+2, kept, c, deltaKeepBytes)
		}
	}
	if got := prim.Stats(); got.Fulls != 1 || got.Deltas != 7 {
		t.Fatalf("%d fulls and %d deltas, want 1 and 7", got.Fulls, got.Deltas)
	}
}

// TestCycleIsVisible checks an operator can see what replication costs
// without patching the binary: per-kind counts and bytes, the cycle's
// duration as a gauge, a histogram stage and an event field, and one
// log line — not one per cycle — when cycles outrun their interval.
func TestCycleIsVisible(t *testing.T) {
	tr := telemetry.New(telemetry.Config{})
	_, addr := startStandby(t, StandbyConfig{})
	entries := []*core.ModelEntry{testEntry("m0")}
	var frames int64
	var logged []string
	prim := NewPrimary(PrimaryConfig{
		Addrs:    []string{addr},
		Interval: time.Nanosecond, // every cycle overruns
		Tracer:   tr,
		Logf:     func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) },
		Capture: func() *store.Checkpoint {
			frames += 100
			return testCheckpoint(t, entries, frames)
		},
	})
	defer prim.Close()
	const cycles = 3
	for i := 0; i < cycles; i++ {
		if err := prim.Cycle(); err != nil {
			t.Fatalf("cycle %d: %v", i+1, err)
		}
	}

	ps := prim.Stats()
	if ps.Cycles != cycles || ps.Fulls != 1 || ps.Deltas != cycles-1 || ps.Overruns != cycles {
		t.Errorf("stats %+v, want %d cycles, 1 full, %d deltas, all overrunning", ps, cycles, cycles-1)
	}
	if ps.FullBytes == 0 || ps.DeltaBytes == 0 || ps.LastBytes == 0 || ps.LastCycle <= 0 || ps.LastCapture > ps.LastCycle {
		t.Errorf("stats %+v: bytes and durations not recorded", ps)
	}
	overruns := 0
	for _, line := range logged {
		if strings.Contains(line, "longer than") {
			overruns++
		}
	}
	if overruns != 1 {
		t.Errorf("%d overrun log lines for %d overrunning cycles, want 1:\n%s", overruns, cycles, strings.Join(logged, "\n"))
	}

	snap := tr.Snapshot()
	if snap.ReplicaFullBytes != ps.FullBytes || snap.ReplicaDeltaBytes != ps.DeltaBytes || snap.ReplicaCycleSeconds <= 0 {
		t.Errorf("snapshot full/delta bytes %d/%d, cycle %gs; primary counted %d/%d",
			snap.ReplicaFullBytes, snap.ReplicaDeltaBytes, snap.ReplicaCycleSeconds, ps.FullBytes, ps.DeltaBytes)
	}
	staged := false
	for _, st := range snap.Stages {
		staged = staged || (st.Stage == "replicate" && st.Count == cycles)
	}
	if !staged {
		t.Errorf("no replicate stage with %d observations in %+v", cycles, snap.Stages)
	}
	for _, e := range snap.Events {
		if e.Kind == telemetry.KindReplicaDeltaSent && e.CycleMS <= 0 {
			t.Errorf("replica_delta_sent event for gen %d carries no cycle duration", e.Gen)
		}
	}
	var prom strings.Builder
	if err := snap.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf("videodrift_replica_bytes_total{kind=\"full\"} %d\n", ps.FullBytes),
		fmt.Sprintf("videodrift_replica_bytes_total{kind=\"delta\"} %d\n", ps.DeltaBytes),
		"videodrift_replica_cycle_seconds ",
		"videodrift_stage_latency_seconds_count{stage=\"replicate\"} 3\n",
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("Prometheus exposition lacks %q", want)
		}
	}
}
