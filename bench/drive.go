package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"videodrift/internal/ingest"
	"videodrift/internal/vidsim"
)

// frameSource generates one tenant's frames on the fly from the run's
// seed (tenant i draws from seed + i·104729, driftfeed's schedule). The
// server receives only the frames.
//
// A source stays in the deployed model's condition for the workload's
// Stationary share of the run and then walks through its Segments camera
// angles the server has no model for, an equal share of the rest each
// (no segments: it stays stationary). Every such drift ends in a
// training: which provisioned model a selector would have picked varies
// with the seed, but "none fits" does not, and that keeps the number of
// expensive events per run the same whatever the seed. Tenant 1 runs
// half a segment behind tenant 0, so their trainings do not pile up on
// the one pump.
type frameSource struct {
	stream *vidsim.Stream
}

func newFrameSource(w *workload, seed int64, tenant, frames int) *frameSource {
	seed += int64(tenant) * 104729
	endless := 1 << 30
	if w.Segments == 0 {
		return &frameSource{vidsim.NewStream(32, 32, seed, vidsim.Segment{Cond: vidsim.Night(), Length: endless})}
	}
	warm := int(w.Stationary * float64(frames))
	seg := max((frames-warm)/w.Segments, 1)
	warm = max(warm+tenant*seg/2, 1)
	segs := []vidsim.Segment{{Cond: vidsim.Night(), Length: warm}}
	for k := 1; k <= w.Segments; k++ {
		segs = append(segs, vidsim.Segment{Cond: vidsim.Angle(k, 17, -1), Length: seg})
	}
	segs[len(segs)-1].Length = endless
	return &frameSource{vidsim.NewStream(32, 32, seed, segs...)}
}

func (s *frameSource) next() vidsim.Frame {
	f, _ := s.stream.Next() // the last segment never ends
	return f
}

// wireFrame is the frame the server's pipeline sees for f sent as seq:
// float32-quantised pixels, the wire sequence number as index, no ground
// truth.
func wireFrame(seq int, f vidsim.Frame) vidsim.Frame {
	return ingest.FrameFromMsg(ingest.MsgFromFrame("", uint64(seq), f))
}

// tenantLog is what one sender recorded, indexed by seq-1 (frame 0 is
// the attach frame, sent before the clock starts). Times are nanoseconds
// since the clock started.
type tenantLog struct {
	id   string
	slot int

	due   []int64 // when the frame was due on the wire
	sent  []int64 // when Send was called
	acked []int64 // when Send returned
	genNS int64   // total time spent generating frames
	// Only a traced drive keeps the generator's per-frame interval.
	genStart, genEnd []int64

	stats ingest.ClientStats
	err   error
}

// poll is one /healthz observation.
type poll struct {
	at        int64 // ns since the clock started
	rttNS     int64
	processed [tenants]int64
	cpuS      float64 // the server's CPU seconds so far
	lagGens   int
}

// driveResult is everything one drive observed.
type driveResult struct {
	tenants [tenants]*tenantLog
	polls   []poll
	window  time.Duration // clock start → processed == accepted == sent
	drain   time.Duration // last ack → drained
	cpuS    float64       // server CPU seconds over the window
	sbCPUS  float64       // standby CPU seconds over the window
	hung    bool
	clock   time.Time // the clock's zero
}

// drive attaches the tenants in index order, starts the clock, runs one
// sender per tenant plus the poller for the workload's duration, and
// waits for the server to drain.
func drive(w *workload, srv, standby *server, seed int64, seconds int, traced bool) (*driveResult, error) {
	res := &driveResult{}
	clients := make([]*ingest.Client, tenants)
	sources := make([]*frameSource, tenants)
	defer func() {
		for _, c := range clients {
			if c != nil {
				c.Close()
			}
		}
	}()
	n := w.frames(seconds)
	interval := time.Second / time.Duration(w.FPS)
	for i := 0; i < tenants; i++ {
		id := fmt.Sprintf("cam-%d", i)
		res.tenants[i] = &tenantLog{id: id, slot: i}
		sources[i] = newFrameSource(w, seed, i, n)
		c, err := ingest.Dial(ingest.ClientConfig{Addr: srv.ingestAddr, Tenant: id})
		if err != nil {
			return nil, fmt.Errorf("dialing ingest for %s: %w", id, err)
		}
		clients[i] = c
		// The first frame attaches the tenant's shard; slot order is
		// attach order, and the slot seeds the shard.
		if err := c.Send(sources[i].next()); err != nil {
			return nil, fmt.Errorf("attaching %s: %w", id, err)
		}
	}
	if err := waitAttached(srv, res); err != nil {
		return nil, err
	}

	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	var sbCPU0 float64
	if standby != nil {
		if sbCPU0, err = standby.cpuSeconds(); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	res.clock = start

	var sentCount [tenants]atomic.Int64
	sendersDone := make(chan struct{})
	pollerDone := make(chan struct{})
	go func() {
		defer close(pollerDone)
		pollLoop(srv, res, start, &sentCount, sendersDone)
	}()
	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			send(clients[i], sources[i], res.tenants[i], &sentCount[i], start, n, interval, traced)
		}(i)
	}
	wg.Wait()
	lastAck := time.Now()
	close(sendersDone)
	<-pollerDone
	end := time.Now()

	res.window = end.Sub(start)
	res.drain = end.Sub(lastAck)
	if len(res.polls) == 0 {
		return nil, fmt.Errorf("no /healthz poll succeeded")
	}
	// The last poll is the one that saw the server drained (or, on a
	// hung run, the last one it answered).
	res.cpuS = res.polls[len(res.polls)-1].cpuS - cpu0
	if standby != nil {
		if sbCPU1, err := standby.cpuSeconds(); err == nil {
			res.sbCPUS = sbCPU1 - sbCPU0
		}
	}
	for i, c := range clients {
		res.tenants[i].stats = c.Stats()
	}
	return res, nil
}

// waitAttached waits until every attach frame is processed and checks
// each tenant landed on its slot.
func waitAttached(srv *server, res *driveResult) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		h, err := srv.health()
		if err != nil {
			return err
		}
		ready := 0
		for _, t := range res.tenants {
			ht := h.tenant(t.id)
			if ht.Slot != t.slot {
				return fmt.Errorf("tenant %s attached to slot %d, want %d", t.id, ht.Slot, t.slot)
			}
			if ht.Processed == 1 {
				ready++
			}
		}
		if ready == tenants {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("attach frames not processed within 5 s")
		}
		time.Sleep(time.Millisecond)
	}
}

// send is one tenant's sender, an open loop: frame k is due at
// start + k·interval whatever the server does, and a stalled Send makes
// the frames behind it late, which their latency then counts.
func send(c *ingest.Client, src *frameSource, log *tenantLog, sent *atomic.Int64, start time.Time, n int, interval time.Duration, traced bool) {
	for k := 0; k < n; k++ {
		g0 := time.Now()
		f := src.next()
		g1 := time.Now()
		log.genNS += int64(g1.Sub(g0))
		due := start.Add(time.Duration(k) * interval)
		if wait := due.Sub(g1); wait > 0 {
			time.Sleep(wait)
		}
		t0 := time.Now()
		sent.Add(1)
		if err := c.Send(f); err != nil {
			sent.Add(-1)
			log.err = err
			return
		}
		t1 := time.Now()
		log.due = append(log.due, int64(due.Sub(start)))
		log.sent = append(log.sent, int64(t0.Sub(start)))
		log.acked = append(log.acked, int64(t1.Sub(start)))
		if traced {
			log.genStart = append(log.genStart, int64(g0.Sub(start)))
			log.genEnd = append(log.genEnd, int64(g1.Sub(start)))
		}
	}
}

// pollLoop reads /healthz every pollInterval until the senders are done
// and the server has processed everything they sent. It is also the
// watchdog: when progress stops for stallLimit — the count stands still
// with frames outstanding, or /healthz itself stops answering — it
// saves the server's goroutine stacks and kills it, so a deadlocked
// server costs one failed run, not a hung benchmark (the senders' Send
// calls fail once the process is gone).
func pollLoop(srv *server, res *driveResult, start time.Time, sent *[tenants]atomic.Int64, sendersDone <-chan struct{}) {
	tick := time.NewTicker(pollInterval)
	defer tick.Stop()
	var lastTotal int64 = -1
	lastAdvance := time.Now()
	for range tick.C {
		t0 := time.Now()
		h, err := srv.health()
		t1 := time.Now()
		if err != nil {
			if srv.exited() {
				res.hung = true
				return
			}
			// A poll that fails is a poll that saw no progress.
			if t1.Sub(lastAdvance) > stallLimit {
				watchdogKill(srv, res, fmt.Sprintf("/healthz failing (%v)", err))
				return
			}
			continue
		}
		p := poll{at: int64(t1.Sub(start)), rttNS: int64(t1.Sub(t0)), lagGens: h.Replication.Lag}
		p.cpuS, _ = srv.cpuSeconds() // a dead server shows up as a failed /healthz
		var total, want int64
		for i, t := range res.tenants {
			p.processed[i] = h.tenant(t.id).Processed
			total += p.processed[i]
			want += sent[i].Load() + 1 // plus the attach frame
		}
		res.polls = append(res.polls, p)
		if total != lastTotal {
			lastTotal, lastAdvance = total, t1
		}
		select {
		case <-sendersDone:
			if total >= want {
				return
			}
		default:
		}
		if total < want && t1.Sub(lastAdvance) > stallLimit {
			watchdogKill(srv, res, fmt.Sprintf("%d frames outstanding", want-total))
			return
		}
	}
}

// watchdogKill saves the server's goroutine stacks next to its log and
// kills it. When the HTTP side is wedged too, SIGQUIT makes the Go
// runtime write the stacks to the server's stderr, which is the log.
func watchdogKill(srv *server, res *driveResult, why string) {
	where := srv.logPath + ".goroutines"
	dump, err := srv.get("/debug/pprof/goroutine?debug=1")
	if err == nil {
		err = os.WriteFile(where, dump, 0o644)
	}
	if err != nil {
		where = srv.logPath
		srv.quit()
	}
	fmt.Fprintf(os.Stderr, "bench: watchdog: no progress for %v, %s; server killed (stacks: %s)\n",
		time.Duration(stallLimit), why, where)
	res.hung = true
	srv.stop()
}

// verdicts computes, per frame, when it was first seen processed: the
// first poll whose per-tenant processed count exceeds the frame's seq.
// A frame no poll covered gets -1.
func (r *driveResult) verdicts(tenant int) []int64 {
	t := r.tenants[tenant]
	out := make([]int64, len(t.acked))
	pi := 0
	for k := range out {
		seq := int64(k + 1)
		for pi < len(r.polls) && r.polls[pi].processed[tenant] <= seq {
			pi++
		}
		if pi == len(r.polls) {
			for ; k < len(out); k++ {
				out[k] = -1
			}
			break
		}
		out[k] = r.polls[pi].at
	}
	return out
}
