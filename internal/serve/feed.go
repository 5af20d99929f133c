package serve

import (
	"fmt"
	"log"
	"net"
	"os"
	"time"

	"videodrift"
	"videodrift/internal/ingest"
	"videodrift/internal/telemetry"
	"videodrift/internal/vidsim"
)

// startIngest opens the network ingestion tier over f's fleet: the TCP
// wire server accepts tenant streams, the router queues them with
// backpressure, and the router's pump loop drains the queues through the
// fleet whenever a frame has arrived. resume marks a promoted standby,
// whose tenants fail over mid-stream.
func (s *Server) startIngest(f *fleet, resume bool) error {
	var err error
	if f.iln, err = net.Listen("tcp", s.cfg.IngestAddr); err != nil {
		return fmt.Errorf("ingest listen: %w", err)
	}
	f.router = ingest.NewRouter(f.mon, ingest.Config{
		MaxTenants:    s.cfg.MaxTenants,
		QueueCap:      s.cfg.TenantQueue,
		BatchSize:     s.cfg.Batch,
		IdleEvict:     s.cfg.IdleEvict,
		ResumeStreams: resume,
		NewTracer:     func(string) *telemetry.Tracer { return s.newTracer() },
	})
	f.isrv = ingest.NewServer(f.router, ingest.ServerConfig{Logf: log.Printf})
	fmt.Fprintf(os.Stderr, "ingesting frames on %s (wire protocol over TCP; HTTP fallback at POST /ingest)\n", f.iln.Addr())
	s.accept("ingest serve", func() error { return f.isrv.Serve(f.iln) })
	s.run.Add(1)
	go func() {
		defer s.run.Done()
		f.router.Run(s.stop, s.pumped)
	}()
	return nil
}

// pumped accounts for one Router.Pump.
func (s *Server) pumped(n int, err error) {
	if err != nil {
		log.Printf("ingest pump: %v", err)
	}
	s.processed.Add(int64(n))
}

// startSelfFeed drives the synthetic streams through a fixed fleet until
// the -frames budget is reached or the server stops. All shards advance
// in lockstep, one frame per shard per step — every 1/-fps seconds, or
// back to back when unthrottled, so -fps means the same stream rate at
// any batch size; after -batch steps the per-shard micro-batches reach
// the supervisor in one ProcessBatches call (-batch 1 is the classic
// one-frame-per-shard cadence). The chaos and lap-seed schedules key on
// the per-shard stream index, so batching never moves a fault or a
// drift.
func (s *Server) startSelfFeed(mon *videodrift.ShardedMonitor) {
	n := mon.Shards()
	// Each shard loops its own copy of the dataset on an independent
	// lap-seed schedule, so the shards drift at different times — the
	// realistic multi-camera load — and a fresh seed per lap keeps drifts
	// coming.
	streams, lap := make([]*vidsim.Stream, n), make([]int, n)
	next := func(sh int) vidsim.Frame {
		for {
			if streams[sh] != nil {
				if f, ok := streams[sh].Next(); ok {
					return f
				}
				lap[sh]++
			}
			ds := *s.ds
			ds.Seed += int64(sh)*104729 + int64(lap[sh])*7907
			streams[sh] = ds.Stream()
			if s.cfg.Verbose {
				fmt.Fprintf(os.Stderr, "shard %d lap %d: %d frames, ground-truth drifts at %v\n",
					sh, lap[sh], streams[sh].TotalLength(), streams[sh].DriftPoints())
			}
		}
	}
	for sh := 0; sh < n; sh++ {
		// After a warm restart or a promotion, fast-forward to where the
		// shard left off: the lap-seed schedule is deterministic, so
		// regenerating and discarding the already-processed frames lands
		// the stream on exactly the frame the interrupted run would have
		// seen next.
		for skip := mon.Shard(sh).Stats().Frames; skip > 0; skip-- {
			next(sh)
		}
	}
	batches := make([][]vidsim.Frame, n)
	index := 0 // per-shard stream index since this process started feeding
	step := func() (done bool) {
		for sh := range batches {
			f := next(sh)
			// The chaos schedule holds no drop/dup faults, so Apply yields
			// exactly one (possibly corrupted) frame; the admission gate
			// quarantines the corrupted ones.
			if out := s.inj.Apply(sh, index, f); len(out) == 1 {
				f = out[0]
			}
			batches[sh] = append(batches[sh], f)
		}
		index++
		if len(batches[0]) < s.cfg.Batch {
			return false
		}
		events, err := mon.ProcessBatches(batches)
		if err != nil {
			// The self-feed drives a fixed fleet; a shape mismatch here
			// is a bug, not an operational condition.
			panic(fmt.Sprintf("serve: self-feed: %v", err))
		}
		for sh, evs := range events {
			if s.cfg.Verbose {
				logEvents(sh, index-len(evs), batches[sh], evs)
			}
			batches[sh] = batches[sh][:0]
		}
		// One event per frame fed, also from a shard whose breaker tripped.
		if fed := s.processed.Add(int64(n * s.cfg.Batch)); s.cfg.Frames > 0 && fed >= int64(s.cfg.Frames) {
			fmt.Fprintf(os.Stderr, "frame budget reached (%d); streams stopped, still serving\n", fed)
			s.feedEnded.Store(true)
			return true
		}
		return false
	}
	if s.cfg.FPS > 0 {
		s.every(time.Duration(float64(time.Second)/s.cfg.FPS), step)
		return
	}
	s.run.Add(1)
	go func() {
		defer s.run.Done()
		for !step() {
			select {
			case <-s.stop:
				return
			default:
			}
		}
	}()
}

// logEvents is -v: the drifts and deployments of one shard's batch,
// whose first frame is stream index first.
func logEvents(shard, first int, frames []vidsim.Frame, events []videodrift.Event) {
	for j, ev := range events {
		if ev.Drift {
			fmt.Fprintf(os.Stderr, "shard %d frame %d [%s]: drift declared\n", shard, first+j, frames[j].Condition)
		}
		if ev.SwitchedTo != "" {
			fmt.Fprintf(os.Stderr, "shard %d frame %d [%s]: deployed %q (trained=%v)\n",
				shard, first+j, frames[j].Condition, ev.SwitchedTo, ev.TrainedNew)
		}
	}
}
