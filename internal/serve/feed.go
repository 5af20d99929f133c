package serve

import (
	"fmt"
	"log"
	"net"
	"os"
	"time"

	"videodrift/internal/ingest"
	"videodrift/internal/vidsim"
)

// listenIngest opens the wire tier's listener with -ingest-addr: the
// TCP server accepts tenant streams into the fleet's router.
func (s *Server) listenIngest(f *fleet) error {
	if s.cfg.IngestAddr == "" {
		return nil
	}
	var err error
	if f.iln, err = net.Listen("tcp", s.cfg.IngestAddr); err != nil {
		return fmt.Errorf("ingest listen: %w", err)
	}
	fmt.Fprintf(os.Stderr, "ingesting frames on %s (wire protocol over TCP; HTTP fallback at POST /ingest)\n", f.iln.Addr())
	s.accept("ingest serve", func() error { return f.isrv.Serve(f.iln) })
	return nil
}

// pumped accounts for one Router.Pump.
func (s *Server) pumped(n int, err error) {
	if err != nil {
		log.Printf("ingest pump: %v", err)
	}
	s.processed.Add(int64(n))
}

// selfTenant names the self-feed's stream k; it serves from slot k.
func selfTenant(k int) string { return fmt.Sprintf("self-%d", k) }

// startSelfFeed drives n synthetic streams, without -ingest-addr, as
// in-process tenants of the router until the -frames budget is reached
// or the server stops. The tenants advance in lockstep, one frame each
// per step — every 1/-fps seconds, or back to back when unthrottled, so
// -fps means the same stream rate at any batch size — and every -batch
// steps what they offered is fed. The chaos and lap-seed schedules key
// on each tenant's stream index, so batching never moves a fault or a
// drift.
func (s *Server) startSelfFeed(r *ingest.Router, n int) {
	if s.cfg.IngestAddr != "" {
		return
	}
	// Each tenant loops its own copy of the dataset on an independent
	// lap-seed schedule, so the tenants drift at different times — the
	// realistic multi-camera load — and a fresh seed per lap keeps drifts
	// coming.
	tenants := make([]struct {
		stream     *vidsim.Stream
		lap, index int
	}, n)
	next := func(k int) vidsim.Frame {
		t := &tenants[k]
		for {
			if t.stream != nil {
				if f, ok := t.stream.Next(); ok {
					f.Index = t.index
					t.index++
					return f
				}
				t.lap++
			}
			ds := *s.ds
			ds.Seed += int64(k)*104729 + int64(t.lap)*7907
			t.stream = ds.Stream()
			if s.cfg.Verbose {
				fmt.Fprintf(os.Stderr, "shard %d lap %d: %d frames, ground-truth drifts at %v\n",
					k, t.lap, t.stream.TotalLength(), t.stream.DriftPoints())
			}
		}
	}
	fed := 0 // frames offered across tenants, those of earlier lives included
	for k := range tenants {
		// After a warm restart or a promotion, fast-forward to where the
		// tenant left off: the lap-seed schedule is deterministic, so
		// regenerating and discarding the frames already processed lands
		// the stream on exactly the frame the interrupted run would have
		// fed next.
		for range r.Position(selfTenant(k)) {
			next(k)
			fed++
		}
	}
	steps := 0
	step := func() (done bool) {
		for k := range tenants {
			f := next(k)
			// The chaos schedule holds no drop/dup faults, so Apply yields
			// exactly one (possibly corrupted) frame; the admission gate
			// quarantines the corrupted ones.
			if out := s.inj.Apply(k, f.Index, f); len(out) == 1 {
				f = out[0]
			}
			if !r.Offer(selfTenant(k), f, s.stop).Ack {
				return true // the server is closing
			}
		}
		if steps++; steps%s.cfg.Batch != 0 {
			return false
		}
		if fed += n * s.cfg.Batch; s.cfg.Frames == 0 || fed < s.cfg.Frames {
			r.Feed()
			return false
		}
		// Every frame offered is processed before the stream reports stopped.
		s.pumped(r.Pump())
		fmt.Fprintf(os.Stderr, "frame budget reached (%d); streams stopped, still serving\n", fed)
		s.feedEnded.Store(true)
		return true
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
