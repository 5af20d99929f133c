// Package serve is driftserve's server: the drift-aware monitor fleet
// behind one tenant router and an HTTP telemetry surface, its tenants
// those of the network ingestion tier (the wire protocol over TCP),
// optionally persisting checkpoints, replicating to hot standbys, or
// running as a hot standby itself.
// cmd/driftserve is flag parsing over New, Start and Shutdown;
// DESIGN.md §17 has the lifecycle, the capture rule and the health
// schema.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"videodrift"
	"videodrift/internal/core"
	"videodrift/internal/dataset"
	"videodrift/internal/ingest"
	"videodrift/internal/modelset"
	"videodrift/internal/query"
	"videodrift/internal/replica"
	"videodrift/internal/telemetry"
)

// buildEnv provisions the models the selector reads; a variable so the
// package's tests provision once for all the servers they start.
var buildEnv = modelset.Build

// beforeProcess runs before each frame a deployed fleet's worker
// processes: nil in the product, a variable so a test can wedge a worker.
var beforeProcess func(shard, frame int)

// fleet is the live serving state: the monitor fleet, its tenant router,
// and the wire server with its -ingest-addr listener. A standby has none.
// boot is the frames the fleet had processed when it was deployed —
// nonzero after a warm restart or a promotion.
type fleet struct {
	mon    *videodrift.ShardedMonitor
	router *ingest.Router
	isrv   *ingest.Server
	iln    net.Listener
	boot   int64
}

// frames is what the fleet has processed in all, over every life its
// state went through.
func (f *fleet) frames() int64 { return f.boot + f.router.Stats().Processed }

// Server is one driftserve process's worth of state. Build it with New
// (which provisions the models), bring it up with Start, stop it with
// Shutdown.
type Server struct {
	cfg  Config
	sel  core.SelectorKind
	env  *modelset.Set
	st   *videodrift.CheckpointStore // -state-dir, nil when off
	boot *videodrift.Checkpoint      // the warm-restart checkpoint, nil on a cold start
	// base is the tracer a request without ?shard= or ?tenant= reads: the
	// fleet's own, which carries the replication events.
	base *telemetry.Tracer

	// flt is published through an atomic pointer because a standby
	// installs its fleet at promotion, with requests in flight.
	flt        atomic.Pointer[fleet]
	promoteErr atomic.Value // string: why a promotion could not build its fleet

	prim        *replica.Primary
	fencedEpoch atomic.Uint64
	sb          *replica.Standby

	lastCkpt atomic.Int64 // unix-nanos of the last save (of boot, before the first)
	// framesAtSave is touched by the checkpoint scheduler and, once that
	// has exited, by Shutdown.
	framesAtSave int64

	hsrv     *http.Server
	hln, rln net.Listener
	// stop ends every goroutine in run (checkpoint scheduler, replication
	// loop, standby probe); the accept loops in serving end when Shutdown
	// closes their listeners.
	stop    chan struct{}
	run     sync.WaitGroup
	serving sync.WaitGroup
}

// New validates cfg and builds the server's state: the dataset, the
// warm-restart checkpoint if -state-dir holds one, and otherwise the
// provisioned models (seconds of training; a standby skips it, its
// models arrive over the replication stream). Nothing listens or runs
// until Start.
func New(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, stop: make(chan struct{}), framesAtSave: -1}
	s.sel, _ = modelset.ParseSelector(cfg.Selector) // Validate has checked it
	ds, err := dataset.ByName(cfg.Dataset, cfg.Scale)
	if err != nil {
		return nil, err
	}
	// With -state-dir, try a warm restart from the newest intact
	// checkpoint before paying for provisioning. LoadLatest already skips
	// damaged generations; if every generation is damaged we cold-start
	// rather than refuse to serve.
	if cfg.StateDir != "" {
		if s.st, err = videodrift.OpenStore(cfg.StateDir); err != nil {
			return nil, fmt.Errorf("opening state dir: %w", err)
		}
		cp, path, err := s.st.LoadLatest()
		switch {
		case err == nil:
			fmt.Fprintf(os.Stderr, "warm restart from %s: frame %d, %d models, %d shards\n",
				path, cp.Frames, len(cp.Entries), len(cp.Shards))
			s.boot = cp
		case !errors.Is(err, videodrift.ErrNoCheckpoint):
			log.Printf("no usable checkpoint (%v); cold-starting", err)
		}
	}
	mcfg := modelset.DefaultConfig()
	mcfg.TrainFrames = cfg.Train
	if s.boot != nil || cfg.StandbyOf != "" {
		s.env = modelset.Shell(ds, mcfg, query.Count)
	} else {
		// Nothing may reach stderr between this line and the end of
		// provisioning: the benchmark times provisioning from that gap.
		what := "msbo: with MSBO ensembles"
		if s.sel == core.SelectorMSBI {
			what = "msbi: no MSBO ensembles"
		}
		fmt.Fprintf(os.Stderr, "provisioning %d models for %s (%d training frames each, %s)...\n",
			len(ds.Sequences), ds.Name, mcfg.TrainFrames, what)
		s.env = buildEnv(ds, mcfg, query.Count, s.sel)
	}
	s.base = s.newTracer()
	s.lastCkpt.Store(time.Now().UnixNano()) // freshness clock starts at boot
	return s, nil
}

func (s *Server) newTracer() *telemetry.Tracer {
	return telemetry.New(telemetry.Config{RingSize: s.cfg.Ring, PerFrame: s.cfg.PerFrame})
}

// Start brings the server up in the order a client may depend on: the
// fleet and its ingest listener (not on a standby), the
// checkpoint scheduler, the replication primary, the standby's
// replication listener and health probe, and last the HTTP listener — so
// a /healthz that answers means everything before it is up. On an error
// nothing is left running.
func (s *Server) Start() (err error) {
	defer func() {
		if err != nil {
			s.halt(false)
		}
	}()
	if s.cfg.StandbyOf == "" {
		if err := s.deploy(s.boot); err != nil {
			return err
		}
	}
	if s.st != nil {
		s.every(s.cfg.CheckpointEvery, func() bool {
			s.saveCheckpoint("interval")
			return false
		})
	}
	if s.cfg.ReplicateTo != "" {
		s.startPrimary()
	}
	if s.cfg.StandbyOf != "" {
		if err := s.startStandby(); err != nil {
			return err
		}
	}
	if s.hln, err = net.Listen("tcp", s.cfg.Addr); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "serving telemetry on %s (endpoints: /metrics /snapshot /events /healthz /debug/pprof/)\n", s.hln.Addr())
	s.hsrv = &http.Server{Handler: s.handler()}
	s.accept("http serve", func() error { return s.hsrv.Serve(s.hln) })
	return nil
}

// HealthURL is the /healthz URL of the server at addr: host:port or a
// URL, with or without the /healthz path.
func HealthURL(addr string) string {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimSuffix(strings.TrimSuffix(addr, "/"), "/healthz") + "/healthz"
}

// Addr, IngestAddr and ReplicaAddr return the bound HTTP, ingestion and
// replication addresses ("" while that listener is not open), so a
// configuration may name port 0.
func (s *Server) Addr() string { return addrOf(s.hln) }

func (s *Server) IngestAddr() string {
	if f := s.flt.Load(); f != nil {
		return addrOf(f.iln)
	}
	return ""
}

func (s *Server) ReplicaAddr() string { return addrOf(s.rln) }

func addrOf(ln net.Listener) string {
	if ln == nil {
		return ""
	}
	return ln.Addr().String()
}

// deploy builds the fleet and its router and opens the ingest listener,
// whose connections feed the fleet: at boot from the provisioned models
// (cp nil) or the warm-restart checkpoint, at promotion from the
// replicated one. A resumed fleet's router takes the checkpoint's tenants
// over — martingale, forensics ring, collection in progress and stream
// position — and tenants it lacks join mid-stream.
func (s *Server) deploy(cp *videodrift.Checkpoint) error {
	pcfg := s.env.PipelineConfig(s.sel)
	opts := videodrift.ShardedOptions{
		Options: videodrift.Options{
			// Keep the model set's recovery-path provisioning (fewer
			// epochs, smaller ensemble) rather than the registry defaults.
			Provision: pcfg.Provision,
			Pipeline:  pcfg,
			Tracer:    s.base,
			Forensics: videodrift.ForensicsConfig{Enabled: s.cfg.Forensics},
		},
		Workers:       s.cfg.Workers,
		StallTimeout:  s.cfg.StallTimeout,
		BeforeProcess: beforeProcess,
	}
	models, shards := s.env.Registry.Entries(), 0
	if cp != nil {
		models, shards = cp.Entries, len(cp.Shards)
	}
	// Checked here, not at a tenant's first frame: the pipelines are only
	// built when tenants attach.
	if err := core.CheckSelector(s.sel, models); err != nil {
		return fmt.Errorf("-selector msbo cannot continue this state: its models were provisioned under -selector msbi, which trains no MSBO ensembles; run with -selector msbi (%w)", err)
	}
	f := &fleet{}
	if cp == nil {
		f.mon = videodrift.NewDynamicSharded(models, s.env.Labeler(), opts)
	} else {
		for k, sh := range cp.Shards {
			if sh.Tenant == "" {
				return fmt.Errorf("checkpoint shard %d has no tenant: a server resumes only the tenants its router attached", k)
			}
			opts.Tracers = append(opts.Tracers, s.newTracer())
		}
		var err error
		if f.mon, err = videodrift.ResumeSharded(cp, s.env.Labeler(), opts); err != nil {
			return fmt.Errorf("resuming fleet: %w", err)
		}
	}
	f.boot = int64(f.mon.Stats().Frames)
	f.router = ingest.NewRouter(f.mon, ingest.Config{
		MaxTenants:    max(s.cfg.MaxTenants, shards),
		QueueCap:      s.cfg.TenantQueue,
		BatchSize:     s.cfg.Batch,
		IdleEvict:     s.cfg.IdleEvict,
		ResumeStreams: cp != nil,
		NewTracer:     func(string) *telemetry.Tracer { return s.newTracer() },
	})
	f.isrv = ingest.NewServer(f.router, ingest.ServerConfig{Logf: log.Printf})
	var err error
	if f.iln, err = net.Listen("tcp", s.cfg.IngestAddr); err != nil {
		return fmt.Errorf("ingest listen: %w", err)
	}
	fmt.Fprintf(os.Stderr, "ingesting frames on %s (wire protocol over TCP)\n", f.iln.Addr())
	s.flt.Store(f)
	s.accept("ingest serve", func() error { return f.isrv.Serve(f.iln) })
	return nil
}

// every runs f on each tick of period, on a goroutine of its own, until
// f reports it is done or the server stops.
func (s *Server) every(period time.Duration, f func() (done bool)) {
	s.run.Add(1)
	go func() {
		defer s.run.Done()
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				if f() {
					return
				}
			}
		}
	}()
}

// accept runs one listener's accept loop, on a goroutine of its own,
// until Shutdown closes the listener.
func (s *Server) accept(what string, serve func() error) {
	s.serving.Add(1)
	go func() {
		defer s.serving.Done()
		if err := serve(); err != nil && !errors.Is(err, net.ErrClosed) && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("%s: %v", what, err)
		}
	}()
}

// saveCheckpoint captures the fleet and writes it to the state
// directory — unless no frame arrived since the last save, which then
// still holds the fleet's state and counts as fresh. A failed write never
// loses state — the store's atomic temp+rename leaves the previous
// generation intact — so it is retried with capped backoff. Saves and
// failed attempts are the process's events, not a tenant's: they go to
// the base tracer, beside the replication events.
func (s *Server) saveCheckpoint(reason string) {
	f := s.flt.Load()
	n := f.frames()
	if n == s.framesAtSave {
		s.lastCkpt.Store(time.Now().UnixNano())
		return
	}
	start := time.Now()
	cp := f.mon.Checkpoint()
	if s.prim != nil {
		// A warm restart of a replicating primary must resume the same
		// fencing epoch (and generation counter) it streamed under.
		cp.Gen, cp.Epoch = s.prim.Gen(), s.prim.Epoch()
	}
	retry := defaultRetry()
	var path string
	err := retry.Do(func() (serr error) {
		path, serr = s.st.Save(cp)
		return serr
	}, func(attempt int, serr error) {
		log.Printf("checkpoint (%s) attempt %d: %v", reason, attempt, serr)
		s.base.CheckpointFailed(attempt, serr.Error())
	})
	if err != nil {
		log.Printf("checkpoint (%s): giving up after %d attempts: %v", reason, retry.Attempts, err)
		return
	}
	d := time.Since(start)
	s.lastCkpt.Store(time.Now().UnixNano())
	s.framesAtSave = n
	size := 0
	if fi, err := os.Stat(path); err == nil {
		size = int(fi.Size())
	}
	s.base.CheckpointSaved(path, size, d)
	if s.cfg.Verbose {
		fmt.Fprintf(os.Stderr, "checkpoint (%s): %s, %d bytes in %v\n", reason, path, size, d)
	}
}

// startPrimary makes this process a replication primary: capture a
// generation every -replicate-every and stream it (delta where
// possible) to each standby, under a fencing epoch resumed from the
// warm-restart checkpoint when there is one. The capture is the fleet's
// own Checkpoint: it waits for the batch in flight itself, so there is
// nothing to coordinate with the feed.
func (s *Server) startPrimary() {
	epoch := uint64(1)
	if s.boot != nil {
		epoch = max(epoch, s.boot.Epoch)
	}
	addrs := strings.FieldsFunc(s.cfg.ReplicateTo, func(r rune) bool { return r == ',' || r == ' ' })
	s.prim = replica.NewPrimary(replica.PrimaryConfig{
		Addrs:    addrs,
		Epoch:    epoch,
		Capture:  s.flt.Load().mon.Checkpoint,
		Interval: s.cfg.ReplicateEvery,
		Tracer:   s.base,
		Logf:     log.Printf,
		OnFenced: s.fencedEpoch.Store,
	})
	fmt.Fprintf(os.Stderr, "replicating to %s every %v (fencing epoch %d)\n",
		strings.Join(addrs, ", "), s.cfg.ReplicateEvery, epoch)
	s.run.Add(1)
	go func() {
		defer s.run.Done()
		s.prim.Run(s.stop)
	}()
}

// startStandby makes this process a hot standby: accept the primary's
// replication stream into a warm checkpoint, health-probe the primary
// every -probe-every, and promote once it has been unreachable
// -probe-fails times in a row. Any HTTP answer — even 503 — proves the
// primary is alive: promotion is for a dead peer, not a degraded one (a
// degraded primary still owns its stream).
func (s *Server) startStandby() error {
	s.sb = replica.NewStandby(replica.StandbyConfig{Tracer: s.base, Logf: log.Printf})
	var err error
	if s.rln, err = net.Listen("tcp", s.cfg.ReplicaAddr); err != nil {
		return fmt.Errorf("replica listen: %w", err)
	}
	fmt.Fprintf(os.Stderr, "standby of %s: accepting replication on %s\n", s.cfg.StandbyOf, s.rln.Addr())
	s.accept("replica serve", func() error { return s.sb.Serve(s.rln) })

	url := HealthURL(s.cfg.StandbyOf)
	client := &http.Client{Timeout: s.cfg.ProbeEvery}
	fails := 0
	s.every(s.cfg.ProbeEvery, func() bool {
		resp, err := client.Get(url)
		if err == nil {
			resp.Body.Close()
			fails = 0
			return false
		}
		fails++
		// With nothing replicated yet there is nothing to promote.
		if fails < s.cfg.ProbeFails || s.sb.Gen() == 0 {
			return false
		}
		// Promotion is terminal either way: the replication stream is
		// severed and the old primary fenced, so a fleet that cannot be
		// built must be seen (/healthz 503), not retried behind a 200.
		if err := s.promote(fmt.Sprintf("primary unreachable after %d probes", fails)); err != nil {
			log.Printf("promote: %v", err)
			s.promoteErr.Store(err.Error())
		}
		return true
	})
	return nil
}

// promote bumps the fencing epoch past everything seen (any
// reconnecting stale primary is answered with Fenced) and deploys a
// live fleet from the replicated state.
func (s *Server) promote(reason string) error {
	cp, epoch, err := s.sb.Promote(reason)
	if err != nil {
		return err
	}
	log.Printf("promoted to primary at generation %d, epoch %d (%s): %d models, %d shards",
		cp.Gen, epoch, reason, len(cp.Entries), len(cp.Shards))
	return s.deploy(cp)
}

// Shutdown stops the server: the periodic goroutines first; then
// admission and in-place feeding, in the router, so no frame joins a
// queue and no connection pumps after the final drain; then that drain
// and, on a primary, a last generation to the standbys, so they hold the
// exact stopping point; and with -state-dir a final checkpoint. Every
// frame a client was told was accepted is in both. Only then do the
// listeners close, HTTP last: /healthz answers through the flush, so a
// standby's probe does not find the primary gone before its final
// generation has shipped. It returns once every goroutine Start or a
// promotion began has exited — or, if those goroutines and the final
// drain (which waits for a pump in flight on a connection) have not
// finished within stopTimeout, with an error and every goroutine's stack
// on stderr, nothing flushed. Call it once, after a successful Start.
func (s *Server) Shutdown() error { return s.halt(true) }

// halt is Shutdown; without flush it leaves out the drain, the final
// generation and the final checkpoint — what a failed Start needs, and
// the nearest a test in the same process gets to kill -9.
func (s *Server) halt(flush bool) error {
	close(s.stop)
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		s.run.Wait() // a promotion in flight has deployed its fleet by now
		if f := s.flt.Load(); f != nil {
			f.router.StopAdmission()
			if flush {
				if _, err := f.router.Pump(); err != nil {
					log.Printf("ingest pump: %v", err)
				}
			}
		}
	}()
	if !waitStopped(stopped, stopTimeout, os.Stderr) {
		return fmt.Errorf("pump still running after %v (goroutine dump above); exiting without a final flush", stopTimeout)
	}
	f := s.flt.Load()
	if s.prim != nil {
		if flush {
			fmt.Fprintln(os.Stderr, "flushing final generation to standbys...")
			if err := s.prim.Cycle(); err != nil && !errors.Is(err, replica.ErrFenced) {
				log.Printf("replica: final flush: %v", err)
			}
		}
		s.prim.Close()
	}
	if flush && s.st != nil {
		fmt.Fprintf(os.Stderr, "flushing final checkpoint to %s...\n", s.st.Dir())
		s.saveCheckpoint("shutdown")
	}
	if f != nil {
		f.isrv.Close()
	}
	if s.rln != nil {
		s.rln.Close()
		s.sb.Close()
	}
	if s.hsrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), stopTimeout)
		if s.hsrv.Shutdown(ctx) != nil {
			s.hsrv.Close()
		}
		cancel()
	}
	s.serving.Wait()
	return nil
}

// stopTimeout is how long Shutdown waits for the periodic goroutines to
// finish their cycle and the final drain its pump, behind a pump in flight.
// A pump inside a recovery training returns in well under a second; one
// that has not returned in ten is wedged, and a process that waits for it
// ignores SIGTERM for good. A variable so a test can wedge one briefly.
var stopTimeout = 10 * time.Second

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
