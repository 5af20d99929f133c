// Command driftserve runs the drift-aware monitor over a simulated video
// stream while serving live telemetry over HTTP — the operational view
// of the paper's Figure 1: watch the martingale climb, the drift fire,
// the selector resolve and the per-stage latency distribution move, all
// without stopping the stream.
//
// With -shards N it drives N concurrent camera streams over one shared
// set of provisioned models (the multi-camera deployment shape): each
// shard is an independent monitor with its own seed, drift state and
// telemetry tracer, and the expensive read-only state — reference
// feature matrices, calibration scores, classifier weights — is shared.
//
// Endpoints:
//
//	/metrics   Prometheus text-exposition format (counters, gauges,
//	           per-stage latency quantiles); ?shard=k selects a shard
//	/snapshot  the same state as one indented JSON document (?shard=k)
//	/events    the retained structured events (drifts, selections,
//	           trainings, deployments), optionally ?kind=drift_declared,
//	           ?since=<seq> (events with sequence numbers strictly
//	           greater, for incremental polling) and/or ?shard=k
//	/drift/    the drift declarations the forensics recorder retains
//	           (?shard=k): ID, frame, evidence and attribution
//	/drift/<id>  the full forensic report of one declaration — evidence,
//	           attribution ranking, and the bit-identically replayed
//	           martingale trajectory plus selection outcome; 404 when
//	           the ID is unknown or evicted
//	/healthz   liveness plus degradation state: frames-processed
//	           progress, shard count, per-shard health (quarantines,
//	           worker restarts, dropped frames) and checkpoint
//	           freshness. Returns 503 when a shard's crash-loop
//	           breaker has tripped, a worker is wedged past the stall
//	           timeout, or checkpointing is enabled and the last
//	           checkpoint is more than 3 intervals old.
//	/ingest    (ingest mode) the HTTP POST fallback of the wire
//	           protocol: the body is one complete frame message,
//	           verdicts map to 200/400/409/429/503
//	/debug/pprof/…  the standard net/http/pprof profiles
//
// Usage:
//
//	driftserve [-addr :9090] [-dataset bdd|detrac|tokyo|slow] [-scale 0.02]
//	           [-selector msbo|msbi] [-train 300] [-shards 1] [-workers 0]
//	           [-batch 1] [-fps 240] [-frames 0] [-ring 4096] [-perframe] [-v]
//	           [-state-dir dir] [-checkpoint-every 30s]
//	           [-chaos seed] [-stall-timeout 10s]
//	           [-ingest-addr host:port] [-max-tenants 64] [-tenant-queue 256]
//	           [-idle-evict 2m]
//	           [-replicate-to host:port,...] [-replicate-every 1s]
//	           [-replica-faults seed]
//	driftserve -standby-of primaryhost:9090 -replica-addr host:port
//	           [-probe-every 500ms] [-probe-fails 3] [-ingest-addr host:port]
//
// Streams loop forever (a fresh seed per lap keeps drifts coming) unless
// -frames bounds the total; -fps throttles each shard's rate (0 runs
// unthrottled).
//
// With -ingest-addr the synthetic self-feed is replaced by the network
// ingestion tier (internal/ingest): external tenants connect over the
// length-prefixed binary wire protocol (or POST to /ingest), each
// tenant's first frame attaches a shard over the shared models, frames
// flow through per-tenant bounded queues with explicit backpressure
// NACKs, and tenants idle past -idle-evict detach to free their shard.
// /healthz gains a per-tenant "ingest" section and /metrics the
// ingest_* series; `drifttool health <addr>` renders both. Feed it with
// cmd/driftfeed. Ingest mode excludes -state-dir and -chaos. On SIGTERM
// or SIGINT the pump gets ten seconds to finish its batch; if it has not,
// the process writes every goroutine's stack to stderr and exits 1 rather
// than ignore the signal.
//
// With -chaos, a seeded fault schedule is replayed against the run:
// pixel corruption (quarantined at the admission gate), injected worker
// panics (recovered by the supervisor, which restarts the shard from
// its last snapshot) and one injected training failure per shard
// (retried with frame-count backoff while the deployed model keeps
// serving). Only lockstep-preserving faults are generated — no frame
// drops or duplications — so every shard still advances one frame per
// batch. The schedule is replayed relative to process start, so a warm
// restart begins it again from frame zero. Checkpoint writes always go
// through a capped-backoff retry policy; failures are counted in
// telemetry.
//
// With -replicate-to, driftserve is a replication primary: every
// -replicate-every it captures a consistent checkpoint between batches
// and streams it to each listed standby over the internal/replica wire
// protocol — a full snapshot to establish the standby's base, then
// compact CRC-chained deltas while the standby keeps pace, with
// resume-from-generation on reconnect. SIGTERM flushes a final delta
// before exit. Every stream carries the primary's fencing epoch; once
// any standby answers with a newer epoch (it promoted while this
// primary was partitioned), the primary stops replicating permanently
// and /healthz reports 503 "fenced" — the stale side of a split brain
// takes itself out of service.
//
// With -standby-of, driftserve is a hot standby: it skips provisioning,
// accepts the primary's replication stream on -replica-addr into a warm
// in-memory checkpoint, and health-probes the primary's HTTP address.
// After -probe-fails consecutive connection failures it promotes: the
// fencing epoch is bumped past everything seen, a live fleet is built
// from the replicated models and shard states, and the stream resumes
// where the primary's last acknowledged generation left off. With
// -ingest-addr the promoted standby opens the ingestion tier instead
// (failed-over tenants resume mid-stream); until promotion /healthz
// answers 200 "standby". Standby mode excludes -state-dir, -chaos and
// -replicate-to.
//
// With -replica-faults, a seeded fault schedule (torn writes, dropped
// connections) is replayed against the outgoing replication stream —
// the chaos harness for the failover path.
//
// With -state-dir, driftserve periodically persists a full checkpoint —
// every model (weights, reference samples, calibration) plus each
// shard's exact stream position — and flushes a final one on SIGTERM or
// SIGINT. On startup it warm-restarts from the newest intact checkpoint
// in that directory: provisioning is skipped, each shard's stream is
// fast-forwarded to where it left off, and the resumed run emits exactly
// the drift declarations and selections the uninterrupted run would
// have. Damaged checkpoint files (truncation, bit flips, version
// mismatches) are detected by checksum and skipped in favor of the
// previous good generation.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"videodrift"
	"videodrift/internal/core"
	"videodrift/internal/dataset"
	"videodrift/internal/experiments"
	"videodrift/internal/faults"
	"videodrift/internal/ingest"
	"videodrift/internal/query"
	"videodrift/internal/replica"
	"videodrift/internal/telemetry"
	"videodrift/internal/vidsim"
)

// chaosHorizon is the per-shard frame window the -chaos schedule covers;
// faults land within the first chaosHorizon frames of each shard.
const chaosHorizon = 5000

// replicaFaultHorizon is the transmission window the -replica-faults
// schedule covers.
const replicaFaultHorizon = 1000

// fleet bundles the live serving state the HTTP handlers read. It is
// published through an atomic pointer because a standby starts with no
// fleet (mon nil) and installs one at promotion, concurrently with
// requests in flight.
type fleet struct {
	mon     *videodrift.ShardedMonitor
	router  *ingest.Router
	isrv    *ingest.Server
	tracers []*telemetry.Tracer
}

func main() {
	addr := flag.String("addr", ":9090", "HTTP listen address")
	dsName := flag.String("dataset", "bdd", "stream to monitor: bdd, detrac, tokyo, slow")
	scale := flag.Float64("scale", 0.02, "dataset stream scale (1.0 = paper sizes)")
	selector := flag.String("selector", "msbo", "model selector: msbo or msbi")
	train := flag.Int("train", 300, "training frames per provisioned condition")
	shards := flag.Int("shards", 1, "concurrent camera streams over the shared models")
	workers := flag.Int("workers", 0, "goroutines processing shard frames (0 = GOMAXPROCS)")
	batchN := flag.Int("batch", 1, "frames per shard per supervised micro-batch (1 = per-frame supervision)")
	fps := flag.Float64("fps", 240, "per-shard rate limit in frames/second (0 = unthrottled)")
	frames := flag.Int("frames", 0, "stop after this many frames across all shards (0 = loop forever)")
	ring := flag.Int("ring", 4096, "telemetry event-ring capacity per shard")
	perFrame := flag.Bool("perframe", false, "also ring per-frame FrameObserved/MartingaleUpdate events")
	verbose := flag.Bool("v", false, "log drift/selection events to stderr as they happen")
	stateDir := flag.String("state-dir", "", "checkpoint directory for persistence and warm restart (empty = off)")
	ckptEvery := flag.Duration("checkpoint-every", 30*time.Second, "background checkpoint interval (needs -state-dir)")
	chaosSeed := flag.Int64("chaos", 0, "replay a seeded fault schedule: pixel corruption, worker panics, training failures (0 = off)")
	stallTimeout := flag.Duration("stall-timeout", 10*time.Second, "how long a shard may sit on one frame before /healthz reports it stalled")
	forensicsOn := flag.Bool("forensics", true, "record drift declarations with replayable pre-rolls for /drift and checkpoints")
	ingestAddr := flag.String("ingest-addr", "", "TCP listen address for the network ingestion tier; replaces the synthetic self-feed (also serves HTTP POST /ingest)")
	maxTenants := flag.Int("max-tenants", 64, "max concurrently attached ingestion tenants (needs -ingest-addr)")
	tenantQueue := flag.Int("tenant-queue", 256, "per-tenant bounded ingestion queue capacity (needs -ingest-addr)")
	idleEvict := flag.Duration("idle-evict", 2*time.Minute, "detach ingestion tenants idle this long, freeing their shard (0 = never; needs -ingest-addr)")
	replicateTo := flag.String("replicate-to", "", "comma-separated standby replication addresses to stream checkpoints to")
	replicateEvery := flag.Duration("replicate-every", time.Second, "steady-state replication cadence (needs -replicate-to)")
	replicaFaults := flag.Int64("replica-faults", 0, "replay a seeded fault schedule against the outgoing replication stream: torn writes, dropped connections (0 = off; needs -replicate-to)")
	standbyOf := flag.String("standby-of", "", "run as a hot standby of the primary at this HTTP address (health-probed for automatic promotion)")
	replicaAddr := flag.String("replica-addr", "", "TCP listen address for the inbound replication stream (needs -standby-of)")
	probeEvery := flag.Duration("probe-every", 500*time.Millisecond, "primary health-probe interval (needs -standby-of)")
	probeFails := flag.Int("probe-fails", 3, "consecutive failed probes before the standby promotes itself (needs -standby-of)")
	flag.Parse()
	standby := *standbyOf != ""

	// Flag validation: a bad value dies here with a usage error, not as
	// undefined behavior deep in the pipeline.
	usageErr := func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "driftserve: "+format+"\n\n", args...)
		flag.Usage()
		os.Exit(2)
	}
	if *shards < 1 {
		usageErr("-shards must be >= 1, got %d", *shards)
	}
	if *batchN < 1 {
		usageErr("-batch must be >= 1, got %d", *batchN)
	}
	if *ring < 1 {
		usageErr("-ring must be >= 1, got %d", *ring)
	}
	if *fps < 0 || math.IsNaN(*fps) || math.IsInf(*fps, 0) {
		usageErr("-fps must be a finite rate >= 0, got %v", *fps)
	}
	if *frames < 0 {
		usageErr("-frames must be >= 0, got %d", *frames)
	}
	if *train < 1 {
		usageErr("-train must be >= 1, got %d", *train)
	}
	if *ingestAddr != "" {
		if *stateDir != "" {
			usageErr("-state-dir does not combine with -ingest-addr: a dynamic tenant fleet has no warm-restart path yet")
		}
		if *chaosSeed != 0 {
			usageErr("-chaos drives the synthetic self-feed; with -ingest-addr, inject network faults from the driftfeed side")
		}
		if *maxTenants < 1 {
			usageErr("-max-tenants must be >= 1, got %d", *maxTenants)
		}
		if *tenantQueue < 1 {
			usageErr("-tenant-queue must be >= 1, got %d", *tenantQueue)
		}
		if *idleEvict < 0 {
			usageErr("-idle-evict must be >= 0, got %v", *idleEvict)
		}
	}
	if standby {
		if *replicaAddr == "" {
			usageErr("-standby-of needs -replica-addr to accept the primary's replication stream")
		}
		if *replicateTo != "" {
			usageErr("-standby-of and -replicate-to are exclusive: a standby becomes a primary only by promotion")
		}
		if *stateDir != "" {
			usageErr("-state-dir does not combine with -standby-of yet: the standby's state is the replicated stream")
		}
		if *chaosSeed != 0 {
			usageErr("-chaos drives a live fleet; a standby has none until promotion")
		}
		if *probeEvery <= 0 {
			usageErr("-probe-every must be > 0, got %v", *probeEvery)
		}
		if *probeFails < 1 {
			usageErr("-probe-fails must be >= 1, got %d", *probeFails)
		}
	} else if *replicaAddr != "" {
		usageErr("-replica-addr needs -standby-of")
	}
	if *replicateTo != "" && *replicateEvery <= 0 {
		usageErr("-replicate-every must be > 0, got %v", *replicateEvery)
	}
	if *replicaFaults != 0 && *replicateTo == "" {
		usageErr("-replica-faults needs -replicate-to")
	}

	var ds *dataset.Dataset
	switch *dsName {
	case "bdd":
		ds = dataset.BDD(*scale)
	case "detrac":
		ds = dataset.Detrac(*scale)
	case "tokyo":
		ds = dataset.Tokyo(*scale)
	case "slow":
		ds = dataset.SlowDrift(*scale)
	default:
		log.Fatalf("unknown dataset %q", *dsName)
	}
	sel := core.SelectorMSBO
	if *selector == "msbi" {
		sel = core.SelectorMSBI
	}
	cfg := experiments.DefaultConfig()
	cfg.Scale = *scale
	cfg.TrainFrames = *train

	// With -state-dir, try a warm restart from the newest intact
	// checkpoint before paying for provisioning. LoadLatest already skips
	// damaged generations; if every generation is damaged we cold-start
	// rather than refuse to serve.
	var st *videodrift.CheckpointStore
	var cp *videodrift.Checkpoint
	if *stateDir != "" {
		var err error
		st, err = videodrift.OpenStore(*stateDir)
		if err != nil {
			log.Fatalf("opening state dir: %v", err)
		}
		var path string
		cp, path, err = st.LoadLatest()
		switch {
		case err == nil:
			fmt.Fprintf(os.Stderr, "warm restart from %s: frame %d, %d models, %d shards\n",
				path, cp.Frames, len(cp.Entries), len(cp.Shards))
		case errors.Is(err, videodrift.ErrNoCheckpoint):
			cp = nil // cold start, persistence on
		default:
			log.Printf("no usable checkpoint (%v); cold-starting", err)
			cp = nil
		}
	}
	if cp != nil && len(cp.Shards) != *shards {
		log.Printf("checkpoint holds %d shards; overriding -shards %d", len(cp.Shards), *shards)
		*shards = len(cp.Shards)
	}

	var env *experiments.Env
	if cp != nil || standby {
		// A standby's models arrive over the replication stream; a warm
		// restart's come off disk. Either way, skip provisioning.
		env = experiments.BuildEnvShell(ds, cfg, query.Count)
	} else {
		fmt.Fprintf(os.Stderr, "provisioning %d models for %s (%d training frames each)...\n",
			len(ds.Sequences), ds.Name, cfg.TrainFrames)
		env = experiments.BuildEnv(ds, cfg, query.Count)
	}

	// One tracer per shard so each stream's drift history and latency
	// distribution stay separable; shard 0 is the default view. In
	// ingest mode slots appear dynamically, so there is one base tracer
	// and every tenant gets its own at attach time.
	nTracers := *shards
	if *ingestAddr != "" || standby {
		nTracers = 1
	}
	tracers := make([]*telemetry.Tracer, nTracers)
	for i := range tracers {
		tracers[i] = telemetry.New(telemetry.Config{RingSize: *ring, PerFrame: *perFrame})
	}
	// With -chaos, generate a lockstep-preserving fault schedule (no
	// drops or duplications: every shard must keep advancing one frame
	// per batch) and replay it deterministically against the run.
	var inj *faults.Injector
	if *chaosSeed != 0 {
		sched := faults.Generate(*chaosSeed, faults.GenConfig{
			Shards: *shards, Frames: chaosHorizon,
			CorruptRate:   0.002,
			Panics:        *shards,
			TrainFailures: 1,
		})
		inj = faults.NewInjector(sched)
		fmt.Fprintf(os.Stderr, "chaos seed %d: %d scheduled faults over the first %d frames/shard\n",
			*chaosSeed, len(sched.Faults), chaosHorizon)
	}

	pcfg := env.PipelineConfig(sel)
	sopts := videodrift.ShardedOptions{
		Options: videodrift.Options{
			// Keep the experiment env's recovery-path provisioning (fewer
			// epochs, smaller ensemble) rather than the registry defaults.
			Provision: pcfg.Provision,
			Pipeline:  pcfg,
			Forensics: videodrift.ForensicsConfig{Enabled: *forensicsOn},
		},
		Shards:       *shards,
		Workers:      *workers,
		Tracers:      tracers,
		Faults:       inj,
		StallTimeout: *stallTimeout,
	}
	var processed atomic.Int64
	var done atomic.Bool

	// The checkpoint scheduler (and the replication primary) may not
	// touch the monitor while a batch is in flight; they ask the stream
	// loop for a snapshot through ckptReq and the loop answers between
	// batches (the ingest pump answers the same way between pumps). Once
	// the loop exits, streamDone unblocks direct captures.
	ckptReq := make(chan chan *videodrift.Checkpoint)
	streamDone := make(chan struct{})

	// shutdown is closed once on SIGTERM/SIGINT; every periodic
	// goroutine (ingest pump, checkpoint scheduler, replication loop,
	// standby probe) selects on it so the process stops pumping before
	// it flushes the final checkpoint.
	shutdown := make(chan struct{})
	pumpDone := make(chan struct{})

	// startIngest opens the network ingestion tier over a fleet: the TCP
	// wire server accepts tenant streams, the router queues them with
	// backpressure, and a pump goroutine drains the queues through the
	// fleet on a steady cadence. resume marks a promoted standby, whose
	// tenants fail over mid-stream. Runs at boot or at promotion.
	startIngest := func(mon *videodrift.ShardedMonitor, resume bool) (*ingest.Router, *ingest.Server) {
		router := ingest.NewRouter(mon, ingest.Config{
			MaxTenants:    *maxTenants,
			QueueCap:      *tenantQueue,
			BatchSize:     *batchN,
			IdleEvict:     *idleEvict,
			ResumeStreams: resume,
			NewTracer: func(tenant string) *telemetry.Tracer {
				return telemetry.New(telemetry.Config{RingSize: *ring, PerFrame: *perFrame})
			},
		})
		isrv := ingest.NewServer(router, ingest.ServerConfig{Logf: log.Printf})
		ln, err := net.Listen("tcp", *ingestAddr)
		if err != nil {
			log.Fatalf("ingest listen: %v", err)
		}
		fmt.Fprintf(os.Stderr, "ingesting frames on %s (wire protocol over TCP; HTTP fallback at POST /ingest)\n", ln.Addr())
		go func() {
			if err := isrv.Serve(ln); err != nil && !errors.Is(err, net.ErrClosed) {
				log.Fatalf("ingest serve: %v", err)
			}
		}()
		go func() {
			defer close(pumpDone)
			tick := time.NewTicker(2 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-shutdown:
					return
				case reply := <-ckptReq:
					// Between pumps the fleet is quiescent: a consistent
					// capture point for the replication primary.
					reply <- mon.Checkpoint()
				case <-tick.C:
					n, err := router.Pump()
					if err != nil {
						log.Printf("ingest pump: %v", err)
					}
					processed.Add(int64(n))
				}
			}
		}()
		return router, isrv
	}

	// startSelfFeed drives the classic synthetic self-feed over a fleet.
	// Runs at boot or at promotion; the warm-restart fast-forward below
	// also lands a promoted standby's streams on the right frame.
	startSelfFeed := func(mon *videodrift.ShardedMonitor) {
		nshards := mon.Shards()
		go func() {
			defer close(streamDone)
			defer done.Store(true)
			var throttle *time.Ticker
			if *fps > 0 {
				throttle = time.NewTicker(time.Duration(float64(time.Second) / *fps))
				defer throttle.Stop()
			}
			// Each shard loops its own copy of the dataset on an independent
			// lap-seed schedule, so the shards drift at different times — the
			// realistic multi-camera load. All shards advance in lockstep, one
			// frame per shard per batch.
			streams := make([]*vidsim.Stream, nshards)
			laps := make([]int, nshards)
			newStream := func(s, lap int) *vidsim.Stream {
				lapDS := *ds
				lapDS.Seed = ds.Seed + int64(s)*104729 + int64(lap)*7907
				stream := lapDS.Stream()
				if *verbose {
					fmt.Fprintf(os.Stderr, "shard %d lap %d: %d frames, ground-truth drifts at %v\n",
						s, lap, stream.TotalLength(), stream.DriftPoints())
				}
				return stream
			}
			for s := range streams {
				streams[s] = newStream(s, 0)
				// After a warm restart, fast-forward to where the shard left
				// off: the lap-seed schedule is deterministic, so regenerating
				// and discarding the already-processed frames lands the stream
				// on exactly the frame the interrupted run would have seen next.
				for skip := mon.Shard(s).Stats().Frames; skip > 0; skip-- {
					if _, ok := streams[s].Next(); !ok {
						laps[s]++
						streams[s] = newStream(s, laps[s])
						skip++ // this iteration consumed no frame
					}
				}
			}
			// Frames accumulate into per-shard micro-batches of -batch frames
			// and reach the supervisor in one ProcessBatches call; -batch 1 is
			// the classic lockstep one-frame-per-shard cadence. The chaos and
			// lap-seed schedules key on the per-shard stream index, so batching
			// never moves a fault or a drift.
			batches := make([][]vidsim.Frame, nshards)
			for step := 0; ; {
				select {
				case reply := <-ckptReq:
					reply <- mon.Checkpoint()
				default:
				}
				for s := range batches {
					batches[s] = batches[s][:0]
				}
				for b := 0; b < *batchN; b++ {
					for s := range streams {
						f, ok := streams[s].Next()
						for !ok {
							laps[s]++
							streams[s] = newStream(s, laps[s])
							f, ok = streams[s].Next()
						}
						// The chaos schedule holds no drop/dup faults, so Apply
						// yields exactly one (possibly corrupted) frame; the
						// admission gate quarantines the corrupted ones.
						if out := inj.Apply(s, step, f); len(out) == 1 {
							f = out[0]
						}
						batches[s] = append(batches[s], f)
					}
					step++
					// Tick per frame-per-shard, not per flush, so -fps means the
					// same stream rate at any batch size.
					if throttle != nil && b < *batchN-1 {
						<-throttle.C
					}
				}
				events, err := mon.ProcessBatches(batches)
				if err != nil {
					// The self-feed drives a fixed fleet; a shape mismatch here
					// is a bug, not an operational condition.
					log.Fatalf("processing batches: %v", err)
				}
				total := 0
				for s, evs := range events {
					total += len(evs)
					if *verbose {
						for j, out := range evs {
							at := step - len(evs) + j
							if out.Drift {
								fmt.Fprintf(os.Stderr, "shard %d frame %d [%s]: drift declared\n", s, at, batches[s][j].Condition)
							}
							if out.SwitchedTo != "" {
								fmt.Fprintf(os.Stderr, "shard %d frame %d [%s]: deployed %q (trained=%v)\n",
									s, at, batches[s][j].Condition, out.SwitchedTo, out.TrainedNew)
							}
						}
					}
				}
				n := processed.Add(int64(total))
				if *frames > 0 && n >= int64(*frames) {
					fmt.Fprintf(os.Stderr, "frame budget reached (%d); streams stopped, still serving\n", n)
					return
				}
				if throttle != nil {
					<-throttle.C
				}
			}
		}()
	}

	// Build the live fleet — except in standby mode, where the fleet
	// appears at promotion from the replicated checkpoint.
	var flt atomic.Pointer[fleet]
	if standby {
		flt.Store(&fleet{tracers: tracers})
	} else {
		var mon *videodrift.ShardedMonitor
		switch {
		case *ingestAddr != "":
			// The ingestion tier owns the tenant↔slot lifecycle: the fleet
			// starts empty and shards attach on each tenant's first frame.
			sopts.Shards = 0
			sopts.Tracers = nil
			sopts.Options.Tracer = tracers[0]
			mon = videodrift.NewDynamicSharded(env.Registry.Entries(), env.Labeler(), sopts)
		case cp != nil:
			var err error
			mon, err = videodrift.ResumeSharded(cp, env.Labeler(), sopts)
			if err != nil {
				log.Fatalf("resuming from checkpoint: %v", err)
			}
		default:
			mon = videodrift.NewShardedMonitor(env.Registry.Entries(), env.Labeler(), sopts)
		}
		processed.Store(int64(mon.Stats().Frames)) // nonzero after a warm restart
		f := &fleet{mon: mon, tracers: tracers}
		if *ingestAddr != "" {
			f.router, f.isrv = startIngest(mon, false)
		} else {
			startSelfFeed(mon)
		}
		flt.Store(f)
	}

	// capture obtains a consistent checkpoint: through the stream loop's
	// handshake while it is running, directly once it has exited.
	capture := func() *videodrift.Checkpoint {
		f := flt.Load()
		if f.mon == nil {
			return nil
		}
		reply := make(chan *videodrift.Checkpoint, 1)
		select {
		case ckptReq <- reply:
			return <-reply
		case <-streamDone:
			return f.mon.Checkpoint()
		}
	}

	// The replication primary, wired below once capture-dependent state
	// exists; declared here so saveCheckpoint stamps its generation and
	// fencing epoch on persisted checkpoints.
	var prim *replica.Primary
	var primDone chan struct{}
	var fencedEpoch atomic.Uint64

	var lastCkpt atomic.Int64
	lastCkpt.Store(time.Now().UnixNano()) // freshness clock starts at boot
	var saveMu sync.Mutex
	var framesAtSave atomic.Int64
	framesAtSave.Store(-1)
	retry := faults.DefaultRetry()
	saveCheckpoint := func(reason string) {
		saveMu.Lock()
		defer saveMu.Unlock()
		n := processed.Load()
		if n == framesAtSave.Load() {
			return // nothing happened since the last save
		}
		start := time.Now()
		cp := capture()
		if cp == nil {
			return
		}
		if prim != nil {
			// A warm restart of a replicating primary must resume the same
			// fencing epoch (and generation counter) it streamed under.
			cp.Gen, cp.Epoch = prim.Gen(), prim.Epoch()
		}
		var path string
		// A failed write never loses state: the store's atomic
		// temp+rename leaves the previous generation intact, so retrying
		// with capped backoff is always safe.
		err := retry.Do(func() error {
			var serr error
			path, serr = st.Save(cp)
			return serr
		}, func(attempt int, serr error) {
			log.Printf("checkpoint (%s) attempt %d: %v", reason, attempt, serr)
			for _, tr := range tracers {
				tr.CheckpointFailed(attempt, serr.Error())
			}
		})
		if err != nil {
			log.Printf("checkpoint (%s): giving up after %d attempts: %v", reason, retry.Attempts, err)
			return
		}
		d := time.Since(start)
		lastCkpt.Store(time.Now().UnixNano())
		framesAtSave.Store(n)
		size := 0
		if fi, err := os.Stat(path); err == nil {
			size = int(fi.Size())
		}
		for _, tr := range tracers {
			tr.CheckpointSaved(path, size, d)
		}
		if *verbose {
			fmt.Fprintf(os.Stderr, "checkpoint (%s): %s, %d bytes in %v\n", reason, path, size, d)
		}
	}
	if st != nil {
		go func() {
			tick := time.NewTicker(*ckptEvery)
			defer tick.Stop()
			for {
				select {
				case <-shutdown:
					return
				case <-tick.C:
					saveCheckpoint("interval")
				}
			}
		}()
	}

	// With -replicate-to, this process is a replication primary: capture
	// a generation every -replicate-every and stream it (delta where
	// possible) to each standby, under a fencing epoch resumed from the
	// warm-restart checkpoint when there is one.
	if *replicateTo != "" {
		epoch := uint64(1)
		if cp != nil && cp.Epoch > epoch {
			epoch = cp.Epoch
		}
		var addrs []string
		for _, a := range strings.Split(*replicateTo, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		rcfg := replica.PrimaryConfig{
			Addrs:    addrs,
			Epoch:    epoch,
			Capture:  capture,
			Interval: *replicateEvery,
			Tracer:   tracers[0],
			Logf:     log.Printf,
			OnFenced: func(e uint64) { fencedEpoch.Store(e) },
		}
		if *replicaFaults != 0 {
			sched := faults.GenerateReplica(*replicaFaults, replicaFaultHorizon, 0.05, 0.02)
			rinj := faults.NewReplicaInjector(sched)
			rcfg.TxFault = rinj.Tx
			fmt.Fprintf(os.Stderr, "replica faults seed %d: %d scheduled over the first %d transmissions\n",
				*replicaFaults, len(sched.Faults), replicaFaultHorizon)
		}
		prim = replica.NewPrimary(rcfg)
		primDone = make(chan struct{})
		fmt.Fprintf(os.Stderr, "replicating to %s every %v (fencing epoch %d)\n",
			strings.Join(addrs, ", "), *replicateEvery, epoch)
		go func() {
			prim.Run(shutdown)
			close(primDone)
		}()
	}

	// With -standby-of, this process is a hot standby: accept the
	// primary's replication stream into a warm checkpoint and probe the
	// primary's health, promoting after -probe-fails consecutive
	// connection failures. Promotion is terminal: the fencing epoch is
	// bumped, a live fleet is built from the replicated state, and any
	// reconnecting stale primary is answered with Fenced.
	var sb *replica.Standby
	var rln net.Listener
	if standby {
		sb = replica.NewStandby(replica.StandbyConfig{
			Tracer: tracers[0],
			Logf:   log.Printf,
		})
		var err error
		rln, err = net.Listen("tcp", *replicaAddr)
		if err != nil {
			log.Fatalf("replica listen: %v", err)
		}
		fmt.Fprintf(os.Stderr, "standby of %s: accepting replication on %s\n", *standbyOf, rln.Addr())
		go func() {
			if err := sb.Serve(rln); err != nil {
				log.Printf("replica serve: %v", err)
			}
		}()

		promote := func(reason string) {
			pcp, epoch, err := sb.Promote(reason)
			if err != nil {
				log.Printf("promote: %v", err)
				return
			}
			log.Printf("promoted to primary at generation %d, epoch %d (%s): %d models, %d shards",
				pcp.Gen, epoch, reason, len(pcp.Entries), len(pcp.Shards))
			if *ingestAddr != "" {
				// Serve failed-over tenants: a dynamic fleet over the
				// replicated models, with mid-stream sequence adoption.
				iopts := sopts
				iopts.Shards = 0
				iopts.Tracers = nil
				iopts.Options.Tracer = tracers[0]
				mon := videodrift.NewDynamicSharded(pcp.Entries, env.Labeler(), iopts)
				f := &fleet{mon: mon, tracers: tracers}
				f.router, f.isrv = startIngest(mon, true)
				flt.Store(f)
				return
			}
			// Resume the synthetic self-feed exactly where the replicated
			// state left off, one tracer per shard (the standby's tracer
			// keeps shard 0 so the replication history stays visible).
			ropts := sopts
			ropts.Shards = len(pcp.Shards)
			rtr := make([]*telemetry.Tracer, len(pcp.Shards))
			rtr[0] = tracers[0]
			for i := 1; i < len(rtr); i++ {
				rtr[i] = telemetry.New(telemetry.Config{RingSize: *ring, PerFrame: *perFrame})
			}
			ropts.Tracers = rtr
			mon, err := videodrift.ResumeSharded(pcp, env.Labeler(), ropts)
			if err != nil {
				log.Printf("promote: resuming fleet: %v", err)
				return
			}
			processed.Store(int64(mon.Stats().Frames))
			flt.Store(&fleet{mon: mon, tracers: rtr})
			startSelfFeed(mon)
		}

		go func() {
			probeURL := *standbyOf
			if !strings.Contains(probeURL, "://") {
				probeURL = "http://" + probeURL
			}
			probeURL = strings.TrimSuffix(probeURL, "/") + "/healthz"
			client := &http.Client{Timeout: *probeEvery}
			tick := time.NewTicker(*probeEvery)
			defer tick.Stop()
			fails := 0
			for {
				select {
				case <-shutdown:
					return
				case <-tick.C:
					resp, err := client.Get(probeURL)
					if err == nil {
						// Any HTTP answer — even 503 — proves the primary is
						// alive; promotion is for a dead peer, not a degraded
						// one (a degraded primary still owns its stream).
						resp.Body.Close()
						fails = 0
						continue
					}
					fails++
					if fails < *probeFails {
						continue
					}
					if sb.Gen() == 0 {
						// Nothing replicated yet: nothing to promote.
						continue
					}
					promote(fmt.Sprintf("primary unreachable after %d probes", fails))
					return
				}
			}
		}()
	}

	// shardTracer resolves the ?shard=k query parameter (default 0)
	// against the live fleet's tracers (which a promotion may replace).
	shardTracer := func(w http.ResponseWriter, r *http.Request) *telemetry.Tracer {
		trs := flt.Load().tracers
		q := r.URL.Query().Get("shard")
		if q == "" {
			return trs[0]
		}
		k, err := strconv.Atoi(q)
		if err != nil || k < 0 || k >= len(trs) {
			http.Error(w, fmt.Sprintf("shard must be in [0,%d)", len(trs)), http.StatusBadRequest)
			return nil
		}
		return trs[k]
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		tr := shardTracer(w, r)
		if tr == nil {
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := tr.WritePrometheusTo(w); err != nil {
			log.Printf("/metrics: %v", err)
		}
		if router := flt.Load().router; router != nil {
			if err := router.WritePrometheus(w); err != nil {
				log.Printf("/metrics (ingest): %v", err)
			}
		}
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, r *http.Request) {
		tr := shardTracer(w, r)
		if tr == nil {
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := tr.WriteJSONTo(w); err != nil {
			log.Printf("/snapshot: %v", err)
		}
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		tr := shardTracer(w, r)
		if tr == nil {
			return
		}
		events := tr.Events()
		if kind := r.URL.Query().Get("kind"); kind != "" {
			filtered := events[:0:0]
			for _, e := range events {
				if e.Kind.String() == kind {
					filtered = append(filtered, e)
				}
			}
			events = filtered
		}
		if sinceQ := r.URL.Query().Get("since"); sinceQ != "" {
			since, err := strconv.ParseUint(sinceQ, 10, 64)
			if err != nil {
				http.Error(w, "since must be an event sequence number", http.StatusBadRequest)
				return
			}
			// Events ring oldest-first with monotonic Seq; serve only what
			// the poller has not seen yet.
			filtered := events[:0:0]
			for _, e := range events {
				if e.Seq > since {
					filtered = append(filtered, e)
				}
			}
			events = filtered
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(map[string]interface{}{"events": events}); err != nil {
			log.Printf("/events: %v", err)
		}
	})
	// shardMonitor resolves ?shard=k to the shard's Monitor (default 0)
	// for the forensic endpoints; reads on a Monitor's recorder and
	// registry are safe while batches run.
	shardMonitor := func(w http.ResponseWriter, r *http.Request) *videodrift.Monitor {
		mon := flt.Load().mon
		if mon == nil {
			http.Error(w, "standby: no fleet until promotion", http.StatusServiceUnavailable)
			return nil
		}
		k := 0
		if q := r.URL.Query().Get("shard"); q != "" {
			var err error
			if k, err = strconv.Atoi(q); err != nil {
				http.Error(w, "shard must be an integer", http.StatusBadRequest)
				return nil
			}
		}
		if k < 0 || k >= mon.Shards() {
			http.Error(w, fmt.Sprintf("shard must be in [0,%d)", mon.Shards()), http.StatusBadRequest)
			return nil
		}
		// A dynamic fleet can have detached slots (idle-evicted tenants).
		m := mon.Shard(k)
		if m == nil {
			http.Error(w, fmt.Sprintf("shard %d is detached", k), http.StatusNotFound)
		}
		return m
	}
	mux.HandleFunc("/drift/", func(w http.ResponseWriter, r *http.Request) {
		m := shardMonitor(w, r)
		if m == nil {
			return
		}
		id := strings.TrimPrefix(r.URL.Path, "/drift/")
		if id == "" {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			if err := enc.Encode(map[string]interface{}{"declarations": m.Forensics().Declarations()}); err != nil {
				log.Printf("/drift/: %v", err)
			}
			return
		}
		rep, err := m.Explain(id)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			log.Printf("/drift/%s: %v", id, err)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		f := flt.Load()
		if f.mon == nil {
			// Un-promoted standby: alive and warming, no fleet yet.
			resp := map[string]interface{}{
				"status":    "standby",
				"mode":      "standby",
				"streaming": false,
				"shards":    0,
				"frames":    int64(0),
				"replication": map[string]interface{}{
					"role":       "standby",
					"primary":    *standbyOf,
					"epoch":      sb.Epoch(),
					"generation": sb.Gen(),
					"applied":    sb.Applied(),
				},
			}
			w.WriteHeader(http.StatusOK)
			if err := json.NewEncoder(w).Encode(resp); err != nil {
				log.Printf("/healthz: %v", err)
			}
			return
		}
		mon, router := f.mon, f.router
		h := mon.Health()
		stats := mon.Stats()
		shardHealth := make([]map[string]interface{}, len(h.Shards))
		for i, sh := range h.Shards {
			shardHealth[i] = map[string]interface{}{
				"state":    sh.State.String(),
				"stalled":  sh.Stalled,
				"restarts": sh.Restarts,
				"dropped":  sh.DroppedFrames,
			}
		}
		mode := "selfdrive"
		if router != nil {
			mode = "ingest"
		}
		resp := map[string]interface{}{
			"status":             h.State.String(),
			"mode":               mode,
			"streaming":          !done.Load(),
			"shards":             mon.Shards(),
			"active_shards":      mon.Active(),
			"frames":             processed.Load(),
			"quarantined_frames": stats.QuarantinedFrames,
			"training_failures":  stats.TrainingFailures,
			"shard_health":       shardHealth,
		}
		if router != nil {
			resp["ingest"] = router.Stats()
		}
		code := http.StatusOK
		// A tripped crash-loop breaker or a wedged worker means the fleet
		// is no longer answering every stream: fail readiness. Degraded
		// (training retries on the still-serving deployed model) stays 200.
		if !h.Serving() {
			if h.Stalled {
				resp["status"] = "stalled"
			}
			code = http.StatusServiceUnavailable
		}
		if prim != nil {
			ps := prim.Stats()
			rep := map[string]interface{}{
				"role":            "primary",
				"epoch":           prim.Epoch(),
				"generation":      prim.Gen(),
				"lag_generations": prim.Lag(),
				// What replication costs: a full after first contact is a
				// resync, an overrun a cycle longer than -replicate-every.
				"last_cycle_ms":    float64(ps.LastCycle) / float64(time.Millisecond),
				"last_capture_ms":  float64(ps.LastCapture) / float64(time.Millisecond),
				"last_cycle_bytes": ps.LastBytes,
				"cycles":           ps.Cycles,
				"cycle_overruns":   ps.Overruns,
				"fulls":            ps.Fulls,
				"deltas":           ps.Deltas,
				"full_bytes":       ps.FullBytes,
				"delta_bytes":      ps.DeltaBytes,
			}
			if e := fencedEpoch.Load(); e != 0 {
				// A standby promoted past us: this primary is the stale side
				// of a partition and must not be treated as live.
				rep["fenced_by_epoch"] = e
				resp["status"] = "fenced"
				code = http.StatusServiceUnavailable
			}
			resp["replication"] = rep
		}
		if sb != nil {
			resp["replication"] = map[string]interface{}{
				"role":       "promoted",
				"epoch":      sb.Epoch(),
				"generation": sb.Gen(),
				"applied":    sb.Applied(),
			}
		}
		if st != nil {
			age := time.Since(time.Unix(0, lastCkpt.Load()))
			resp["state_dir"] = st.Dir()
			resp["last_checkpoint_age_seconds"] = age.Seconds()
			resp["checkpoint_interval_seconds"] = ckptEvery.Seconds()
			// A stopped stream stops producing checkpoints by design; only
			// fail health when checkpoints should be flowing and are not.
			if !done.Load() && age > 3*(*ckptEvery) {
				resp["status"] = "degraded"
				code = http.StatusServiceUnavailable
			}
		}
		w.WriteHeader(code)
		enc := json.NewEncoder(w)
		if err := enc.Encode(resp); err != nil {
			log.Printf("/healthz: %v", err)
		}
	})
	if *ingestAddr != "" {
		// In standby mode the ingest server only exists after promotion,
		// so the route resolves through the fleet pointer per request.
		mux.HandleFunc("/ingest", func(w http.ResponseWriter, r *http.Request) {
			isrv := flt.Load().isrv
			if isrv == nil {
				http.Error(w, "standby: ingestion tier opens at promotion", http.StatusServiceUnavailable)
				return
			}
			isrv.HTTPHandler().ServeHTTP(w, r)
		})
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		f := flt.Load()
		if f.mon == nil {
			fmt.Fprintf(w, "driftserve: hot standby of %s (replication on %s)\nendpoints: /metrics /snapshot /events /healthz /debug/pprof/\n",
				*standbyOf, *replicaAddr)
			return
		}
		if f.router != nil {
			fmt.Fprintf(w, "driftserve: %s models, network ingestion on %s (%d max tenants), %s selector\nendpoints: /metrics /snapshot /events /drift/ /drift/<id> /healthz /ingest (POST) /debug/pprof/ (?shard=k)\n",
				ds.Name, *ingestAddr, *maxTenants, sel)
			return
		}
		fmt.Fprintf(w, "driftserve: %s stream ×%d shards, %s selector\nendpoints: /metrics /snapshot /events /drift/ /drift/<id> /healthz /debug/pprof/ (?shard=k)\n",
			ds.Name, len(f.tracers), sel)
	})

	fmt.Fprintf(os.Stderr, "serving telemetry on %s (endpoints: /metrics /snapshot /events /healthz /debug/pprof/)\n", *addr)
	hsrv := &http.Server{Addr: *addr, Handler: mux}
	go func() {
		if err := hsrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}()

	// Block until SIGTERM/SIGINT, then stop the periodic goroutines and
	// the telemetry listener before the final flush: the pump must have
	// drained its last batch into the fleet so that, with persistence
	// on, the final checkpoint captures the exact kill point.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	close(shutdown)
	f := flt.Load()
	if f.router != nil {
		if !waitStopped(pumpDone, pumpStopTimeout, os.Stderr) {
			fmt.Fprintf(os.Stderr, "%v: ingest pump still running after %v (goroutine dump above); exiting without a final flush\n", s, pumpStopTimeout)
			os.Exit(1)
		}
		if n, err := f.router.Pump(); err != nil {
			log.Printf("ingest final drain: %v", err)
		} else {
			processed.Add(int64(n))
		}
		if prim != nil {
			// The pump has exited, so replication captures can no longer go
			// through the handshake; open the direct path for the flush.
			close(streamDone)
		}
	}
	if prim != nil {
		<-primDone
		// Flush the last generation so the standby holds the exact kill
		// point — in self-feed mode the stream loop still answers the
		// capture handshake between batches.
		fmt.Fprintf(os.Stderr, "%v: flushing final generation to standbys...\n", s)
		if err := prim.Cycle(); err != nil && !errors.Is(err, replica.ErrFenced) {
			log.Printf("replica: final flush: %v", err)
		}
		prim.Close()
	}
	hsrv.Close()
	if f.isrv != nil {
		f.isrv.Close()
	}
	if sb != nil {
		rln.Close()
		sb.Close()
	}
	if st != nil {
		fmt.Fprintf(os.Stderr, "%v: flushing final checkpoint to %s...\n", s, st.Dir())
		saveCheckpoint("shutdown")
	}
	fmt.Fprintf(os.Stderr, "%v: exiting\n", s)
}
