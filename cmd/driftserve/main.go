// Command driftserve runs the drift-aware monitor over the camera
// streams its clients deliver while serving live telemetry over HTTP —
// the operational view of the paper's Figure 1: watch the martingale
// climb, the drift fire, the selector resolve and the per-stage latency
// distribution move, all without stopping the streams.
//
// Frames arrive only over the wire: each camera is a tenant of the
// network ingestion tier on -ingest-addr (the wire protocol over TCP),
// attached on its first frame to a shard of one fleet
// over a shared set of provisioned models — the multi-camera deployment
// shape: every tenant has an independent monitor with its own drift
// state and telemetry tracer, and the expensive read-only state —
// reference feature matrices, calibration scores, classifier weights —
// is shared. cmd/driftfeed is the load generator (its default -addr is
// the default -ingest-addr); `drifttool` without a command runs the same
// monitor in one process.
//
// Endpoints:
//
//	/metrics   Prometheus text-exposition format (counters, gauges,
//	           per-stage latency quantiles); ?shard=k selects a shard,
//	           ?tenant=<id> a tenant, neither the fleet's base tracer
//	/snapshot  the same state as one indented JSON document (?shard=k,
//	           ?tenant=<id>)
//	/events    the retained structured events (drifts, selections,
//	           trainings, deployments), optionally ?kind=drift_declared,
//	           ?since=<seq> (events with sequence numbers strictly
//	           greater, for incremental polling) and ?shard=k or
//	           ?tenant=<id>
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
//	           timeout, or checkpointing is enabled and the state
//	           dir has lagged the fleet for 3 intervals, this primary
//	           was fenced, or a promotion failed.
//	/debug/pprof/…  the standard net/http/pprof profiles
//
// Usage:
//
//	driftserve [-addr :9090] [-ingest-addr :9091] [-dataset bdd|detrac|tokyo|slow]
//	           [-scale 0.02] [-selector msbi|msbo] [-train 300] [-workers 0]
//	           [-batch 1] [-ring 4096] [-perframe] [-v]
//	           [-state-dir dir] [-checkpoint-every 30s] [-stall-timeout 10s]
//	           [-max-tenants 64] [-tenant-queue 256] [-idle-evict 2m]
//	           [-replicate-to host:port,...] [-replicate-every 1s]
//	driftserve -standby-of primaryhost:9090 -replica-addr host:port
//	           [-probe-every 500ms] [-probe-fails 3] [-ingest-addr :9091]
//
// -dataset names the models provisioned at boot (the conditions the
// clients' streams should start in). The default -selector msbi
// provisions and trains models without MSBO's deep ensembles, which only
// MSBO reads: set-up and every serving-time training are a third to a
// half shorter, and the state such a server checkpoints or replicates
// serves -selector msbi only (an msbo restart or standby refuses it by
// name; msbo state serves either). -state-dir persists checkpoints,
// tenants included, and warm-restarts from the newest intact one;
// -replicate-to streams checkpoints to hot standbys, and -standby-of
// runs one (excludes -state-dir and -replicate-to), which opens its
// -ingest-addr once it promotes. Every frame is fed to the fleet by the
// connection that read it, or by the one holding the pump when it
// arrived: there is no pump loop. On SIGTERM or SIGINT the server stops
// admitting frames and feeding in place, drains what it accepted — after
// a pump in flight, which gets ten seconds to finish its batch — and
// flushes it to the standbys and the state dir. If the pump has not
// stopped by then, the process writes every goroutine's stack to stderr
// and exits 1 rather than ignore the signal.
//
// The server itself is internal/serve; DESIGN.md §17 describes what it
// brings up, in what order it stops, and the /healthz schema.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"videodrift/internal/serve"
)

func main() {
	var cfg serve.Config
	flag.StringVar(&cfg.Addr, "addr", ":9090", "HTTP listen address")
	flag.StringVar(&cfg.Dataset, "dataset", "bdd", "stream to monitor: bdd, detrac, tokyo, slow")
	flag.Float64Var(&cfg.Scale, "scale", 0.02, "dataset stream scale (1.0 = paper sizes)")
	flag.StringVar(&cfg.Selector, "selector", "msbi", "model selector: msbi or msbo (msbi trains no MSBO ensembles; its checkpoints and standbys are msbi-only)")
	flag.IntVar(&cfg.Train, "train", 300, "training frames per provisioned condition")
	flag.IntVar(&cfg.Workers, "workers", 0, "goroutines processing shard frames (0 = GOMAXPROCS)")
	flag.IntVar(&cfg.Batch, "batch", 1, "max frames per shard per supervised micro-batch (1 = per-frame supervision)")
	flag.IntVar(&cfg.Ring, "ring", 4096, "telemetry event-ring capacity per shard; allocated as events arrive")
	flag.BoolVar(&cfg.PerFrame, "perframe", false, "also ring per-frame FrameObserved/MartingaleUpdate events")
	flag.BoolVar(&cfg.Verbose, "v", false, "log checkpoints to stderr (the drift events are on /events)")
	flag.StringVar(&cfg.StateDir, "state-dir", "", "checkpoint directory for persistence and warm restart (empty = off)")
	flag.DurationVar(&cfg.CheckpointEvery, "checkpoint-every", 30*time.Second, "background checkpoint interval (needs -state-dir)")
	flag.DurationVar(&cfg.StallTimeout, "stall-timeout", 10*time.Second, "how long a shard may sit on one frame before /healthz reports it stalled")
	flag.BoolVar(&cfg.Forensics, "forensics", true, "record drift declarations with replayable pre-rolls (the frames the inspector read) for /drift and checkpoints")
	flag.StringVar(&cfg.IngestAddr, "ingest-addr", ":9091", "TCP listen address of the network ingestion tier, the only way frames reach the fleet (a standby opens it once it promotes)")
	flag.IntVar(&cfg.MaxTenants, "max-tenants", 64, "max concurrently attached ingestion tenants")
	flag.IntVar(&cfg.TenantQueue, "tenant-queue", 256, "per-tenant bounded queue capacity")
	flag.DurationVar(&cfg.IdleEvict, "idle-evict", 2*time.Minute, "detach ingestion tenants idle this long, freeing their shard (0 = never)")
	flag.StringVar(&cfg.ReplicateTo, "replicate-to", "", "comma-separated standby replication addresses to stream checkpoints to")
	flag.DurationVar(&cfg.ReplicateEvery, "replicate-every", time.Second, "steady-state replication cadence (needs -replicate-to)")
	flag.StringVar(&cfg.StandbyOf, "standby-of", "", "run as a hot standby of the primary at this HTTP address (health-probed for automatic promotion)")
	flag.StringVar(&cfg.ReplicaAddr, "replica-addr", "", "TCP listen address for the inbound replication stream (needs -standby-of)")
	flag.DurationVar(&cfg.ProbeEvery, "probe-every", 500*time.Millisecond, "primary health-probe interval (needs -standby-of)")
	flag.IntVar(&cfg.ProbeFails, "probe-fails", 3, "consecutive failed probes before the standby promotes itself (needs -standby-of)")
	flag.Parse()
	if err := cfg.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "driftserve: %v\n\n", err)
		flag.Usage()
		os.Exit(2)
	}
	srv, err := serve.New(cfg)
	if err == nil {
		err = srv.Start()
	}
	if err != nil {
		log.Fatal(err)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	if err := srv.Shutdown(); err != nil {
		fmt.Fprintf(os.Stderr, "%v: %v\n", got, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "%v: exiting\n", got)
}
