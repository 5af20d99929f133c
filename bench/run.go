package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"videodrift/internal/core"
	"videodrift/internal/experiments"
)

// runConfig is one invocation's settings.
type runConfig struct {
	bin     string // the driftserve binary under test
	workdir string // logs, records, traces and the reference model cache
	seed    int64
	seconds int
	traced  bool
	train   int // driftserve -train: trainFrames, but for the smoke test
}

// commonFlags are the flags every server runs with. -workers 1 keeps
// the shard fan-out on the pump goroutine: the only setting under which
// the pool's nested-ForEach deadlock (ROADMAP item 1a) is unreachable.
// README.md has the repro.
func (c *runConfig) commonFlags(httpAddr string) []string {
	return []string{"-addr", httpAddr, "-dataset", "bdd", "-scale", "0.02",
		"-train", fmt.Sprint(c.train), "-workers", "1"}
}

// runWorkload spawns a fresh server (and standby), drives the workload,
// checks the outputs against the reference replay and returns the
// record. An error means the harness could not measure; a measured run
// that went wrong comes back with Correct false or Failed > 0.
func runWorkload(c *runConfig, w *workload) (*workloadRecord, error) {
	addrs, err := freeAddrs(4)
	if err != nil {
		return nil, err
	}
	httpAddr, ingestAddr, sbHTTP, replicaAddr := addrs[0], addrs[1], addrs[2], addrs[3]
	rec := &workloadRecord{Traced: c.traced, Seconds: c.seconds, Metrics: map[string]measurement{}, Counts: map[string]int{}}
	logBase := filepath.Join(c.workdir, "logs", fmt.Sprintf("%s-seed%d-trace%d", w.Name, c.seed, b2i(c.traced)))

	flags := append(c.commonFlags(httpAddr), "-ingest-addr", ingestAddr)
	flags = append(flags, w.Flags...)
	var standby *server
	if w.Replicated {
		// The standby never promotes: the workload measures streaming,
		// not failover.
		rec.StandbyFlags = append(c.commonFlags(sbHTTP), "-standby-of", httpAddr,
			"-replica-addr", replicaAddr, "-probe-fails", "1000000")
		standby, err = spawn(c.bin, logBase+".standby.log", rec.StandbyFlags, sbHTTP, "", 30*time.Second)
		if err != nil {
			return nil, err
		}
		defer standby.stop()
		flags = append(flags, "-replicate-to", replicaAddr)
	}
	rec.ServerFlags = flags
	srv, err := spawn(c.bin, logBase+".log", flags, httpAddr, ingestAddr, 150*time.Second)
	if err != nil {
		return nil, err
	}
	defer srv.stop()

	problem := func(format string, args ...any) {
		rec.Problems = append(rec.Problems, fmt.Sprintf(format, args...))
	}
	// The traced drive is the untraced one plus two timestamps per frame:
	// its spans are assembled afterwards from what the senders and the
	// poller record anyway.
	res, err := drive(w, srv, standby, c.seed, c.seconds, c.traced)
	if err != nil {
		return nil, err
	}
	var decls [tenants][]declaration
	var sbRSS float64
	if res.hung {
		problem("server stopped making progress; killed by the watchdog (log %s)", srv.logPath)
	} else {
		h, err := srv.health()
		if err != nil {
			return nil, err
		}
		for i, t := range res.tenants {
			if t.err != nil {
				problem("tenant %s: %v", t.id, t.err)
			}
			ht := h.tenant(t.id)
			if want := int64(len(t.acked) + 1); ht.Processed != want || ht.Accepted != want || ht.Dups != 0 {
				problem("tenant %s: processed %d, accepted %d, dups %d; want %d, %d, 0", t.id, ht.Processed, ht.Accepted, ht.Dups, want, want)
			}
			if decls[i], err = fetchDeclarations(srv, t.slot); err != nil {
				return nil, err
			}
		}
		rss, err := srv.peakRSSMB()
		if err != nil {
			return nil, err
		}
		rec.Metrics["rss_mb"] = measurement{rss, "MB", 1}
		if standby != nil {
			if err := awaitReplicated(srv, standby); err != nil {
				problem("%v", err)
			}
			if sbRSS, err = standby.peakRSSMB(); err != nil {
				return nil, err
			}
		}
	}
	provisionS := srv.provisionSeconds()
	srv.stop()
	if standby != nil {
		standby.stop()
	}

	// The processes are gone; the reference replay has the box to itself.
	// One copy of the provisioned models per tenant: the first load of a
	// checkout provisions and caches them, the rest read the cache.
	var envs [tenants]*experiments.Env
	for i := range envs {
		if envs[i], err = loadEnv(c.bin, c.workdir, c.train); err != nil {
			return nil, err
		}
	}
	env := envs[0]
	if !res.hung {
		counts, mismatch := referenceCheck(envs, w, res, decls, c.seed, c.seconds)
		if mismatch != nil {
			problem("%v", mismatch)
		}
		rec.Counts["core.drifts"] = counts.DriftsDetected
		rec.Counts["core.selections"] = counts.ModelsSelected
		rec.Counts["core.trainings"] = counts.ModelsTrained
	}
	rec.Attempted = tenants * w.frames(c.seconds)
	rec.Failed = rec.Attempted - res.processed()
	for _, t := range res.tenants {
		rec.Frames = append(rec.Frames, len(t.acked))
	}
	rec.Metrics["setup_s"] = measurement{srv.setup.Seconds(), "s", 1}
	if err := endToEndMetrics(rec, res); err != nil {
		problem("%v", err)
	}
	if c.traced && !res.hung {
		spans := newSpanLog(spansPerName)
		spans.clientSpans(res)
		layerMetrics(rec, res)
		rec.Metrics["core.provision_s"] = measurement{provisionS / float64(env.Registry.Len()), "s", env.Registry.Len()}
		rec.Metrics["replica.standby_rss_mb"] = measurement{sbRSS, "MB", 1}
		for n, v := range rec.Counts {
			rec.Metrics[n] = measurement{float64(v), "count", 1}
		}
		led, err := runLedger(c, env, spans)
		if err != nil {
			return nil, err
		}
		// What the ledger can account for of a frame's server CPU: the
		// per-frame path at batch 1, plus this run's selector runs and
		// trainings at the ledger's median durations. The rest is
		// syscalls, scheduling, GC and the health probe.
		selectMS := led["core.select_ms_msbo"].Value
		if w.Selector == core.SelectorMSBI {
			selectMS = led["core.select_ms_msbi"].Value
		}
		rareUS := 1e3 * (float64(rec.Counts["core.drifts"])*selectMS + float64(rec.Counts["core.trainings"])*led["core.train_ms"].Value)
		attributed := led["ingest.decode_us"].Value + led["ingest.submit_us"].Value + led["ingest.pump_us"].Value + rareUS/float64(res.processed())
		delete(led, "ingest.pump_us")
		for n, m := range led {
			rec.Metrics[n] = m
		}
		rec.Metrics["ledger.attributed_share"] = measurement{attributed / rec.Metrics["serve.cpu_us_per_frame_total"].Value, "ratio", 1}
		if err := spans.write(filepath.Join(c.workdir, "out", "trace.json")); err != nil {
			return nil, err
		}
	}
	rec.Correct = len(rec.Problems) == 0
	return rec, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func fetchDeclarations(srv *server, slot int) ([]declaration, error) {
	body, err := srv.get(fmt.Sprintf("/drift/?shard=%d", slot))
	if err != nil {
		return nil, err
	}
	var got struct {
		Declarations []declaration `json:"declarations"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return nil, fmt.Errorf("/drift/?shard=%d: %w", slot, err)
	}
	return got.Declarations, nil
}

// awaitReplicated checks the standby catches up with the primary's
// current generation.
func awaitReplicated(primary, standby *server) error {
	hp, err := primary.health()
	if err != nil {
		return err
	}
	want := hp.Replication.Generation
	if want == 0 {
		return fmt.Errorf("primary replicated no generation")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		hs, err := standby.health()
		if err != nil {
			return err
		}
		if hs.Replication.Generation >= want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("standby at generation %d, primary at %d after 5 s", hs.Replication.Generation, want)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
