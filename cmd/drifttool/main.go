// Command drifttool runs the drift-aware monitor interactively over a
// scripted synthetic stream and logs every detection, selection and
// training event — a quick way to watch the Figure-1 architecture work.
//
// Usage:
//
//	drifttool [-dataset bdd|detrac|tokyo|slow] [-scale 0.02] [-selector msbo|msbi] [-v]
//	drifttool inspect <checkpoint>
//	drifttool [-verify] inspect <state-dir>
//	drifttool [-drift id] [-shard n] explain <checkpoint>
//	drifttool health <addr>
//
// The inspect subcommand describes a checkpoint file written by
// driftserve (or any videodrift.CheckpointStore): store format version,
// per-model inventory with sizes and checksums, each shard's stream
// position, its drift, selection and training counts, and its last
// retained drift declaration. Damaged files report typed errors instead of
// partial output.
//
// Given a directory (or with -verify), inspect instead walks every full
// checkpoint in the state dir, re-checksums each envelope and every
// per-model entry inside it, and prints one line per file. Exit status
// 1 if any file is damaged — the scrub a backup gets before being
// trusted.
//
// The explain subcommand renders the forensic report of the drift
// declarations a checkpoint retains (written with forensics enabled):
// the declaration evidence, the ranked per-feature attribution, the
// bit-identical replayed martingale trajectory, and how the post-drift
// selection resolved. -drift narrows to one declaration ID, -shard to
// one shard.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"time"

	"videodrift/internal/core"
	"videodrift/internal/dataset"
	"videodrift/internal/forensics"
	"videodrift/internal/modelset"
	"videodrift/internal/query"
	"videodrift/internal/serve"
	"videodrift/internal/store"
)

func main() {
	dsName := flag.String("dataset", "bdd", "stream to monitor: bdd, detrac, tokyo, slow")
	scale := flag.Float64("scale", 0.02, "dataset stream scale (1.0 = paper sizes)")
	selector := flag.String("selector", "msbo", "model selector: msbo or msbi")
	train := flag.Int("train", 300, "training frames per provisioned condition")
	verbose := flag.Bool("v", false, "log per-sequence accuracy while streaming")
	driftID := flag.String("drift", "", "explain: narrow to one drift declaration ID")
	shard := flag.Int("shard", -1, "explain: narrow to one shard (-1 = all)")
	verify := flag.Bool("verify", false, "inspect: re-checksum every full checkpoint in a state dir; exit 1 on damage")
	flag.Parse()

	if flag.Arg(0) == "inspect" {
		if flag.NArg() != 2 {
			log.Fatal("usage: drifttool [-verify] inspect <checkpoint|state-dir>")
		}
		path := flag.Arg(1)
		if fi, err := os.Stat(path); *verify || (err == nil && fi.IsDir()) {
			results, err := store.VerifyDir(path)
			if err != nil {
				log.Fatalf("verify %s: %v", path, err)
			}
			if damaged := store.WriteVerifyText(os.Stdout, path, results); damaged != 0 {
				os.Exit(1)
			}
			return
		}
		d, err := store.Inspect(path)
		if err != nil {
			log.Fatalf("inspect %s: %v", path, err)
		}
		d.WriteText(os.Stdout)
		return
	}
	if flag.Arg(0) == "explain" {
		if flag.NArg() != 2 {
			log.Fatal("usage: drifttool [-drift id] [-shard n] explain <checkpoint>")
		}
		explain(flag.Arg(1), *driftID, *shard)
		return
	}
	if flag.Arg(0) == "health" {
		if flag.NArg() != 2 {
			log.Fatal("usage: drifttool health <addr>")
		}
		os.Exit(health(os.Stdout, flag.Arg(1)))
	}
	if flag.NArg() > 0 {
		log.Fatalf("unknown subcommand %q (subcommands: inspect, explain, health)", flag.Arg(0))
	}

	sel, err := modelset.ParseSelector(*selector)
	if err != nil {
		fmt.Fprintf(os.Stderr, "drifttool: %v\n\n", err)
		flag.Usage()
		os.Exit(2)
	}
	ds, err := dataset.ByName(*dsName, *scale)
	if err != nil {
		log.Fatal(err)
	}

	cfg := modelset.DefaultConfig()
	cfg.TrainFrames = *train

	fmt.Fprintf(os.Stderr, "provisioning %d models for %s (%d training frames each)...\n",
		len(ds.Sequences), ds.Name, cfg.TrainFrames)
	env := modelset.Build(ds, cfg, query.Count, sel)
	pipe := core.NewPipeline(env.Registry, env.Labeler(), env.PipelineConfig(sel))

	fmt.Fprintf(os.Stderr, "streaming %d frames (%d sequences, drifts at %v)...\n",
		ds.StreamSize()+ds.WarmupLen, len(ds.Sequences), ds.Stream().DriftPoints())

	stream := ds.Stream()
	start := time.Now()
	correct, scored := 0, 0
	i := 0
	for {
		f, ok := stream.Next()
		if !ok {
			break
		}
		out := pipe.Process(f)
		if out.Drift {
			fmt.Printf("frame %6d [%s]: drift declared (deployed model: %s)\n", i, f.Condition, pipe.Current().Name)
		}
		if out.SwitchedTo != "" {
			kind := "selected"
			if out.TrainedNew {
				kind = "trained"
			}
			fmt.Printf("frame %6d [%s]: %s and deployed model %q\n", i, f.Condition, kind, out.SwitchedTo)
		}
		if *verbose && i%16 == 0 {
			if out.Prediction == env.Annotator.CountLabel(f) {
				correct++
			}
			scored++
		}
		i++
	}
	elapsed := time.Since(start)

	m := pipe.Metrics()
	fmt.Printf("\nprocessed %d frames in %v (%.1f µs/frame)\n", m.Frames, elapsed.Round(time.Millisecond),
		float64(elapsed.Microseconds())/float64(m.Frames))
	fmt.Printf("drifts detected: %d   models selected: %d   models trained: %d\n",
		m.DriftsDetected, m.ModelsSelected, m.ModelsTrained)
	fmt.Printf("registry: %v\n", pipe.Registry().Names())
	if scored > 0 {
		fmt.Printf("sampled count-query accuracy: %.3f (%d frames scored)\n", float64(correct)/float64(scored), scored)
	}
}

// health fetches a running driftserve's /healthz and pretty-prints it,
// including the per-tenant ingestion stats when the server runs the
// network ingestion tier. Exit status is 0 only when the server
// answered 200 — the CI smoke-check contract. The "total dropped"
// line sums supervised frame drops across shards (breaker-tripped
// shards discarding frames); scripts/smoke.sh asserts it stays zero.
func health(w io.Writer, addr string) int {
	url := serve.HealthURL(addr)
	resp, err := http.Get(url)
	if err != nil {
		fmt.Fprintf(os.Stderr, "drifttool health: %v\n", err)
		return 1
	}
	defer resp.Body.Close()
	var h serve.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		fmt.Fprintf(os.Stderr, "drifttool health: decoding %s: %v\n", url, err)
		return 1
	}
	fmt.Fprintf(w, "%s: %s (HTTP %d)\n", url, h.Status, resp.StatusCode)
	if h.Error != "" {
		fmt.Fprintf(w, "  error: %s\n", h.Error)
	}
	fmt.Fprintf(w, "  mode: %s\n", h.Mode)
	fmt.Fprintf(w, "  shards: %d (%d attached)   frames: %d   quarantined: %d   training failures: %d\n",
		h.Shards, h.ActiveShards, h.Frames, h.Quarantined, h.TrainFails)
	dropped := 0
	for i, sh := range h.ShardHealth {
		dropped += sh.DroppedFrames
		stalled := ""
		if sh.Stalled {
			stalled = "   STALLED"
		}
		fmt.Fprintf(w, "  shard %d: %s (restarts %d, dropped %d)%s\n", i, sh.State, sh.Restarts, sh.DroppedFrames, stalled)
	}
	if h.StateDir != "" {
		fmt.Fprintf(w, "  checkpoints: %s (last %.1fs ago)\n", h.StateDir, h.CkptAge)
	}
	if in := h.Ingest; in != nil {
		fmt.Fprintf(w, "  ingest: %d/%d tenants attached   accepted %d   processed %d   dups %d\n",
			in.Active, in.Known, in.Accepted, in.Processed, in.Dups)
		fmt.Fprintf(w, "    nacks: bad_seq %d, tenant_limit %d, malformed %d   attaches %d   evictions %d\n",
			in.NackedSeq, in.NackedLimit, in.NackedMalformed, in.Attaches, in.Evictions)
		fmt.Fprintf(w, "    pump: %d runs, %.2f frames per run\n",
			in.Pumps, float64(in.Processed)/float64(max(in.Pumps, 1)))
		for _, t := range in.Tenants {
			slot := fmt.Sprint(t.Slot)
			if t.Slot < 0 {
				slot = "evicted"
			}
			fmt.Fprintf(w, "    tenant %s: slot %s, queued %d/%d, accepted %d, processed %d, dups %d, nacked_seq %d\n",
				t.Tenant, slot, t.Queued, t.QueueCap, t.Accepted, t.Processed, t.Dups, t.NackedSeq)
		}
	}
	fmt.Fprintf(w, "  total dropped: %d\n", dropped)
	if resp.StatusCode != http.StatusOK {
		return 1
	}
	return 0
}

// explain loads a checkpoint and renders the forensic report of its
// retained drift declarations. Replay needs the original run's
// monitoring parameters; every bundled driver (driftserve, drifttool,
// the facade's Defaults) runs core.DefaultPipelineConfig, so the config
// is rebuilt from the checkpoint's frame geometry.
func explain(path, driftID string, shard int) {
	cp, err := store.LoadPath(path)
	if err != nil {
		log.Fatalf("explain %s: %v", path, err)
	}
	matched := 0
	for si, sh := range cp.Shards {
		if shard >= 0 && si != shard {
			continue
		}
		if !sh.Forensics.Enabled {
			fmt.Printf("shard %d: checkpoint holds no forensics state (run with forensics enabled)\n", si)
			continue
		}
		decls := sh.Forensics.Declarations
		fmt.Printf("shard %d: %d drift declaration(s) retained\n", si, len(decls))
		if len(decls) == 0 {
			continue
		}
		ents := make([]*core.ModelEntry, len(sh.Registry))
		for j, ref := range sh.Registry {
			ents[j] = cp.Entries[ref]
		}
		cfg := core.DefaultPipelineConfig(ents[0].W*ents[0].H, 2)
		for _, d := range decls {
			if driftID != "" && d.ID != driftID {
				continue
			}
			matched++
			rep, err := forensics.BuildReport(ents, cfg, d)
			if err != nil {
				log.Fatalf("replay %s: %v", d.ID, err)
			}
			rep.WriteText(os.Stdout)
		}
	}
	if driftID != "" && matched == 0 {
		log.Fatalf("no retained declaration %q in %s", driftID, path)
	}
}
