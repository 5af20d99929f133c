package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sync"

	"videodrift"
	"videodrift/internal/core"
	"videodrift/internal/dataset"
	"videodrift/internal/experiments"
	"videodrift/internal/forensics"
	"videodrift/internal/query"
	"videodrift/internal/store"
	"videodrift/internal/telemetry"
)

// loadEnv builds the in-process twin of what driftserve provisions at
// boot (`-dataset bdd -scale 0.02 -train N`): the same dataset,
// configuration and models, so a Monitor built from it must behave
// bit-identically to the server's shard. Provisioning costs as much as
// the server's own set-up, so the provisioned models are kept in workdir
// as a checkpoint keyed by the server binary's hash: any source change
// rebuilds them, and the bit-identity of restored models is one of the
// contracts the reference check then also covers.
func loadEnv(bin, workdir string, train int) (*experiments.Env, error) {
	ds := dataset.BDD(0.02)
	cfg := experiments.DefaultConfig()
	cfg.Scale = 0.02
	cfg.TrainFrames = train

	key, err := fileHash(bin)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(workdir, "ref", fmt.Sprintf("models-%s-train%d.ckpt", key[:16], train))
	if data, err := os.ReadFile(path); err == nil {
		cp, err := store.Decode(data)
		if err != nil {
			return nil, fmt.Errorf("reference models %s: %w", path, err)
		}
		env := experiments.BuildEnvShell(ds, cfg, query.Count)
		env.Registry = core.NewRegistry(cp.Entries...)
		return env, nil
	} else if !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}

	env := experiments.BuildEnv(ds, cfg, query.Count)
	data, err := store.Encode(&store.Checkpoint{Entries: env.Registry.Entries()})
	if err != nil {
		return nil, fmt.Errorf("encoding reference models: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return nil, err
	}
	if err := os.Rename(tmp, path); err != nil {
		return nil, err
	}
	return env, nil
}

func fileHash(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

// monitorOptions assembles the per-shard monitor options the way
// driftserve's main does for an ingest fleet.
func monitorOptions(env *experiments.Env, sel core.SelectorKind, forensicsOn bool, tr *telemetry.Tracer) videodrift.Options {
	pcfg := env.PipelineConfig(sel)
	return videodrift.Options{
		Provision: pcfg.Provision,
		Pipeline:  pcfg,
		Tracer:    tr,
		Forensics: videodrift.ForensicsConfig{Enabled: forensicsOn},
	}
}

// newTracer matches the per-tenant tracer driftserve attaches.
func newTracer() *telemetry.Tracer { return telemetry.New(telemetry.Config{RingSize: 4096}) }

// referenceMonitor builds the shard a tenant attached to slot gets.
func referenceMonitor(env *experiments.Env, sel core.SelectorKind, slot int) *videodrift.Monitor {
	opts := monitorOptions(env, sel, true, newTracer())
	opts.Pipeline.Seed += int64(slot)
	return videodrift.NewMonitor(env.Registry.Entries(), env.Labeler(), opts)
}

// declaration is the part of a forensic declaration the server lists
// and the reference must reproduce exactly.
type declaration struct {
	ID          string               `json:"id"`
	Frame       int                  `json:"frame"`
	Model       string               `json:"model"`
	Martingale  float64              `json:"martingale"`
	WindowDelta float64              `json:"window_delta"`
	Resolved    bool                 `json:"resolved"`
	Resolution  forensics.Resolution `json:"resolution"`
}

// referenceCheck replays every tenant's frames through an in-process
// monitor built as the server builds its shard, and compares the drift
// declarations the server retained (got) with the reference's. It
// returns the reference's summed metrics. The tenants are replayed side
// by side, each over its own copy of the provisioned models: a
// classifier's forward pass is not safe for concurrent use.
func referenceCheck(envs [tenants]*experiments.Env, w *workload, res *driveResult, got [tenants][]declaration, seed int64, seconds int) (core.Metrics, error) {
	var ms [tenants]core.Metrics
	var errs [tenants]error
	var wg sync.WaitGroup
	for i, t := range res.tenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ms[i], errs[i] = checkTenant(envs[i], w, t, got[i], seed, seconds)
		}()
	}
	wg.Wait()
	var total core.Metrics
	for i, m := range ms {
		if errs[i] != nil {
			return total, errs[i]
		}
		total.DriftsDetected += m.DriftsDetected
		total.ModelsSelected += m.ModelsSelected
		total.ModelsTrained += m.ModelsTrained
	}
	return total, nil
}

func checkTenant(env *experiments.Env, w *workload, t *tenantLog, got []declaration, seed int64, seconds int) (core.Metrics, error) {
	mon := referenceMonitor(env, w.Selector, t.slot)
	src := newFrameSource(w, seed, t.slot, w.frames(seconds))
	n := len(t.acked) + 1 // plus the attach frame
	for seq := 0; seq < n; seq++ {
		mon.Process(wireFrame(seq, src.next()))
	}
	// Round-trip the reference through the JSON the server emits, so both
	// sides are compared as the same type.
	b, err := json.Marshal(mon.Forensics().Declarations())
	if err != nil {
		return core.Metrics{}, err
	}
	var want []declaration
	if err := json.Unmarshal(b, &want); err != nil {
		return core.Metrics{}, err
	}
	if !reflect.DeepEqual(want, got) {
		return core.Metrics{}, fmt.Errorf("tenant %s (slot %d, %d frames): the server's drift declarations differ from the reference replay:\n  server:    %+v\n  reference: %+v",
			t.id, t.slot, n, got, want)
	}
	return mon.Stats(), nil
}
