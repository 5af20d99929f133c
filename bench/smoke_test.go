package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestSpecMatchesBenchmarkJSON keeps BENCHMARK.json generated, not
// hand-edited: `bash bench/run.sh -write-spec BENCHMARK.json` rewrites it.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, benchmarkSpec()) {
		t.Fatalf("BENCHMARK.json differs from the tables in spec.go; regenerate it with -write-spec")
	}
	var spec struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
	}
	if err := json.Unmarshal(got, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}
}

// TestSmoke drives the real driftserve through one short traced run of
// the replicated workload — the one that needs both processes — and
// checks that every metric BENCHMARK.json names is emitted, finite and
// carries its unit, and that the record compares clean against itself.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns driftserve; skipped under -short")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "driftserve")
	build := exec.Command("go", "build", "-o", bin, "videodrift/cmd/driftserve")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building driftserve: %v\n%s", err, out)
	}
	cfg := &runConfig{bin: bin, workdir: dir, seed: 1, seconds: 2, traced: true, train: 60}
	w := findWorkload("replicated")
	rec, err := runWorkload(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Correct || rec.Failed != 0 {
		t.Fatalf("run not clean: correct=%v failed=%d problems=%v", rec.Correct, rec.Failed, rec.Problems)
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			m, ok := rec.Metrics[d.Name]
			switch {
			case !ok:
				t.Errorf("metric %s not emitted", d.Name)
			case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
				t.Errorf("metric %s = %v", d.Name, m.Value)
			case m.Unit != d.Unit:
				t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", d.Name, m.Unit, d.Unit)
			}
		}
		if _, err := rec.resultLine(defs); err != nil {
			t.Error(err)
		}
	}
	if rec.Metrics["replica.standby_rss_mb"].Value <= 0 {
		t.Errorf("the standby was not measured: %+v", rec.Metrics["replica.standby_rss_mb"])
	}
	if _, err := os.Stat(filepath.Join(dir, "out", "trace.json")); err != nil {
		t.Errorf("traced run wrote no trace: %v", err)
	}

	full := newRecord(cfg.seed)
	full.Workloads[w.Name] = rec
	var out bytes.Buffer
	if !compare(&out, full, full) {
		t.Errorf("a record does not compare clean against itself:\n%s", out.String())
	}
	worse := *rec
	worse.Metrics = map[string]measurement{}
	for n, m := range rec.Metrics {
		worse.Metrics[n] = m
	}
	slow := worse.Metrics["cpu_us_per_frame"]
	slow.Value *= 2
	worse.Metrics["cpu_us_per_frame"] = slow
	bad := newRecord(cfg.seed)
	bad.Workloads[w.Name] = &worse
	if compare(&out, full, bad) {
		t.Errorf("doubling cpu_us_per_frame passed the comparison")
	}
}
