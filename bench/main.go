// Command bench is the repository's benchmark: it spawns the real
// cmd/driftserve, drives it over loopback with ingest.Client from one
// process, reports what a user of the system would see (end-to-end
// metrics), attributes the cost of a frame to layers with an in-process
// ledger (per-layer metrics, -trace 1), and checks the server's outputs
// against an in-process reference replay. See README.md.
//
// Run it through run.sh, which builds this program and driftserve:
//
//	bash bench/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//	bash bench/run.sh -compare A.json B.json
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	os.Exit(run())
}

func run() int {
	workloadName := flag.String("workload", "", "workload to run (default: all, one after the other)")
	seed := flag.Int64("seed", 1, "seed all generated frames derive from")
	seconds := flag.Int("seconds", runSeconds, "how long each workload is driven")
	trace := flag.Int("trace", 0, "1 runs the traced drive and the per-layer ledger and prints the per-layer metrics")
	bin := flag.String("driftserve", "", "path of the driftserve binary to measure (run.sh builds it)")
	workdir := flag.String("workdir", ".bench_build", "directory for logs, records, traces and the reference model cache")
	out := flag.String("out", "", "where to write the run's record (default <workdir>/out/<workload>-seed<N>-trace<T>.json)")
	cmp := flag.Bool("compare", false, "compare two records: -compare A.json B.json")
	writeSpec := flag.String("write-spec", "", "write BENCHMARK.json to this path and exit")
	flag.Parse()

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	switch {
	case *writeSpec != "":
		if err := os.WriteFile(*writeSpec, benchmarkSpec(), 0o644); err != nil {
			return fail(err)
		}
		return 0
	case *cmp:
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two record files"))
		}
		a, err := readRecord(flag.Arg(0))
		if err != nil {
			return fail(err)
		}
		b, err := readRecord(flag.Arg(1))
		if err != nil {
			return fail(err)
		}
		if !compare(os.Stdout, a, b) {
			return 1
		}
		return 0
	}

	if *bin == "" {
		return fail(fmt.Errorf("-driftserve is required (use bench/run.sh)"))
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		return fail(fmt.Errorf("-seconds must be >= 1 and -trace 0 or 1"))
	}
	todo := workloads
	name := "all"
	if *workloadName != "" {
		w := findWorkload(*workloadName)
		if w == nil {
			return fail(fmt.Errorf("unknown workload %q", *workloadName))
		}
		todo, name = []workload{*w}, w.Name
	}
	cfg := &runConfig{bin: *bin, workdir: *workdir, seed: *seed, seconds: *seconds, traced: *trace == 1, train: trainFrames}
	rec := newRecord(*seed)
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	code := 0
	var lines [][]byte
	for i := range todo {
		w := &todo[i]
		wr, err := runWorkload(cfg, w)
		if err != nil {
			return fail(fmt.Errorf("workload %s: %w", w.Name, err))
		}
		rec.Workloads[w.Name] = wr
		wr.printTable(os.Stdout, w.Name)
		if !wr.Correct || wr.Failed > 0 {
			code = max(code, 1)
		}
		// A run that could not measure a metric prints no result line,
		// but still leaves its record.
		line, err := wr.resultLine(defs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: workload %s: %v\n", w.Name, err)
			code = 2
			continue
		}
		lines = append(lines, line)
	}
	path := *out
	if path == "" {
		path = filepath.Join(*workdir, "out", fmt.Sprintf("%s-seed%d-trace%d.json", name, *seed, *trace))
	}
	if err := rec.write(path); err != nil {
		return fail(err)
	}
	fmt.Printf("record: %s\n", path)
	for _, line := range lines {
		fmt.Printf("%s\n", line)
	}
	return code
}
