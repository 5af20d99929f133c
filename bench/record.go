package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// measurement is one metric as measured, with the number of samples
// behind it.
type measurement struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// workloadRecord is one workload's run.
type workloadRecord struct {
	ServerFlags  []string               `json:"server_flags"`
	StandbyFlags []string               `json:"standby_flags,omitempty"`
	Traced       bool                   `json:"traced"`
	Seconds      int                    `json:"seconds"`
	Frames       []int                  `json:"frames_per_tenant"`
	Correct      bool                   `json:"correct"`
	Attempted    int                    `json:"attempted"`
	Failed       int                    `json:"failed"`
	Problems     []string               `json:"problems,omitempty"`
	Metrics      map[string]measurement `json:"metrics"`
	// Counts repeat exactly for a seed when the frame count does.
	Counts map[string]int `json:"counts"`
	// The run's stalls in order: what cpu_us_per_frame and verdict_ms_p50
	// leave out, and what serve.stall_ms_p50 is the median of.
	StallsMS []float64 `json:"stalls_ms,omitempty"`
}

// record is what a run leaves behind: enough to repeat it and to
// compare it with another.
type record struct {
	Seed       int64                      `json:"seed"`
	Commit     string                     `json:"commit"`
	NProc      int                        `json:"nproc"`
	GOMAXPROCS int                        `json:"gomaxprocs"`
	GoVersion  string                     `json:"go_version"`
	CPUModel   string                     `json:"cpu_model"`
	Tenants    int                        `json:"tenants"`
	PollMS     float64                    `json:"poll_interval_ms"`
	Workloads  map[string]*workloadRecord `json:"workloads"`
}

func newRecord(seed int64) *record {
	return &record{
		Seed:       seed,
		Commit:     commit(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Tenants:    tenants,
		PollMS:     float64(pollInterval) / 1e6,
		Workloads:  map[string]*workloadRecord{},
	}
}

// commit is passed in by run.sh, which knows whether the checkout is a
// git repository.
func commit() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}

func (r *record) write(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readRecord(path string) (*record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// printTable lists a workload's metrics by name, with unit and sample
// count.
func (w *workloadRecord) printTable(out io.Writer, name string) {
	fmt.Fprintf(out, "workload %s  (traced=%v, %d s, frames/tenant %v, attempted %d, failed %d, correct %v)\n",
		name, w.Traced, w.Seconds, w.Frames, w.Attempted, w.Failed, w.Correct)
	names := make([]string, 0, len(w.Metrics))
	for n := range w.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := w.Metrics[n]
		fmt.Fprintf(out, "  %-34s %14.4f %-6s n=%d\n", n, m.Value, m.Unit, m.Samples)
	}
	cn := make([]string, 0, len(w.Counts))
	for n := range w.Counts {
		cn = append(cn, n)
	}
	sort.Strings(cn)
	for _, n := range cn {
		fmt.Fprintf(out, "  %-34s %14d count\n", n, w.Counts[n])
	}
	for _, p := range w.Problems {
		fmt.Fprintf(out, "  PROBLEM: %s\n", p)
	}
}

// resultLine is the driver's contract: the last line of standard output.
func (w *workloadRecord) resultLine(defs []metricDef) ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	for _, d := range defs {
		m, ok := w.Metrics[d.Name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		metrics[d.Name] = mv{m.Value, m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{w.Correct, w.Attempted, w.Failed, metrics})
}

// compare prints, per end-to-end metric and workload, both values, the
// relative difference and the bound, and reports whether b stays within
// every bound of a and every count agrees.
func compare(out io.Writer, a, b *record) bool {
	ok := true
	for _, w := range workloads {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wb == nil {
			continue
		}
		fmt.Fprintf(out, "workload %s\n", w.Name)
		if !wa.Correct || !wb.Correct || wa.Failed > 0 || wb.Failed > 0 {
			fmt.Fprintf(out, "  FAIL: correct %v/%v, failed %d/%d\n", wa.Correct, wb.Correct, wa.Failed, wb.Failed)
			ok = false
		}
		for _, d := range endToEnd {
			ma, okA := wa.Metrics[d.Name]
			mb, okB := wb.Metrics[d.Name]
			if !okA || !okB {
				continue
			}
			if ma.Value == 0 {
				// Nothing to take a share of; and no end-to-end metric
				// is ever 0 in a run that measured.
				fmt.Fprintf(out, "  %-20s %14.4f → %14.4f %-4s  BASE IS ZERO\n", d.Name, ma.Value, mb.Value, d.Unit)
				ok = false
				continue
			}
			// Positive is worse, whichever way the metric points.
			worse := (mb.Value - ma.Value) / ma.Value
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > d.Bound {
				verdict = "EXCEEDS BOUND"
				ok = false
			}
			fmt.Fprintf(out, "  %-20s %14.4f → %14.4f %-4s  worse by %+7.2f%%  bound %4.0f%%  %s\n",
				d.Name, ma.Value, mb.Value, d.Unit, 100*worse, 100*d.Bound, verdict)
		}
		// Counts are only comparable over the same frames.
		if fmt.Sprint(wa.Frames) != fmt.Sprint(wb.Frames) || a.Seed != b.Seed {
			fmt.Fprintf(out, "  counts not compared: frames %v vs %v, seed %d vs %d\n", wa.Frames, wb.Frames, a.Seed, b.Seed)
			continue
		}
		for _, n := range []string{"core.drifts", "core.selections", "core.trainings"} {
			verdict := "ok"
			if wa.Counts[n] != wb.Counts[n] {
				verdict = "DIFFERS"
				ok = false
			}
			fmt.Fprintf(out, "  %-20s %14d → %14d count %s\n", n, wa.Counts[n], wb.Counts[n], verdict)
		}
	}
	return ok
}
