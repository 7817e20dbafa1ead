// Command benchmark drives a real mvdbd over loopback HTTP and reports what
// a client sees: throughput, read and write latency, set-up time and memory,
// on four named workloads, with every answer checked against an index built
// in this process. A traced run (-trace 1) adds per-layer numbers. See
// README.md in this directory.
//
//	bash benchmark/run.sh --workload read_hot --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh -aa 10
//
// The last line of standard output of a one-workload run is one JSON object:
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metricDef declares one metric of BENCHMARK.json.
type metricDef struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"` // share of the parent's median it may worsen by
}

// manifest is what the harness reads of BENCHMARK.json, the benchmark's
// contract with its driver: the default window and the metrics each mode
// must print.
type manifest struct {
	RunSeconds int         `json:"run_seconds"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run: read_hot, read_cold, write_only, mixed_rw, or all")
		seed     = flag.Int64("seed", 1, "workload seed: request keys, their order, and mutation weights")
		seconds  = flag.Int("seconds", 0, "length of the timed window (0 = run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "1 adds the traced run and reports the per-layer metrics instead of the end-to-end ones")
		aa       = flag.Int("aa", 0, "run every workload this many times on the same binary, each time with another seed, and fail if an end-to-end metric spreads beyond its bound")
		root     = flag.String("root", "", "repository checkout (set by run.sh)")
		mvdbd    = flag.String("mvdbd", "", "mvdbd binary to drive (set by run.sh)")
		spinner  = flag.Bool("spin", false, "internal: be the idle-priority spinner (see spin.go)")
	)
	flag.Parse()
	if *spinner {
		spin()
	}
	// This process shares two cores with the server it measures: collect its
	// own garbage a fifth as often as the default would.
	debug.SetGCPercent(500)
	if err := run(*workload, *seed, *seconds, *trace != 0, *aa, *root, *mvdbd); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds int, trace bool, aa int, root, mvdbd string) error {
	if root == "" || mvdbd == "" {
		return fmt.Errorf("-root and -mvdbd are required; start the benchmark with benchmark/run.sh")
	}
	var mf manifest
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, &mf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if seconds == 0 {
		seconds = mf.RunSeconds
	}
	var todo []spec
	if workload == "all" {
		todo = specs
	} else if sp, ok := specByName(workload); ok {
		todo = []spec{sp}
	} else {
		return fmt.Errorf("unknown workload %q", workload)
	}
	outDir := filepath.Join(root, "benchmark", "out")
	cfg := func(sp spec, seed int64) runConfig {
		return runConfig{
			sp: sp, seed: seed, seconds: seconds, trace: trace, mvdbd: mvdbd, outDir: outDir,
			workDir: filepath.Join(root, ".bench_build", "run", fmt.Sprintf("%s-%d", sp.name, os.Getpid())),
		}
	}
	stopSpinner, err := startSpinner()
	if err != nil {
		return fmt.Errorf("starting the idle spinner: %w", err)
	}
	defer stopSpinner()
	rep := report{Provenance: provenance(root), WindowSeconds: seconds}

	if aa > 0 {
		for set := 0; set < aa; set++ {
			order := append([]spec(nil), todo...)
			if set%2 == 1 { // alternate the order, so no workload always runs after the same one
				for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
					order[i], order[j] = order[j], order[i]
				}
			}
			for _, sp := range order {
				res, err := runWorkload(cfg(sp, seed+int64(set)))
				if err != nil {
					return err
				}
				fmt.Printf("set %d/%d %-10s seed %d: correct=%v failed=%d/%d\n", set+1, aa, sp.name, res.Seed, res.Correct, res.Failed, res.Attempted)
				rep.Runs = append(rep.Runs, res)
			}
		}
		rep.Spreads = spreads(rep.Runs, mf.EndToEnd)
		if err := rep.write(outDir); err != nil {
			return err
		}
		return printSpreads(rep.Spreads, rep.Runs)
	}

	allCorrect := true
	for _, sp := range todo {
		res, err := runWorkload(cfg(sp, seed))
		if err != nil {
			return err
		}
		rep.Runs = append(rep.Runs, res)
		if err := rep.write(outDir); err != nil {
			return err
		}
		defs, values := mf.EndToEnd, res.EndToEnd
		if trace {
			defs, values = mf.PerLayer, res.PerLayer
		}
		printRun(res, defs, values)
		// The driver's line: exactly the declared metrics of this mode.
		line := map[string]any{"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed}
		metrics := map[string]metric{}
		for _, d := range defs {
			v, ok := values[d.Name]
			if !ok {
				return fmt.Errorf("metric %s of BENCHMARK.json was not measured", d.Name)
			}
			metrics[d.Name] = v
		}
		line["metrics"] = metrics
		out, err := json.Marshal(line)
		if err != nil {
			return err
		}
		fmt.Println(string(out))
		allCorrect = allCorrect && res.Correct
	}
	if !allCorrect {
		return fmt.Errorf("a correctness, durability or validity check failed; see the violations above")
	}
	return nil
}

// printRun prints every metric of one run by name and unit.
func printRun(res *runResult, defs []metricDef, values map[string]metric) {
	fmt.Printf("== %s  seed %d  window %d s  trace %v\n", res.Workload, res.Seed, res.Seconds, res.Trace)
	for _, d := range defs {
		fmt.Printf("  %-28s %14.4f %s\n", d.Name, values[d.Name].Value, d.Unit)
	}
	for _, kind := range []struct {
		title string
		m     map[string]dist
		from  string
	}{{"read", res.Reads, res.ReadsFrom}, {"write", res.Writes, res.WritesFrom}} {
		var classes []string
		for c := range kind.m {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		for _, c := range classes {
			d := kind.m[c]
			fmt.Printf("  %-5s %-10s (%s) n=%-6d p25 %.3f  p50 %.3f  p75 %.3f ms",
				kind.title, c, kind.from, d.N, d.P25, d.P50, d.P75)
			if d.TailP > 0.75 {
				fmt.Printf("  p%g %.3f ms", d.TailP*100, d.Tail)
			}
			fmt.Println()
		}
	}
	if res.IdleSendLag != nil {
		fmt.Printf("  send lag: p50 %.3f  p99 %.3f ms over all reads; p99 %.3f ms with the connection free (n=%d)\n",
			res.SendLag.P50, res.SendLag.P99, res.IdleSendLag.P99, res.IdleSendLag.N)
	}
	for _, l := range res.Layers {
		fmt.Printf("  trace %-5s %-26s self p50 %10.1f us  share %5.1f %%\n", l.Request, l.Layer, l.P50Us, l.Share*100)
	}
	fmt.Printf("  correct=%v  attempted=%d  failed=%d  failed_share=%g\n", res.Correct, res.Attempted, res.Failed, res.FailedShare)
	for _, v := range res.Violations {
		fmt.Printf("  VIOLATION: %s\n", v)
	}
}

// report is benchmark/out/report.json: where the numbers came from, and every
// run with its dispersion.
type report struct {
	Provenance    map[string]any `json:"provenance"`
	WindowSeconds int            `json:"window_seconds"`
	Runs          []*runResult   `json:"runs"`
	Spreads       []spreadRow    `json:"aa_spreads,omitempty"`
}

func (r *report) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "report.json"), b, 0o644)
}

func provenance(root string) map[string]any {
	commit := "unknown" // a driver's checkout is not a git repository
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	// mvdbd takes its GOMAXPROCS from the same environment as this process.
	return map[string]any{
		"commit":           commit,
		"go_version":       runtime.Version(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"gomaxprocs_mvdbd": runtime.GOMAXPROCS(0),
		"nproc":            runtime.NumCPU(),
		"cpu_model":        cpu,
		"time":             time.Now().UTC().Format(time.RFC3339),
		"dataset_seed":     datasetSeed,
		"server_flags":     "-wal-dir <fresh> -group-commit 2ms (fsync on); -cache-entries 64 on read_cold",
		"warmup_policy":    "untimed: first structural batch where the window writes, one pass over the 512-query pool where it reads",
		"setup_runs":       setupRuns,
		"connections":      "at most 2, one per client",
		"idle_spinner":     "one SCHED_IDLE thread per core for the whole run, so no core halts",

		"latency_reporting": "per class: n, quartiles, p90, p99 and the highest percentile with at least 10 samples beyond it",
	}
}

// spreadRow is one metric of one workload over the sets of an A/A run.
type spreadRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Values   []float64 `json:"values"`
	Q1       float64   `json:"q1"`
	Median   float64   `json:"median"`
	Q3       float64   `json:"q3"`
	Spread   float64   `json:"spread"` // (q3 - q1) / median
	Bound    float64   `json:"bound"`
}

func spreads(runs []*runResult, defs []metricDef) []spreadRow {
	var rows []spreadRow
	for _, sp := range specs {
		for _, d := range defs {
			row := spreadRow{Workload: sp.name, Metric: d.Name, Bound: d.Bound}
			for _, r := range runs {
				if r.Workload == sp.name {
					row.Values = append(row.Values, r.EndToEnd[d.Name].Value)
				}
			}
			if len(row.Values) < 2 {
				continue
			}
			row.Q1, row.Median, row.Q3 = quartiles(row.Values)
			row.Spread = spread(row.Values)
			rows = append(rows, row)
		}
	}
	return rows
}

// printSpreads prints the A/A table and fails when the same binary disagrees
// with itself by more than a metric's bound. Set-up time is printed but not
// gated, as in the driver's own check.
func printSpreads(rows []spreadRow, runs []*runResult) error {
	var bad []string
	fmt.Printf("%-11s %-15s %12s %12s %12s %8s %6s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	for _, r := range rows {
		mark := ""
		if r.Spread > r.Bound && r.Metric != "setup_s" {
			mark = "  EXCEEDS"
			bad = append(bad, r.Workload+"/"+r.Metric)
		}
		fmt.Printf("%-11s %-15s %12.4f %12.4f %12.4f %8.4f %6.2f%s\n", r.Workload, r.Metric, r.Q1, r.Median, r.Q3, r.Spread, r.Bound, mark)
	}
	for _, r := range runs {
		if !r.Correct {
			bad = append(bad, fmt.Sprintf("%s seed %d incorrect %v", r.Workload, r.Seed, r.Violations))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("A/A failed: %s", strings.Join(bad, "; "))
	}
	return nil
}
