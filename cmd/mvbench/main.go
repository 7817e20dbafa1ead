// Command mvbench regenerates every table and figure of the paper's
// evaluation (Section 5) on the synthetic DBLP dataset and prints them as
// text tables. See EXPERIMENTS.md for a recorded run and the paper-vs-
// measured comparison.
//
// Usage:
//
//	mvbench                         # run everything with default sweeps
//	mvbench -exp fig8               # one experiment
//	mvbench -domains 1000,2000      # custom aid-domain sweep
//	mvbench -full 50000             # full-dataset size for fig10/fig11
//	mvbench -quick                  # small sweeps (seconds, not minutes)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"mvdb/internal/bench"
)

func main() {
	var (
		exp         = flag.String("exp", "all", "experiment id: fig1,fig4,fig5,fig6,fig7,fig8,fig9,fig10,fig11,cache,update,reorder,madden,ablate-entry,methods,marginals,exactness or all")
		domains     = flag.String("domains", "", "comma-separated aid-domain sweep (default 1000..10000)")
		full        = flag.Int("full", 0, "full-dataset author count for fig10/fig11/madden")
		seed        = flag.Int64("seed", 1, "generator seed")
		samples     = flag.Int("mcsat-samples", 0, "MC-SAT samples for fig5/fig6")
		quick       = flag.Bool("quick", false, "small sweeps for a fast smoke run")
		format      = flag.String("format", "text", "output format: text or csv")
		useCache    = flag.Bool("cache", true, "run the cached leg of the cache experiment (false = baseline-only ablation)")
		cacheJSON   = flag.String("cache-json", "BENCH_cache.json", "file for the cache experiment's JSON report (empty to skip)")
		updateJSON  = flag.String("update-json", "BENCH_update.json", "file for the update experiment's JSON report (empty to skip)")
		reorderJSON = flag.String("reorder-json", "BENCH_reorder.json", "file for the reorder experiment's JSON report (empty to skip)")
		maxGrowth   = flag.Float64("reorder-max-growth", 0, "sifting growth bound for the reorder experiment (0 = obdd default)")
		maxRounds   = flag.Int("reorder-rounds", 0, "max sifting rounds for the reorder experiment (0 = obdd default)")
		timeout     = flag.Duration("timeout", 0, "watchdog per experiment (0 = none); a stuck experiment aborts the run with exit 1")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memprofile  = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mvbench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "mvbench: starting CPU profile: %v\n", err)
			os.Exit(1)
		}
		// LIFO: StopCPUProfile must flush before the file closes.
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mvbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live objects before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "mvbench: writing heap profile: %v\n", err)
			}
		}()
	}

	opts := bench.Defaults()
	if *quick {
		opts = bench.Small()
	}
	opts.Seed = *seed
	opts.Cache = *useCache
	opts.ReorderMaxGrowth = *maxGrowth
	opts.ReorderRounds = *maxRounds
	if *domains != "" {
		opts.Domains = nil
		for _, s := range strings.Split(*domains, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fmt.Fprintf(os.Stderr, "mvbench: bad domain %q: %v\n", s, err)
				os.Exit(2)
			}
			opts.Domains = append(opts.Domains, n)
		}
	}
	if *full > 0 {
		opts.FullAuthors = *full
	}
	if *samples > 0 {
		opts.MCSatSamples = *samples
	}

	run := func(id string) {
		runner, ok := bench.ByID(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "mvbench: unknown experiment %q\n", id)
			os.Exit(2)
		}
		t0 := time.Now()
		if *timeout > 0 {
			// Watchdog: a wedged experiment must not hang an unattended
			// sweep forever. The experiments have no cancellation hooks, so
			// the deadline is enforced by aborting the process.
			wd := time.AfterFunc(*timeout, func() {
				fmt.Fprintf(os.Stderr, "mvbench: %s exceeded the %v watchdog; aborting\n", id, *timeout)
				os.Exit(1)
			})
			defer wd.Stop()
		}
		tab, err := runner(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mvbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		if *format == "csv" {
			if err := tab.FprintCSV(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "mvbench: %v\n", err)
				os.Exit(1)
			}
		} else {
			tab.Fprint(os.Stdout)
			fmt.Printf("(%s completed in %v)\n\n", id, time.Since(t0).Round(time.Millisecond))
		}
		switch {
		case id == "cache" && *useCache:
			writeReport(*cacheJSON, func(w io.Writer) error { return bench.WriteCacheJSON(w, tab, opts) })
		case id == "update":
			writeReport(*updateJSON, func(w io.Writer) error { return bench.WriteUpdateJSON(w, tab) })
		case id == "reorder":
			writeReport(*reorderJSON, func(w io.Writer) error { return bench.WriteReorderJSON(w, tab) })
		}
	}

	if *exp == "all" {
		for _, id := range []string{"fig1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "cache", "update", "reorder", "madden", "ablate-entry", "methods", "marginals", "exactness"} {
			run(id)
		}
		return
	}
	for _, id := range strings.Split(*exp, ",") {
		run(strings.TrimSpace(id))
	}
}

// writeReport writes an experiment's JSON report to path; an empty path
// skips it. A failure ends the run.
func writeReport(path string, write func(io.Writer) error) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err == nil {
		err = write(f)
	}
	if err == nil {
		err = f.Close()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mvbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "mvbench: wrote %s\n", path)
}
