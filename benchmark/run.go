package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mvdb/internal/core"
	"mvdb/internal/dblp"
	"mvdb/internal/engine"
	"mvdb/internal/mvindex"
	"mvdb/internal/ucq"
)

// setupRuns is how many times a run starts the server to time its set-up;
// the metric is their median. A traced run starts it once.
const setupRuns = 3

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runConfig is what one run of one workload needs.
type runConfig struct {
	sp      spec
	seed    int64
	seconds int
	trace   bool
	mvdbd   string // path of the server binary
	workDir string // scratch directory for WAL directories and server logs
	outDir  string // where traces are written
}

// runResult is one run of one workload: what the driver reads (correct,
// attempted, failed, the metrics) and the detail the report keeps.
type runResult struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Seconds   int    `json:"window_seconds"`
	Trace     bool   `json:"trace"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// FailedShare is Failed over Attempted: the issue's failed_share. It is
	// 0 on a healthy run, so it cannot be a bounded metric of the contract.
	FailedShare float64 `json:"failed_share"`
	// Violations are the reasons Correct is false beyond failed requests: a
	// validity gate of the workload, or the durability probe.
	Violations []string          `json:"violations,omitempty"`
	EndToEnd   map[string]metric `json:"end_to_end"`
	PerLayer   map[string]metric `json:"per_layer"`

	SetupSeconds []float64       `json:"setup_s_samples"`
	Reads        map[string]dist `json:"read_ms_by_class"`
	Writes       map[string]dist `json:"write_ms_by_class"`
	ReadsFrom    string          `json:"reads_from"`  // "window" or "probe"
	WritesFrom   string          `json:"writes_from"` // "window" or "probe"
	WindowOps    int             `json:"window_ops"`
	WindowSecs   float64         `json:"window_elapsed_s"`
	SendLag      *dist           `json:"send_lag_ms,omitempty"`      // open loop: every read
	IdleSendLag  *dist           `json:"idle_send_lag_ms,omitempty"` // open loop: reads due while the connection was free
	Layers       []layerShare    `json:"trace_layers,omitempty"`
}

func (r *runResult) violate(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// runWorkload runs one workload once, from server start to the checks.
func runWorkload(cfg runConfig) (res *runResult, err error) {
	sp := cfg.sp
	res = &runResult{
		Workload: sp.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		EndToEnd: map[string]metric{}, PerLayer: map[string]metric{},
		Reads: map[string]dist{}, Writes: map[string]dist{},
	}
	ds, err := newDataset(sp.domain)
	if err != nil {
		return nil, err
	}
	gen := newGenerator(sp, ds, cfg.seed)
	bodies, err := queryBodies(ds.queries)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.workDir)
	logPath := filepath.Join(cfg.workDir, "mvdbd.log")
	// A failed run copies the server's log to standard error before the
	// scratch directory goes.
	defer func() {
		if err != nil {
			if b, rerr := os.ReadFile(logPath); rerr == nil {
				fmt.Fprintf(os.Stderr, "--- mvdbd log ---\n%s", b)
			}
		}
	}()

	// Set-up, several times over: each in a fresh WAL directory, all but the
	// last killed as soon as they are ready.
	n := setupRuns
	if cfg.trace {
		n = 1
	}
	var srv *child
	var walDir string
	for i := 0; i < n; i++ {
		walDir = filepath.Join(cfg.workDir, fmt.Sprintf("wal%d", i))
		if err := os.MkdirAll(walDir, 0o755); err != nil {
			return nil, err
		}
		var took time.Duration
		srv, took, err = startServer(cfg.mvdbd, sp, walDir, logPath)
		if err != nil {
			return nil, err
		}
		res.SetupSeconds = append(res.SetupSeconds, took.Seconds())
		if i < n-1 {
			srv.kill()
		}
	}
	// The server may be replaced by the durability probe; whichever is
	// current is stopped on every way out.
	defer func() { srv.kill() }()

	readers := make([]*reader, readClients)
	for c := range readers {
		readers[c] = newReader(srv.base, bodies)
		defer readers[c].c.close()
	}
	wr := &writer{c: newClient(srv.base), g: gen}
	defer wr.c.close()

	// Warm-up, untimed but reported: the first structural batch (a full
	// compile that creates the block record the delta path diffs against)
	// where the window writes, one pass over the hot pool where it reads.
	warm0 := time.Now()
	var firstStructural sample
	if sp.window != readWindow {
		firstStructural = wr.write(time.Now(), warm0)
	}
	if sp.window != writeWindow {
		for _, qi := range ds.pool {
			readers[0].read(qi, ds.queries[qi].class, time.Now(), warm0)
		}
	}
	warmup := time.Since(warm0)

	// The timed window.
	before, err := readers[0].c.stats()
	if err != nil {
		return nil, fmt.Errorf("benchmark: GET /stats: %w", err)
	}
	writesBefore := len(wr.resps)
	window := time.Duration(cfg.seconds) * time.Second
	var reads, writes []sample
	var readTimings []timing
	start := time.Now()
	switch sp.window {
	case readWindow:
		reads = closedReads(readers, gen, start, window)
	case writeWindow:
		for time.Since(start) < window {
			writes = append(writes, wr.write(time.Now(), start))
		}
	case mixedWindow:
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			reads = make([]sample, cfg.seconds*mixedReadRate)
			readTimings = openLoop(wallClock{}, start, time.Second/mixedReadRate, len(reads), func(i int, due time.Time) {
				qi := gen.read(0)
				reads[i] = readers[0].read(qi, ds.queries[qi].class, due, start)
			})
			for i, t := range readTimings {
				reads[i].lagMs = t.lagMs()
			}
		}()
		go func() {
			defer wg.Done()
			writes = make([]sample, cfg.seconds*mixedWriteRate)
			openLoop(wallClock{}, start, time.Second/mixedWriteRate, len(writes), func(i int, due time.Time) {
				writes[i] = wr.write(due, start)
			})
		}()
		wg.Wait()
	}
	elapsed := time.Since(start)
	after, err := readers[0].c.stats()
	if err != nil {
		return nil, fmt.Errorf("benchmark: GET /stats: %w", err)
	}
	peak, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	windowOps := 0
	for _, s := range reads {
		if s.ok {
			windowOps++
		}
	}
	windowOps += len(wr.resps) - writesBefore
	res.WindowOps, res.WindowSecs = windowOps, elapsed.Seconds()

	// The probe: the class the window lacks, so that every workload reports
	// every latency metric. It runs after the window's counters are read.
	res.ReadsFrom, res.WritesFrom = "window", "window"
	probe0 := time.Now()
	switch sp.window {
	case readWindow:
		res.WritesFrom = "probe"
		firstStructural = wr.write(time.Now(), probe0)
		for i := 0; i < probeWrites; i++ {
			writes = append(writes, wr.write(time.Now(), probe0))
		}
	case writeWindow:
		res.ReadsFrom = "probe"
		reads = closedReads(readers, gen, probe0, window/2)
	}

	// Only the first structural batch may compile in full: a later one that
	// fell back would mix two code paths into the write latencies.
	for i, r := range wr.resps {
		if i > 0 && r.Full {
			res.violate("write %d fell back to a full recompile", i)
			break
		}
	}

	// Read-back: the point query of every reserved student, after all writes.
	// On write_only these reads count towards the read latencies.
	readBack := map[int][]row{}
	for qi := ds.readBack0; qi < len(ds.queries); qi++ {
		s := readers[1].read(qi, classPoint, time.Now(), probe0)
		if sp.window == writeWindow {
			reads = append(reads, s)
		}
		readBack[qi] = readers[1].first[qi]
	}
	final, err := readers[0].c.stats()
	if err != nil {
		return nil, fmt.Errorf("benchmark: GET /stats: %w", err)
	}

	// Durability: kill -9, restart on the same WAL directory, and every
	// acknowledged batch must read back exactly as before the crash; then a
	// SIGTERM must drain and exit 0.
	srv.kill()
	var recovered time.Duration
	srv, recovered, err = startServer(cfg.mvdbd, sp, walDir, logPath)
	if err != nil {
		return nil, fmt.Errorf("benchmark: restart after kill -9: %w", err)
	}
	rec := newReader(srv.base, bodies)
	for qi := ds.readBack0; qi < len(ds.queries); qi++ {
		rec.read(qi, classPoint, time.Now(), probe0)
		if !sameRows(rec.first[qi], readBack[qi], 0) {
			rec.failed++
		}
	}
	rec.c.close()
	if rec.failed > 0 {
		res.violate("%d of %d read-backs differ after kill -9 and recovery", rec.failed, len(readBack))
	}
	if err := srv.terminate(); err != nil {
		res.violate("%v", err)
	}

	// Correctness against a from-scratch rebuild with the acknowledged
	// batches applied.
	ref, err := referenceIndex(sp.domain, wr.acked)
	if err != nil {
		return nil, err
	}
	for _, r := range append(readers, rec) {
		res.Failed += r.failed
		for qi, n := range r.count {
			res.Attempted += n
			first, ok := r.first[qi]
			if !ok { // never got a response: already counted as failed
				continue
			}
			want, err := referenceRows(ref, ds.queries[qi].text)
			if err != nil {
				return nil, err
			}
			if !sameRows(first, want, tolerance) {
				res.Failed += n
			}
		}
	}
	res.Attempted += wr.next
	res.Failed += wr.failed
	if res.Attempted > 0 {
		res.FailedShare = float64(res.Failed) / float64(res.Attempted)
	}

	// Metrics.
	readMs, writeMs := latencies(reads), latencies(writes)
	if len(readMs) == 0 || len(writeMs) == 0 {
		return nil, fmt.Errorf("benchmark: %s: %d reads and %d writes succeeded; see the failures above", sp.name, len(readMs), len(writeMs))
	}
	byClass(res.Reads, reads)
	byClass(res.Writes, writes)
	res.EndToEnd["setup_s"] = metric{median(res.SetupSeconds), "s"}
	res.EndToEnd["throughput_rps"] = metric{float64(windowOps) / elapsed.Seconds(), "1/s"}
	res.EndToEnd["read_p50_ms"] = metric{res.Reads["all"].P50, "ms"}
	res.EndToEnd["write_p50_ms"] = metric{res.Writes["all"].P50, "ms"}
	res.EndToEnd["peak_rss_mb"] = metric{peak, "MB"}

	// Per-layer numbers seen from outside: /stats deltas over the window and
	// the server's own "millis" against the client's clock.
	primary := reads
	if sp.window == writeWindow {
		primary = writes
	}
	var overhead []float64
	for _, s := range primary {
		if s.ok {
			overhead = append(overhead, s.ms-s.lagMs-s.serverMs)
		}
	}
	pl := res.PerLayer
	// The tails, as the client saw them. They carry no bound: ten seconds
	// hold too few of the slow writes, and of the reads stalled behind them,
	// for the same binary to agree with itself.
	pl["read_p99_ms"] = metric{res.Reads["all"].P99, "ms"}
	pl["write_p90_ms"] = metric{res.Writes["all"].P90, "ms"}
	pl["server.overhead_ms"] = metric{median(overhead), "ms"}
	da, dl := delta(before.Cache.Answers, after.Cache.Answers), delta(before.Cache.Lineage, after.Cache.Lineage)
	pl["qcache.answer_hit_rate"] = metric{hitRate(da), "ratio"}
	pl["qcache.lineage_hit_rate"] = metric{hitRate(dl), "ratio"}
	pl["qcache.evictions"] = metric{float64(da.Evictions), "count"}
	batches := float64(len(wr.resps) - writesBefore)
	pl["wal.bytes_per_batch"] = metric{float64(final.Live.WAL.Bytes-before.Live.WAL.Bytes) / batches, "B"}
	pl["wal.frames_per_batch"] = metric{float64(final.Live.WAL.Frames-before.Live.WAL.Frames) / batches, "count"}
	var recompiled, reused, structural float64
	for i, r := range wr.resps {
		if i > 0 && !r.WeightOnly {
			recompiled += float64(r.Recompiled)
			reused += float64(r.Reused)
			structural++
		}
	}
	pl["mvindex.blocks_recompiled"] = metric{recompiled / structural, "count"}
	pl["mvindex.blocks_reused"] = metric{reused / structural, "count"}
	pl["mvindex.garbage_ratio"] = metric{float64(final.ManagerNodes) / float64(final.IndexNodes), "ratio"}
	pl["server.first_structural_ms"] = metric{firstStructural.ms, "ms"}
	pl["server.warmup_s"] = metric{warmup.Seconds(), "s"}
	pl["server.recover_s"] = metric{recovered.Seconds(), "s"}
	pl["loadgen.send_lag_p99_ms"] = metric{0, "ms"}
	if readTimings != nil {
		var lag, idleLag []float64
		for i, t := range readTimings {
			lag = append(lag, t.lagMs())
			if idleBefore(readTimings, i) {
				idleLag = append(idleLag, t.lagMs())
			}
		}
		all, idle := summarize(lag), summarize(idleLag)
		res.SendLag, res.IdleSendLag = &all, &idle
		pl["loadgen.send_lag_p99_ms"] = metric{all.P99, "ms"}
		// Outside write stalls the generator itself must be on time, or the
		// latencies it reports from the due instant are its own. It ran
		// 0.2 to 0.5 ms late at p99 here; a whole interval late is a schedule
		// not kept.
		if limit := 1e3 / mixedReadRate; idle.P99 >= limit {
			res.violate("generator ran late: p99 send lag %.3f ms with the connection free, limit %.1f ms", idle.P99, limit)
		}
	}

	if hit := hitRate(da); hit < sp.hitMin || hit > sp.hitMax {
		res.violate("answer-cache hit rate %.3f is outside [%g, %g]", hit, sp.hitMin, sp.hitMax)
	}

	if cfg.trace {
		layers, err := tracedRun(cfg, ds, pl)
		if err != nil {
			return nil, err
		}
		res.Layers = layers
	}
	res.Correct = res.Failed == 0 && len(res.Violations) == 0
	return res, nil
}

func latencies(samples []sample) []float64 {
	var out []float64
	for _, s := range samples {
		if s.ok {
			out = append(out, s.ms)
		}
	}
	return out
}

// byClass fills into with the latency distribution of each class and of all.
func byClass(into map[string]dist, samples []sample) {
	groups := map[string][]float64{}
	for _, s := range samples {
		if s.ok {
			groups[s.class] = append(groups[s.class], s.ms)
			groups["all"] = append(groups["all"], s.ms)
		}
	}
	for class, ms := range groups {
		into[class] = summarize(ms)
	}
}

func delta(a, b cacheCounters) cacheCounters {
	return cacheCounters{Hits: b.Hits - a.Hits, Misses: b.Misses - a.Misses, Evictions: b.Evictions - a.Evictions}
}

// hitRate is hits over lookups, 0 when there were none.
func hitRate(c cacheCounters) float64 {
	if c.Hits+c.Misses == 0 {
		return 0
	}
	return float64(c.Hits) / float64(c.Hits+c.Misses)
}

// referenceIndex builds, in this process and from scratch, the index the
// server should now hold: generate, apply the acknowledged batches to the
// base tables, translate, compile. It shares no state with the server's
// incremental path.
func referenceIndex(domain int, acked []writeOp) (*mvindex.Index, error) {
	d, err := dblp.Generate(dblp.Config{NumAuthors: domain, Seed: datasetSeed})
	if err != nil {
		return nil, err
	}
	m, err := d.MVDB()
	if err != nil {
		return nil, err
	}
	for i, op := range acked {
		batch := op.core()
		if err := m.ValidateBatch(batch); err != nil {
			return nil, fmt.Errorf("benchmark: acknowledged write %d is invalid on the reference: %w", i, err)
		}
		if err := m.Apply(batch); err != nil {
			return nil, err
		}
	}
	tr, err := m.Translate(core.TranslateOptions{})
	if err != nil {
		return nil, err
	}
	return mvindex.Build(tr)
}

// referenceRows evaluates a query on the reference index, uncached.
func referenceRows(ix *mvindex.Index, text string) ([]row, error) {
	q, err := ucq.Parse(text)
	if err != nil {
		return nil, err
	}
	got, err := ix.Query(q, mvindex.IntersectOptions{CacheConscious: true, DisableCache: true})
	if err != nil {
		return nil, fmt.Errorf("benchmark: reference query %q: %w", text, err)
	}
	answers := make([]answer, len(got))
	for i, a := range got {
		answers[i] = answer{Head: headOf(a.Head), Prob: a.Prob}
	}
	return rowsOf(answers), nil
}

// headOf converts a head tuple to the form the server encodes it in.
func headOf(vals []engine.Value) []any {
	head := make([]any, len(vals))
	for i, v := range vals {
		if v.IsStr {
			head[i] = v.Str
		} else {
			head[i] = v.Int
		}
	}
	return head
}
