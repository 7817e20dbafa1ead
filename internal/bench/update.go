package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"time"

	"mvdb/internal/core"
	"mvdb/internal/dblp"
	"mvdb/internal/engine"
	"mvdb/internal/mvindex"
)

// updateRounds is the number of timed small-batch updates per domain; with
// the warmup batch excluded, p50 is robust and p99 is effectively the max.
const updateRounds = 8

// UpdateMaintenance measures the live-update write path: small mutation
// batches (an insert, a reweight, a delete — touching at most three
// separator blocks) applied to a DBLP-scale index with the incremental
// maintenance path (ApplyMutations: patch the translation, recompile and
// re-augment only dirty blocks, keep the rest by pointer) versus the
// from-scratch baseline a non-incremental system pays per batch (full
// re-translate + full OBDD compile + index build). The final incremental
// index is verified against the from-scratch rebuild on the mutated
// students' queries to 1e-12 (the speedup column is meaningless if the two
// indexes drift).
func UpdateMaintenance(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	t := &Table{
		ID:    "update",
		Title: "incremental maintenance vs full recompile (small batches)",
		Columns: []string{
			"aid1 domain", "batch", "rounds",
			"incr-p50(ms)", "incr-p99(ms)", "full(ms)", "speedup",
			"reused/blocks", "same",
		},
	}
	for _, n := range opts.Domains {
		d, _, tr, err := pipeline(n, opts.Seed, "12")
		if err != nil {
			return nil, err
		}
		ix, err := buildIndex(tr)
		if err != nil {
			return nil, err
		}
		if len(d.Students) < updateRounds+1 {
			return nil, fmt.Errorf("bench: domain %d has only %d students", n, len(d.Students))
		}
		// Fresh advisor ids far outside the author domain: inserts never
		// collide with generated tuples, and each round mutates a distinct
		// student so a batch dirties a bounded set of separator blocks.
		adv := func(i int) int64 { return int64(1_000_000 + i) }
		batchFor := func(i int) []core.Mutation {
			b := []core.Mutation{{
				Op: core.MutInsert, Rel: "Advisor",
				Vals:   []engine.Value{engine.Int(d.Students[i+1]), engine.Int(adv(i))},
				Weight: 1.5,
			}}
			if i >= 1 {
				b = append(b, core.Mutation{
					Op: core.MutReweight, Rel: "Advisor",
					Vals:   []engine.Value{engine.Int(d.Students[i]), engine.Int(adv(i - 1))},
					Weight: 0.8,
				})
			}
			if i >= 2 {
				b = append(b, core.Mutation{
					Op: core.MutDelete, Rel: "Advisor",
					Vals: []engine.Value{engine.Int(d.Students[i-1]), engine.Int(adv(i - 2))},
				})
			}
			return b
		}

		// Warmup structural batch, outside the timed rounds: the rounds
		// measure the steady state.
		if _, err := ix.ApplyMutations([]core.Mutation{{
			Op: core.MutInsert, Rel: "Advisor",
			Vals:   []engine.Value{engine.Int(d.Students[0]), engine.Int(999_999)},
			Weight: 1.2,
		}}); err != nil {
			return nil, err
		}

		var samples []time.Duration
		var blocks, reused, batchSize int
		for i := 0; i < updateRounds; i++ {
			b := batchFor(i)
			if len(b) > batchSize {
				batchSize = len(b)
			}
			runtime.GC()
			t0 := time.Now()
			st, err := ix.ApplyMutations(b)
			if err != nil {
				return nil, err
			}
			samples = append(samples, time.Since(t0))
			if st.Full {
				return nil, fmt.Errorf("bench: domain %d round %d fell back to a full recompile", n, i)
			}
			blocks += st.Blocks
			reused += st.Reused
		}

		// Full-rebuild baseline on the same final state, best of two runs.
		src := ix.Source()
		var full time.Duration
		var ixFull *mvindex.Index
		for rep := 0; rep < 2; rep++ {
			work := &core.MVDB{DB: src.DB.Clone(), Views: src.Views}
			runtime.GC()
			t0 := time.Now()
			trF, err := work.Translate(core.TranslateOptions{})
			if err != nil {
				return nil, err
			}
			ixF, err := buildIndex(trF)
			if err != nil {
				return nil, err
			}
			if d := time.Since(t0); rep == 0 || d < full {
				full = d
			}
			ixFull = ixF
		}

		same := true
		for i := 0; i < updateRounds && same; i++ {
			q := dblp.QueryAdvisorOfStudent(d.Students[i+1])
			a, err := ix.Query(q, mvindex.IntersectOptions{})
			if err != nil {
				return nil, err
			}
			b, err := ixFull.Query(q, mvindex.IntersectOptions{})
			if err != nil {
				return nil, err
			}
			same = answersMatch(a, b, 1e-12)
		}

		p50, p99 := percentile(samples, 0.5), percentile(samples, 0.99)
		speedup := full.Seconds() / p50.Seconds()
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(batchSize), fmt.Sprint(updateRounds),
			millis(p50), millis(p99), millis(full), fmt.Sprintf("%.2fx", speedup),
			fmt.Sprintf("%d/%d", reused, blocks),
			fmt.Sprint(same),
		})
		t.addSeries("domain", float64(n))
		t.addSeries("incr-p50-ms", float64(p50.Microseconds())/1000)
		t.addSeries("incr-p99-ms", float64(p99.Microseconds())/1000)
		t.addSeries("full-ms", float64(full.Microseconds())/1000)
		t.addSeries("speedup", speedup)
		t.addSeries("same", b2f(same))
	}
	return t, nil
}

func millis(d time.Duration) string { return fmt.Sprintf("%.3f", float64(d.Microseconds())/1000) }

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func percentile(samples []time.Duration, p float64) time.Duration {
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func answersMatch(a, b []core.Answer, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(h []engine.Value) string { return engine.TupleKey(h) }
	probs := make(map[string]float64, len(a))
	for _, r := range a {
		probs[key(r.Head)] = r.Prob
	}
	for _, r := range b {
		p, ok := probs[key(r.Head)]
		if !ok || math.Abs(p-r.Prob) > tol {
			return false
		}
	}
	return true
}

// updateReport is the JSON shape of BENCH_update.json.
type updateReport struct {
	Rounds    int               `json:"rounds"`
	BatchSize int               `json:"batch_size"`
	Rows      []updateReportRow `json:"rows"`
	// P50Growth is the incremental p50 at the largest domain over the p50 at
	// the smallest, next to how much the domain itself grew: how far the
	// fixed-size batch is from costing the same at every scale.
	P50Growth    float64 `json:"incr_p50_growth"`
	DomainGrowth float64 `json:"domain_growth"`
}

type updateReportRow struct {
	Domain    int     `json:"domain"`
	IncrP50Ms float64 `json:"incr_p50_ms"`
	IncrP99Ms float64 `json:"incr_p99_ms"`
	FullMs    float64 `json:"full_ms"`
	Speedup   float64 `json:"speedup"`
	Same      bool    `json:"same"`
}

// WriteUpdateJSON renders the update experiment's table as the
// BENCH_update.json report.
func WriteUpdateJSON(w io.Writer, t *Table) error {
	if t.ID != "update" {
		return fmt.Errorf("bench: WriteUpdateJSON wants the update table, got %q", t.ID)
	}
	rep := updateReport{Rounds: updateRounds, BatchSize: 3}
	for i := range t.Series["domain"] {
		rep.Rows = append(rep.Rows, updateReportRow{
			Domain:    int(t.Series["domain"][i]),
			IncrP50Ms: t.Series["incr-p50-ms"][i],
			IncrP99Ms: t.Series["incr-p99-ms"][i],
			FullMs:    t.Series["full-ms"][i],
			Speedup:   t.Series["speedup"][i],
			Same:      t.Series["same"][i] == 1,
		})
	}
	if n := len(rep.Rows); n > 1 {
		rep.P50Growth = rep.Rows[n-1].IncrP50Ms / rep.Rows[0].IncrP50Ms
		rep.DomainGrowth = float64(rep.Rows[n-1].Domain) / float64(rep.Rows[0].Domain)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
