package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"mvdb/internal/core"
	"mvdb/internal/dblp"
	"mvdb/internal/mvindex"
	"mvdb/internal/obdd"
	"mvdb/internal/ucq"
)

// reorderRepeats is the number of timed repetitions per query leg; the
// minimum is reported, which is robust against GC noise at these sizes.
const reorderRepeats = 3

// ReorderSifting measures what dynamic variable reordering buys on the DBLP
// views. For each domain and view subset it runs three legs over the SAME
// translation (variable ids are only meaningful within one translation, so
// all orders are derived in-process):
//
//   - pi: the tuned static separator-first order Π (the default build);
//   - naive: a block-local naive order — the variables inside each chain
//     block window are shuffled with a seeded RNG, modelling an untuned
//     within-block order while preserving the chain factorization so the
//     compile stays tractable;
//   - sifted: per-block Rudell sifting to convergence, started from the
//     naive index.
//
// The headline number is the sifted-vs-naive node reduction: what the
// dynamic reorderer recovers when the static order is poor. The pi columns
// show how close sifting lands to (and typically beyond) the hand-tuned
// order. Every row cross-checks all three legs' answers to 1e-12 — a
// latency win on a wrong index would be meaningless.
func ReorderSifting(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	t := &Table{
		ID:    "reorder",
		Title: "dynamic variable reordering (Rudell sifting, per-block windows)",
		Columns: []string{
			"aid1 domain", "views", "nodes-naive", "nodes-pi", "nodes-sifted",
			"reduction", "sift(ms)", "rounds",
			"query-naive(ms)", "query-pi(ms)", "query-sifted(ms)", "same",
		},
	}
	for _, n := range opts.Domains {
		for _, views := range []string{"1", "2", "3", "123"} {
			d, _, tr, err := pipeline(n, opts.Seed, views)
			if err != nil {
				return nil, err
			}
			queries := reorderQueries(d, opts.Queries)

			// Leg 1: the tuned static order Π.
			ixPi, err := buildIndex(tr)
			if err != nil {
				return nil, err
			}
			nodesPi := ixPi.Size()
			piAns, piMs, err := timeQueries(ixPi, queries)
			if err != nil {
				return nil, err
			}

			// Leg 2: naive block-local order on the same translation.
			naive := naiveOrder(ixPi.Manager().Order(), ixPi.BlockWindows(),
				int64(opts.Seed))
			ix, err := mvindex.BuildOrder(tr, naive)
			if err != nil {
				return nil, err
			}
			nodesNaive := ix.Size()
			naiveAns, naiveMs, err := timeQueries(ix, queries)
			if err != nil {
				return nil, err
			}

			// Leg 3: sift the naive index to convergence.
			st, err := ix.Sift(obdd.ReorderOptions{Mode: obdd.ReorderConverge})
			if err != nil {
				return nil, err
			}
			nodesSifted := ix.Size()
			siftedAns, siftedMs, err := timeQueries(ix, queries)
			if err != nil {
				return nil, err
			}
			same := answersMatchLists(naiveAns, piAns, 1e-12) &&
				answersMatchLists(siftedAns, piAns, 1e-12)

			reduction := 0.0
			if nodesNaive > 0 {
				reduction = 1 - float64(nodesSifted)/float64(nodesNaive)
			}
			siftMs := float64(st.Duration.Microseconds()) / 1000
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(n), views,
				fmt.Sprint(nodesNaive), fmt.Sprint(nodesPi), fmt.Sprint(nodesSifted),
				fmt.Sprintf("%.1f%%", 100*reduction),
				fmt.Sprintf("%.1f", siftMs), fmt.Sprint(st.Rounds),
				fmt.Sprintf("%.3f", naiveMs), fmt.Sprintf("%.3f", piMs),
				fmt.Sprintf("%.3f", siftedMs),
				fmt.Sprint(same),
			})
			t.addSeries("domain", float64(n))
			t.addSeries("views", float64(viewsKey(views)))
			t.addSeries("nodes-naive", float64(nodesNaive))
			t.addSeries("nodes-pi", float64(nodesPi))
			t.addSeries("nodes-sifted", float64(nodesSifted))
			t.addSeries("reduction", reduction)
			t.addSeries("sift-ms", siftMs)
			t.addSeries("sift-rounds", float64(st.Rounds))
			t.addSeries("query-naive-ms", naiveMs)
			t.addSeries("query-pi-ms", piMs)
			t.addSeries("query-sifted-ms", siftedMs)
			t.addSeries("same", b2f(same))
		}
	}
	return t, nil
}

// naiveOrder derives the naive static leg's order from the tuned order:
// each chain-block window's variables are shuffled with a deterministic
// RNG. Variables never cross window boundaries, so the chain factorization
// (and with it compile tractability) is preserved; within a block the order
// carries none of Π's tuning. Note the result is only meaningful as an
// order for the translation that produced `order` — variable ids are not
// stable across fresh translations.
func naiveOrder(order []int, wins [][2]int, seed int64) []int {
	naive := append([]int(nil), order...)
	rng := rand.New(rand.NewSource(seed))
	for _, w := range wins {
		seg := naive[w[0]:w[1]]
		rng.Shuffle(len(seg), func(i, j int) { seg[i], seg[j] = seg[j], seg[i] })
	}
	return naive
}

// viewsKey encodes a view subset as a number for the Series map ("123" →
// 123).
func viewsKey(views string) int {
	k := 0
	for _, c := range views {
		k = 10*k + int(c-'0')
	}
	return k
}

// reorderQueries is the mixed Figure 5/11 workload: advisors of a student
// spread over the domain plus affiliations of an author. Both relations
// exist in every view subset (the views only add constraints).
func reorderQueries(d *dblp.Dataset, k int) []*ucq.Query {
	if k < 2 {
		k = 2
	}
	var qs []*ucq.Query
	for i := 0; i < k && i < len(d.Students); i++ {
		s := d.Students[(i*len(d.Students))/k]
		qs = append(qs, dblp.QueryAdvisorOfStudent(s))
	}
	for i := 0; i < k/2 && i < len(d.Students); i++ {
		s := d.Students[(i*2*len(d.Students)+1)/k%len(d.Students)]
		qs = append(qs, dblp.QueryAffiliationOfAuthor(s))
	}
	return qs
}

// timeQueries runs the workload reorderRepeats times and returns the flat
// answer list (for equivalence checks) and the best per-query latency in
// milliseconds.
func timeQueries(ix *mvindex.Index, qs []*ucq.Query) ([]coreAnswerList, float64, error) {
	var answers []coreAnswerList
	var best time.Duration
	for rep := 0; rep < reorderRepeats; rep++ {
		runtime.GC()
		t0 := time.Now()
		var cur []coreAnswerList
		for _, q := range qs {
			a, err := ix.Query(q, mvindex.IntersectOptions{})
			if err != nil {
				return nil, 0, err
			}
			cur = append(cur, a)
		}
		el := time.Since(t0)
		if rep == 0 || el < best {
			best = el
		}
		answers = cur
	}
	perQuery := float64(best.Microseconds()) / 1000 / float64(len(qs))
	return answers, perQuery, nil
}

// coreAnswerList is one query's answer list.
type coreAnswerList = []core.Answer

// answersMatchLists compares per-query answer lists pairwise.
func answersMatchLists(a, b []coreAnswerList, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !answersMatch(a[i], b[i], tol) {
			return false
		}
	}
	return true
}

// reorderReport is the JSON shape of BENCH_reorder.json.
type reorderReport struct {
	Repeats int                `json:"repeats"`
	Rows    []reorderReportRow `json:"rows"`
}

type reorderReportRow struct {
	Domain        int     `json:"domain"`
	Views         string  `json:"views"`
	NodesNaive    int     `json:"nodes_naive"`
	NodesPi       int     `json:"nodes_pi"`
	NodesSifted   int     `json:"nodes_sifted"`
	Reduction     float64 `json:"reduction"`
	SiftMs        float64 `json:"sift_ms"`
	SiftRounds    int     `json:"sift_rounds"`
	QueryNaiveMs  float64 `json:"query_naive_ms"`
	QueryPiMs     float64 `json:"query_pi_ms"`
	QuerySiftedMs float64 `json:"query_sifted_ms"`
	Same          bool    `json:"same"`
}

// WriteReorderJSON renders the reorder experiment's table as the
// BENCH_reorder.json report.
func WriteReorderJSON(w io.Writer, t *Table) error {
	if t.ID != "reorder" {
		return fmt.Errorf("bench: WriteReorderJSON wants the reorder table, got %q", t.ID)
	}
	rep := reorderReport{Repeats: reorderRepeats}
	for i := range t.Series["domain"] {
		rep.Rows = append(rep.Rows, reorderReportRow{
			Domain:        int(t.Series["domain"][i]),
			Views:         fmt.Sprint(int(t.Series["views"][i])),
			NodesNaive:    int(t.Series["nodes-naive"][i]),
			NodesPi:       int(t.Series["nodes-pi"][i]),
			NodesSifted:   int(t.Series["nodes-sifted"][i]),
			Reduction:     t.Series["reduction"][i],
			SiftMs:        t.Series["sift-ms"][i],
			SiftRounds:    int(t.Series["sift-rounds"][i]),
			QueryNaiveMs:  t.Series["query-naive-ms"][i],
			QueryPiMs:     t.Series["query-pi-ms"][i],
			QuerySiftedMs: t.Series["query-sifted-ms"][i],
			Same:          t.Series["same"][i] == 1,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
