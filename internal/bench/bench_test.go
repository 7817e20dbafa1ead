package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"mvdb/internal/ucq"
)

func small() Options { return Small() }

func TestFig1Inventory(t *testing.T) {
	tab, err := Fig1Inventory(small())
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range []string{"Author", "Student", "Advisor", "V1", "V2", "V3"} {
		if len(tab.Series[rel]) == 0 || tab.Series[rel][0] == 0 {
			t.Errorf("inventory: %s empty (%v)", rel, tab.Series[rel])
		}
	}
	var buf bytes.Buffer
	tab.Fprint(&buf)
	if !strings.Contains(buf.String(), "markoview") {
		t.Error("printed table lacks view rows")
	}
}

func TestFig4Linear(t *testing.T) {
	tab, err := Fig4LineageSize(small())
	if err != nil {
		t.Fatal(err)
	}
	lin := tab.Series["lineage"]
	dom := tab.Series["domain"]
	if len(lin) != 3 {
		t.Fatalf("series = %v", lin)
	}
	// Shape: monotone growth, roughly proportional to the domain.
	for i := 1; i < len(lin); i++ {
		if lin[i] <= lin[i-1] {
			t.Errorf("lineage not growing: %v", lin)
		}
	}
	ratio0 := lin[0] / dom[0]
	ratioN := lin[len(lin)-1] / dom[len(dom)-1]
	if ratioN > 2*ratio0 || ratio0 > 2*ratioN {
		t.Errorf("lineage growth not roughly linear: per-domain ratios %v vs %v", ratio0, ratioN)
	}
}

func TestFig5Shapes(t *testing.T) {
	tab, err := Fig5AdvisorOfStudent(small())
	if err != nil {
		t.Fatal(err)
	}
	mc := tab.Series["mcsat-sampling"]
	ix := tab.Series["mv-index"]
	for i := range ix {
		// The paper's headline: the MV-index is orders of magnitude faster
		// than sampling; require at least 10x here.
		if ix[i]*10 > mc[i] {
			t.Errorf("domain %v: mv-index %.6fs not >>10x faster than mcsat %.6fs",
				tab.Series["domain"][i], ix[i], mc[i])
		}
	}
}

func TestFig6Shapes(t *testing.T) {
	tab, err := Fig6StudentsOfAdvisor(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestFig7LinearSize(t *testing.T) {
	tab, err := Fig7OBDDSize(small())
	if err != nil {
		t.Fatal(err)
	}
	size := tab.Series["size"]
	width := tab.Series["width"]
	for i := 1; i < len(size); i++ {
		if size[i] < size[i-1] {
			t.Errorf("OBDD size shrank: %v", size)
		}
	}
	// Inversion-free view: constant width regardless of domain.
	for i := 1; i < len(width); i++ {
		if width[i] != width[0] {
			t.Errorf("width not constant: %v", width)
		}
	}
}

func TestFig8SameOBDD(t *testing.T) {
	// Use domains large enough for synthesis's superlinear term to show; at
	// toy sizes per-block constants dominate and timing ratios are noise.
	opts := small()
	opts.Domains = []int{500, 1500}
	tab, err := Fig8Construction(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Rows {
		if r[len(r)-1] != "true" {
			t.Errorf("synthesis and concatenation built different OBDDs: %v", r)
		}
	}
	// Shape check: synthesis cost grows faster than concatenation cost, so
	// the ratio cudd/mv must grow with the domain. (At toy domains constant
	// per-block overheads can make the absolute times close; the paper's
	// 100x gap appears at domains 1000-10000 — see EXPERIMENTS.md.)
	cudd := tab.Series["cudd"]
	mv := tab.Series["mv"]
	first, last := 0, len(cudd)-1
	if cudd[last]/mv[last] < cudd[first]/mv[first]*0.5 {
		t.Errorf("cudd/mv ratio shrank: %v -> %v (cudd %v, mv %v)",
			cudd[first]/mv[first], cudd[last]/mv[last], cudd, mv)
	}
}

func TestFig9BothExact(t *testing.T) {
	tab, err := Fig9Intersect(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, col := range []string{"mvintersect", "cc-mvintersect"} {
		for _, v := range tab.Series[col] {
			if v <= 0 {
				t.Errorf("%s reported non-positive time %v", col, v)
			}
		}
	}
}

func TestFig10And11(t *testing.T) {
	tab, err := Fig10StudentQueries(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != small().Queries {
		t.Errorf("fig10 rows = %d", len(tab.Rows))
	}
	for _, v := range tab.Series["answers"] {
		if v == 0 {
			t.Error("fig10 query with zero answers")
		}
	}
	tab, err = Fig11AffiliationQueries(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Error("fig11 empty")
	}
}

func TestMadden(t *testing.T) {
	tab, err := Madden(small())
	if err != nil {
		t.Fatal(err)
	}
	if tab.Series["answers"][0] == 0 {
		t.Error("madden query returned no students")
	}
}

// TestCacheExperiment runs the cache experiment on a small sweep and checks
// the correctness column (cached answers identical to uncached) plus the JSON
// report round-trip. Timing columns are load-sensitive and not asserted.
func TestCacheExperiment(t *testing.T) {
	opts := small()
	opts.Domains = []int{200}
	opts.Cache = true
	opts.CacheRequests = 40
	opts.CacheDistinct = 5
	tab, err := CacheServing(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 1 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if same := tab.Rows[0][len(tab.Rows[0])-1]; same != "true" {
		t.Errorf("cached answers diverged from uncached: %v", tab.Rows[0])
	}
	var buf strings.Builder
	if err := WriteCacheJSON(&buf, tab, opts); err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Requests int `json:"requests"`
		Rows     []struct {
			Domain      int     `json:"domain"`
			UncachedSec float64 `json:"uncached_sec"`
			HitRate     float64 `json:"answer_hit_rate"`
		} `json:"rows"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &rep); err != nil {
		t.Fatalf("bad JSON report: %v", err)
	}
	if rep.Requests != 40 || len(rep.Rows) != 1 || rep.Rows[0].Domain != 200 ||
		rep.Rows[0].UncachedSec <= 0 || rep.Rows[0].HitRate <= 0 {
		t.Errorf("report = %+v", rep)
	}

	// Baseline-only ablation: no cached leg, and the JSON writer refuses.
	opts.Cache = false
	tab, err = CacheServing(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteCacheJSON(&strings.Builder{}, tab, opts); err == nil {
		t.Error("WriteCacheJSON accepted a baseline-only run")
	}
}

// TestReorderExperiment runs the reorder experiment on a small sweep and
// checks the correctness column (naive and sifted answers identical to the
// tuned Π leg), that the naive leg is built under its own order (V1's index
// is larger than under Π), that sifting never grew the naive index, and the
// JSON report round-trip. Timing columns are load-sensitive and not asserted.
func TestReorderExperiment(t *testing.T) {
	opts := small()
	opts.Domains = []int{300}
	tab, err := ReorderSifting(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 { // view subsets 1, 2, 3, 123
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if r[len(r)-1] != "true" {
			t.Errorf("answers diverged across legs: %v", r)
		}
	}
	if naive, pi := tab.Series["nodes-naive"][0], tab.Series["nodes-pi"][0]; naive <= pi {
		t.Errorf("V1: naive index %v nodes, Π index %v: the naive leg is not built under the naive order", naive, pi)
	}
	for i := range tab.Series["nodes-naive"] {
		if tab.Series["nodes-sifted"][i] > tab.Series["nodes-naive"][i] {
			t.Errorf("sifting grew the index: %v -> %v",
				tab.Series["nodes-naive"][i], tab.Series["nodes-sifted"][i])
		}
	}
	var buf strings.Builder
	if err := WriteReorderJSON(&buf, tab); err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Repeats int `json:"repeats"`
		Rows    []struct {
			Domain      int     `json:"domain"`
			Views       string  `json:"views"`
			NodesNaive  int     `json:"nodes_naive"`
			NodesPi     int     `json:"nodes_pi"`
			NodesSifted int     `json:"nodes_sifted"`
			Reduction   float64 `json:"reduction"`
			Same        bool    `json:"same"`
		} `json:"rows"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &rep); err != nil {
		t.Fatalf("bad JSON report: %v", err)
	}
	if rep.Repeats != reorderRepeats || len(rep.Rows) != 4 ||
		rep.Rows[0].Domain != 300 || rep.Rows[0].Views != "1" ||
		rep.Rows[0].NodesNaive <= 0 || rep.Rows[0].NodesPi <= 0 ||
		rep.Rows[0].NodesSifted <= 0 || !rep.Rows[0].Same {
		t.Errorf("report = %+v", rep)
	}
	// The writer refuses tables from other experiments.
	if err := WriteReorderJSON(&strings.Builder{}, &Table{ID: "cache"}); err == nil {
		t.Error("WriteReorderJSON accepted a non-reorder table")
	}
}

// TestZipfWorkload: the request mix is deterministic, covers the hottest
// query most, and stays within bounds.
func TestZipfWorkload(t *testing.T) {
	qs := make([]*ucq.Query, 6)
	for i := range qs {
		qs[i] = ucq.MustParse("Q(a) :- Adv(1,a)")
	}
	w1 := NewZipfWorkload(qs, 200, 1.2, 7)
	w2 := NewZipfWorkload(qs, 200, 1.2, 7)
	if len(w1.Requests) != 200 {
		t.Fatalf("requests = %d", len(w1.Requests))
	}
	for i, k := range w1.Requests {
		if k < 0 || k >= len(qs) {
			t.Fatalf("request %d out of range: %d", i, k)
		}
		if w2.Requests[i] != k {
			t.Fatal("workload not deterministic for equal seeds")
		}
	}
	max := 0
	for i, h := range w1.Hits {
		if h > w1.Hits[max] {
			max = i
		}
	}
	if max != 0 {
		t.Errorf("rank 0 is not the hottest query: hits %v", w1.Hits)
	}
	if w1.Distinct() < 2 {
		t.Errorf("degenerate mix: %v", w1.Hits)
	}
}

func TestByID(t *testing.T) {
	for _, id := range []string{"fig1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "cache", "update", "reorder", "madden"} {
		if _, ok := ByID(id); !ok {
			t.Errorf("ByID(%q) missing", id)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID accepted unknown id")
	}
}

func TestAblationEntryShortcut(t *testing.T) {
	tab, err := AblationEntryShortcut(small())
	if err != nil {
		t.Fatal(err)
	}
	// The shortcut must save work at every domain — the whole point of the
	// reachability precomputation: it enters past the root block, and the
	// run without it visits more pairs. Counts, not wall-clock times, so
	// the check does not depend on the machine's load.
	with, without := tab.Series["pairs-with"], tab.Series["pairs-without"]
	entry := tab.Series["entry-block"]
	if len(with) != len(small().Domains) {
		t.Fatalf("%d rows of pair counts, want one per domain %v", len(with), small().Domains)
	}
	for i, d := range tab.Series["domain"] {
		if entry[i] <= 0 {
			t.Errorf("domain %v: shortcut entered at block %v, want a block > 0", d, entry[i])
		}
		if without[i] <= with[i] {
			t.Errorf("domain %v: %v pairs without the shortcut, %v with it; want more without", d, without[i], with[i])
		}
	}
}

func TestMethodsCompare(t *testing.T) {
	tab, err := MethodsCompare(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// The runner itself asserts that all methods agree on the probability.
}

func TestMarginalsExperiment(t *testing.T) {
	tab, err := Marginals(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, v := range tab.Series["avgdelta"] {
		if v <= 0 {
			t.Errorf("views had no marginal effect: %v", tab.Series["avgdelta"])
		}
	}
	var buf bytes.Buffer
	if err := tab.FprintCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "aid domain") {
		t.Errorf("csv = %q", buf.String())
	}
}

func TestExactness(t *testing.T) {
	tab, err := Exactness(small())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range tab.Series["maxerr"] {
		if e > 1e-9 {
			t.Errorf("max error %v exceeds float tolerance", e)
		}
	}
}
