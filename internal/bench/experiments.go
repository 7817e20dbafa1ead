package bench

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"mvdb/internal/baseline"
	"mvdb/internal/core"
	"mvdb/internal/dblp"
	"mvdb/internal/lineage"
	"mvdb/internal/mln"
	"mvdb/internal/mvindex"
	"mvdb/internal/obdd"
	"mvdb/internal/ucq"
)

// Fig1Inventory reproduces the Figure 1 dataset inventory: per-table tuple
// counts for the deterministic tables, derived views, probabilistic tables
// and MarkoViews.
func Fig1Inventory(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	d, m, _, err := pipeline(opts.FullAuthors, opts.Seed, "123")
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig1",
		Title:   fmt.Sprintf("dataset inventory (synthetic DBLP, %d authors)", opts.FullAuthors),
		Columns: []string{"table", "kind", "tuples"},
	}
	for _, st := range d.DB.Stats() {
		kind := "probabilistic"
		if st.Deterministic {
			kind = "deterministic"
		}
		t.Rows = append(t.Rows, []string{st.Relation, kind, fmt.Sprint(st.Tuples)})
		t.addSeries(st.Relation, float64(st.Tuples))
	}
	tuples, err := m.Materialize()
	if err != nil {
		return nil, err
	}
	counts := map[string]int{}
	for _, vt := range tuples {
		counts[vt.View]++
	}
	for _, v := range []string{"V1", "V2", "V3"} {
		t.Rows = append(t.Rows, []string{v, "markoview", fmt.Sprint(counts[v])})
		t.addSeries(v, float64(counts[v]))
	}
	return t, nil
}

// Fig4LineageSize reproduces Figure 4: the lineage size of W (V1+V2, the
// MLN-comparison configuration) as the aid domain grows.
func Fig4LineageSize(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	t := &Table{
		ID:      "fig4",
		Title:   "lineage size of the MarkoViews vs aid domain",
		Columns: []string{"aid domain", "lineage size"},
	}
	for _, n := range opts.Domains {
		_, _, tr, err := pipeline(n, opts.Seed, "12")
		if err != nil {
			return nil, err
		}
		lin, err := tr.WLineage()
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(n), fmt.Sprint(lin.Size())})
		t.addSeries("domain", float64(n))
		t.addSeries("lineage", float64(lin.Size()))
	}
	return t, nil
}

// fig56 runs the Figure 5/6 comparison for one query family: MC-SAT total
// (grounding + sampling), MC-SAT sampling only, augmented OBDD built at
// query time, and the precompiled MV-index.
func fig56(opts Options, id, title string, pick func(*dblp.Dataset) *ucq.Query) (*Table, error) {
	opts = opts.withDefaults()
	t := &Table{
		ID:      id,
		Title:   title,
		Columns: []string{"aid domain", "mcsat-total(s)", "mcsat-sampling(s)", "augmented-obdd(s)", "mv-index(s)"},
	}
	for _, n := range opts.Domains {
		d, m, tr, err := pipeline(n, opts.Seed, "12")
		if err != nil {
			return nil, err
		}
		q := pick(d)
		boolQ := ucq.UCQ{Disjuncts: q.Disjuncts} // head vars become existential

		// Alchemy stand-in: ground the MLN, then MC-SAT.
		t0 := time.Now()
		net, err := baseline.GroundMLN(m)
		if err != nil {
			return nil, err
		}
		linQ, err := ucq.EvalBoolean(m.DB, boolQ)
		if err != nil {
			return nil, err
		}
		tGround := time.Since(t0)
		t0 = time.Now()
		if _, err := net.MarginalMCSat(lineage.FromDNF(linQ), mln.MCSatOptions{
			Burn: opts.MCSatBurn, Samples: opts.MCSatSamples, Seed: opts.Seed,
		}); err != nil {
			return nil, err
		}
		tSampling := time.Since(t0)
		tTotal := tGround + tSampling

		// Augmented OBDD built at query time: compile W, then evaluate.
		t0 = time.Now()
		m2, fW, _, err := tr.CompileW(obdd.CompileOptions{})
		if err != nil {
			return nil, err
		}
		probs := tr.DB.Probs()
		pW := m2.Prob(fW, probs)
		fQ := obdd.BuildDNF(m2, linQ)
		pQW := m2.Prob(m2.Or(fQ, fW), probs)
		_ = (pQW - pW) / (1 - pW)
		tAug := time.Since(t0)

		// MV-index: precompiled offline, query online.
		ix, err := buildIndex(tr)
		if err != nil {
			return nil, err
		}
		t0 = time.Now()
		if _, err := ix.Query(q, mvindex.IntersectOptions{}); err != nil {
			return nil, err
		}
		tIx := time.Since(t0)

		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), seconds(tTotal), seconds(tSampling), seconds(tAug), seconds(tIx),
		})
		t.addSeries("domain", float64(n))
		t.addSeries("mcsat-total", tTotal.Seconds())
		t.addSeries("mcsat-sampling", tSampling.Seconds())
		t.addSeries("augmented-obdd", tAug.Seconds())
		t.addSeries("mv-index", tIx.Seconds())
	}
	return t, nil
}

// Fig5AdvisorOfStudent reproduces Figure 5: "find the advisor of student X".
func Fig5AdvisorOfStudent(opts Options) (*Table, error) {
	return fig56(opts, "fig5", "Alchemy vs MarkoViews: advisor of a student",
		func(d *dblp.Dataset) *ucq.Query {
			return dblp.QueryAdvisorOfStudent(d.Students[len(d.Students)/2])
		})
}

// Fig6StudentsOfAdvisor reproduces Figure 6: "find all students of advisor Y".
func Fig6StudentsOfAdvisor(opts Options) (*Table, error) {
	return fig56(opts, "fig6", "Alchemy vs MarkoViews: all students of an advisor",
		func(d *dblp.Dataset) *ucq.Query {
			s := d.Students[len(d.Students)/2]
			return dblp.QueryStudentsOfAdvisorID(d.StudentAdvisor[s])
		})
}

// Fig7OBDDSize reproduces Figure 7: the OBDD size of view V2 grows linearly
// with the aid1 domain.
func Fig7OBDDSize(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	t := &Table{
		ID:      "fig7",
		Title:   "OBDD size of V2 vs aid1 domain",
		Columns: []string{"aid1 domain", "obdd size", "width"},
	}
	for _, n := range opts.Domains {
		_, _, tr, err := pipeline(n, opts.Seed, "2")
		if err != nil {
			return nil, err
		}
		m2, fW, _, err := tr.CompileW(obdd.CompileOptions{})
		if err != nil {
			return nil, err
		}
		size, width := m2.Size(fW), m2.Width(fW)
		t.Rows = append(t.Rows, []string{fmt.Sprint(n), fmt.Sprint(size), fmt.Sprint(width)})
		t.addSeries("domain", float64(n))
		t.addSeries("size", float64(size))
		t.addSeries("width", float64(width))
	}
	return t, nil
}

// Fig8Construction reproduces Figure 8: ConOBDD's concatenation vs
// CUDD-style synthesis; both construct the same OBDD, synthesis pays a
// superlinear price. The concatenation leg compiles as mvdbd does, with the
// blocks fanned out over GOMAXPROCS workers (the workers column).
func Fig8Construction(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	t := &Table{
		ID:      "fig8",
		Title:   "OBDD construction: synthesis (CUDD-style) vs concatenation (MV)",
		Columns: []string{"aid1 domain", "cudd-construction(s)", "mv-construction(s)", "workers", "same obdd"},
	}
	workers := runtime.GOMAXPROCS(0)
	for _, n := range opts.Domains {
		_, _, tr, err := pipeline(n, opts.Seed, "2")
		if err != nil {
			return nil, err
		}
		// One untimed compile first builds the relations' lazy hash indexes,
		// which both legs use; otherwise whichever leg ran first would pay
		// for them. Each leg then reports its fastest of three runs.
		if _, _, _, err := tr.CompileW(obdd.CompileOptions{}); err != nil {
			return nil, err
		}
		sizeSyn, tSyn, err := timeCompileW(tr, obdd.CompileOptions{FromLineage: true})
		if err != nil {
			return nil, err
		}
		sizeCon, tCon, err := timeCompileW(tr, obdd.CompileOptions{})
		if err != nil {
			return nil, err
		}
		same := sizeSyn == sizeCon
		t.Rows = append(t.Rows, []string{fmt.Sprint(n), seconds(tSyn), seconds(tCon), fmt.Sprint(workers), fmt.Sprint(same)})
		t.addSeries("domain", float64(n))
		t.addSeries("cudd", tSyn.Seconds())
		t.addSeries("mv", tCon.Seconds())
	}
	return t, nil
}

// timeCompileW compiles W three times with opts and returns the OBDD's size
// and the fastest of the three wall-clock times.
func timeCompileW(tr *core.Translation, opts obdd.CompileOptions) (size int, best time.Duration, err error) {
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		m, f, _, err := tr.CompileW(opts)
		if err != nil {
			return 0, 0, err
		}
		if d := time.Since(t0); i == 0 || d < best {
			best = d
		}
		size = m.Size(f)
	}
	return size, best, nil
}

// Fig9Intersect reproduces Figure 9: worst-case query (20 tuples spanning
// the whole index), MVIntersect vs CC-MVIntersect.
func Fig9Intersect(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	t := &Table{
		ID:      "fig9",
		Title:   "querying time, worst-case 20-tuple query: MVIntersect vs CC-MVIntersect",
		Columns: []string{"aid1 domain", "mvintersect(s)", "cc-mvintersect(s)", "index size"},
	}
	for _, n := range opts.Domains {
		_, _, tr, err := pipeline(n, opts.Seed, "2")
		if err != nil {
			return nil, err
		}
		ix, err := buildIndex(tr)
		if err != nil {
			return nil, err
		}
		lin := spanningLineage(tr, 20)
		// The baseline materialises its pointer ¬W up front; warm both
		// paths once, then time repeated intersections.
		const reps = 20
		ptr := ix.MVIntersect()
		ptr(lin, mvindex.IntersectOptions{})
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			ptr(lin, mvindex.IntersectOptions{})
		}
		tPlain := time.Since(t0) / reps
		ix.IntersectLineage(lin, mvindex.IntersectOptions{})
		t0 = time.Now()
		for i := 0; i < reps; i++ {
			ix.IntersectLineage(lin, mvindex.IntersectOptions{})
		}
		tCC := time.Since(t0) / reps
		t.Rows = append(t.Rows, []string{fmt.Sprint(n), seconds(tPlain), seconds(tCC), fmt.Sprint(ix.Size())})
		t.addSeries("domain", float64(n))
		t.addSeries("mvintersect", tPlain.Seconds())
		t.addSeries("cc-mvintersect", tCC.Seconds())
		t.addSeries("size", float64(ix.Size()))
	}
	return t, nil
}

// spanningLineage builds the paper's worst-case query lineage: k tuple
// variables spread evenly across the index order, forcing a traversal of
// the entire MV-index.
func spanningLineage(tr *core.Translation, k int) lineage.DNF {
	m, fW, err := baseline.New(tr).OBDD()
	if err != nil {
		return nil
	}
	support := m.Support(fW)
	sort.Slice(support, func(i, j int) bool { return m.Level(support[i]) < m.Level(support[j]) })
	if len(support) == 0 {
		return nil
	}
	if k > len(support) {
		k = len(support)
	}
	var d lineage.DNF
	for i := 0; i < k; i++ {
		v := support[i*(len(support)-1)/max(1, k-1)]
		d = append(d, []int{v})
	}
	return d
}

// perQuery runs n queries through the CC-MVIntersect index and reports each
// query's latency — the Figure 10/11 bar charts.
func perQuery(opts Options, id, title string, queries []*ucq.Query, ix *mvindex.Index) (*Table, error) {
	t := &Table{
		ID:      id,
		Title:   title,
		Columns: []string{"query", "time(s)", "answers"},
	}
	for i, q := range queries {
		t0 := time.Now()
		rows, err := ix.Query(q, mvindex.IntersectOptions{})
		if err != nil {
			return nil, err
		}
		el := time.Since(t0)
		t.Rows = append(t.Rows, []string{fmt.Sprintf("q%d", i+1), seconds(el), fmt.Sprint(len(rows))})
		t.addSeries("time", el.Seconds())
		t.addSeries("answers", float64(len(rows)))
	}
	return t, nil
}

// fullIndex builds the full-scale dataset and its MV-index once.
func fullIndex(opts Options) (*dblp.Dataset, *mvindex.Index, error) {
	d, _, tr, err := pipeline(opts.FullAuthors, opts.Seed, "123")
	if err != nil {
		return nil, nil, err
	}
	ix, err := buildIndex(tr)
	if err != nil {
		return nil, nil, err
	}
	return d, ix, nil
}

// Fig10StudentQueries reproduces Figure 10: ten "students of advisor X"
// queries on the full dataset.
func Fig10StudentQueries(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	d, ix, err := fullIndex(opts)
	if err != nil {
		return nil, err
	}
	advisors := advisorsWithStudents(d, opts.Queries)
	var queries []*ucq.Query
	for _, a := range advisors {
		queries = append(queries, dblp.QueryStudentsOfAdvisorID(a))
	}
	return perQuery(opts, "fig10", "querying students of an advisor (full dataset)", queries, ix)
}

// Fig11AffiliationQueries reproduces Figure 11: ten "affiliation of author
// Y" queries on the full dataset.
func Fig11AffiliationQueries(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	d, ix, err := fullIndex(opts)
	if err != nil {
		return nil, err
	}
	aff := d.DB.Relation("Affiliation")
	var queries []*ucq.Query
	seen := map[int64]bool{}
	for _, t := range aff.Tuples {
		aid := t.Vals[0].Int
		if !seen[aid] {
			seen[aid] = true
			queries = append(queries, dblp.QueryAffiliationOfAuthor(aid))
			if len(queries) == opts.Queries {
				break
			}
		}
	}
	if len(queries) == 0 {
		return nil, fmt.Errorf("bench: no Affiliation tuples at %d authors", opts.FullAuthors)
	}
	return perQuery(opts, "fig11", "querying affiliations of an author (full dataset)", queries, ix)
}

// Madden reproduces the running example of Figure 2: all students advised by
// a "%Madden%"-named advisor, on the full dataset.
func Madden(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	d, ix, err := fullIndex(opts)
	if err != nil {
		return nil, err
	}
	q := dblp.QueryStudentsOfAdvisor("%Madden%")
	t0 := time.Now()
	rows, err := ix.Query(q, mvindex.IntersectOptions{})
	if err != nil {
		return nil, err
	}
	el := time.Since(t0)
	t := &Table{
		ID:      "madden",
		Title:   "running example: students advised by %Madden%",
		Columns: []string{"metric", "value"},
	}
	t.Rows = append(t.Rows, []string{"madden-named advisors", fmt.Sprint(len(d.MaddenAdvisors))})
	t.Rows = append(t.Rows, []string{"answers", fmt.Sprint(len(rows))})
	t.Rows = append(t.Rows, []string{"time(s)", seconds(el)})
	t.addSeries("advisors", float64(len(d.MaddenAdvisors)))
	t.addSeries("answers", float64(len(rows)))
	t.addSeries("time", el.Seconds())
	return t, nil
}

func advisorsWithStudents(d *dblp.Dataset, n int) []int64 {
	seen := map[int64]bool{}
	var out []int64
	for _, s := range d.Students {
		a := d.StudentAdvisor[s]
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
			if len(out) == n {
				break
			}
		}
	}
	return out
}

// ByID returns the runner for an experiment id.
func ByID(id string) (func(Options) (*Table, error), bool) {
	m := map[string]func(Options) (*Table, error){
		"fig1":         Fig1Inventory,
		"fig4":         Fig4LineageSize,
		"fig5":         Fig5AdvisorOfStudent,
		"fig6":         Fig6StudentsOfAdvisor,
		"fig7":         Fig7OBDDSize,
		"fig8":         Fig8Construction,
		"fig9":         Fig9Intersect,
		"fig10":        Fig10StudentQueries,
		"fig11":        Fig11AffiliationQueries,
		"cache":        CacheServing,
		"update":       UpdateMaintenance,
		"reorder":      ReorderSifting,
		"madden":       Madden,
		"ablate-entry": AblationEntryShortcut,
		"methods":      MethodsCompare,
		"marginals":    Marginals,
		"exactness":    Exactness,
	}
	r, ok := m[id]
	return r, ok
}
