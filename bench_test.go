package mvdb

// One benchmark per table/figure of the paper's evaluation (Section 5),
// wrapping the runners in internal/bench, plus micro-benchmarks for the
// operations each figure isolates. Run with:
//
//	go test -bench=. -benchmem
//
// The full-sweep reproduction (paper-sized domains) is cmd/mvbench; these
// benchmarks use reduced sweeps so the suite completes in minutes.

import (
	"runtime"
	"testing"
	"time"

	"mvdb/internal/baseline"
	"mvdb/internal/bench"
	"mvdb/internal/core"
	"mvdb/internal/dblp"
	"mvdb/internal/lineage"
	"mvdb/internal/mvindex"
	"mvdb/internal/obdd"
	"mvdb/internal/ucq"
)

func benchOpts() bench.Options {
	o := bench.Small()
	o.Domains = []int{300, 600, 900}
	o.FullAuthors = 2000
	return o
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	runner, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	opts := benchOpts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1Inventory regenerates the Figure 1 dataset inventory.
func BenchmarkFig1Inventory(b *testing.B) { runExperiment(b, "fig1") }

// BenchmarkFig4LineageSize regenerates Figure 4 (lineage size of W).
func BenchmarkFig4LineageSize(b *testing.B) { runExperiment(b, "fig4") }

// BenchmarkFig5AdvisorOfStudent regenerates Figure 5 (Alchemy vs MV,
// advisor-of-student query).
func BenchmarkFig5AdvisorOfStudent(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkFig6StudentsOfAdvisor regenerates Figure 6 (Alchemy vs MV,
// students-of-advisor query).
func BenchmarkFig6StudentsOfAdvisor(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFig7OBDDSize regenerates Figure 7 (OBDD size of V2).
func BenchmarkFig7OBDDSize(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFig8Construction regenerates Figure 8 (CUDD-style synthesis vs
// concatenation construction time).
func BenchmarkFig8Construction(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFig9Intersect regenerates Figure 9 (MVIntersect vs
// CC-MVIntersect on a worst-case spanning query).
func BenchmarkFig9Intersect(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkFig10StudentQueries regenerates Figure 10 (per-query latency,
// students of an advisor, full dataset).
func BenchmarkFig10StudentQueries(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkFig11AffiliationQueries regenerates Figure 11 (per-query
// latency, affiliations of an author, full dataset).
func BenchmarkFig11AffiliationQueries(b *testing.B) { runExperiment(b, "fig11") }

// BenchmarkMaddenQuery regenerates the running example of Figure 2.
func BenchmarkMaddenQuery(b *testing.B) { runExperiment(b, "madden") }

// --- micro-benchmarks for the operations the figures isolate ---

type fixture struct {
	data *dblp.Dataset
	tr   *core.Translation
	ix   *mvindex.Index
}

func newFixture(b *testing.B, authors int, views string) *fixture {
	b.Helper()
	data, err := dblp.Generate(dblp.Config{NumAuthors: authors, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var sel []*core.MarkoView
	for _, c := range views {
		switch c {
		case '1':
			sel = append(sel, data.V1)
		case '2':
			sel = append(sel, data.V2)
		case '3':
			sel = append(sel, data.V3)
		}
	}
	m, err := data.MVDB(sel...)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := m.Translate(core.TranslateOptions{})
	if err != nil {
		b.Fatal(err)
	}
	ix, err := mvindex.Build(tr)
	if err != nil {
		b.Fatal(err)
	}
	return &fixture{data: data, tr: tr, ix: ix}
}

// BenchmarkOBDDConstructConcat isolates the Figure 8 fast path: building
// W's OBDD by concatenation.
func BenchmarkOBDDConstructConcat(b *testing.B) {
	fx := newFixture(b, 1000, "2")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := fx.tr.CompileW(obdd.CompileOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOBDDConstructSynthesis isolates the Figure 8 baseline: the same
// OBDD synthesized from the raw lineage with Apply (CUDD-style).
func BenchmarkOBDDConstructSynthesis(b *testing.B) {
	fx := newFixture(b, 1000, "2")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := fx.tr.CompileW(obdd.CompileOptions{FromLineage: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func spanning(fx *fixture, k int) lineage.DNF {
	m, fW, _ := baseline.New(fx.tr).OBDD()
	support := m.Support(fW)
	var d lineage.DNF
	if len(support) == 0 {
		return d
	}
	for i := 0; i < k; i++ {
		d = append(d, []int{support[i*(len(support)-1)/(k-1)]})
	}
	return d
}

// BenchmarkMVIntersect isolates the Figure 9 traversal (pointer layout).
func BenchmarkMVIntersect(b *testing.B) {
	fx := newFixture(b, 2000, "2")
	lin := spanning(fx, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fx.ix.IntersectLineage(lin, mvindex.IntersectOptions{})
	}
}

// BenchmarkCCMVIntersect isolates the Figure 9 cache-conscious traversal.
func BenchmarkCCMVIntersect(b *testing.B) {
	fx := newFixture(b, 2000, "2")
	lin := spanning(fx, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fx.ix.IntersectLineage(lin, mvindex.IntersectOptions{CacheConscious: true})
	}
}

// BenchmarkIndexQuery measures one full online query (lineage + intersect)
// through the MV-index — the Figure 10 path.
func BenchmarkIndexQuery(b *testing.B) {
	fx := newFixture(b, 2000, "123")
	s := fx.data.Students[len(fx.data.Students)/2]
	q := dblp.QueryStudentsOfAdvisorID(fx.data.StudentAdvisor[s])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fx.ix.Query(q, mvindex.IntersectOptions{CacheConscious: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEntryShortcutAblation measures the same query with the
// reachability entry shortcut disabled (full-index traversal).
func BenchmarkEntryShortcutAblation(b *testing.B) {
	fx := newFixture(b, 2000, "123")
	s := fx.data.Students[len(fx.data.Students)/2]
	q := dblp.QueryStudentsOfAdvisorID(fx.data.StudentAdvisor[s])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fx.ix.Query(q, mvindex.IntersectOptions{CacheConscious: true, NoEntryShortcut: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelCompile compares the per-block compilation of W on
// GOMAXPROCS workers against the sequential reference. The fan-out width is
// GOMAXPROCS: "seq" runs at GOMAXPROCS 1, "par" at the process's setting —
// on a single-core host the two coincide. Every run first checks that
// GOMAXPROCS 1 and 4 compile the same OBDD.
func BenchmarkParallelCompile(b *testing.B) {
	fx := newFixture(b, 2000, "2")
	compile := func(b *testing.B, procs int) (*obdd.Manager, obdd.NodeID) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		m, f, _, err := fx.tr.CompileW(obdd.CompileOptions{})
		if err != nil {
			b.Fatal(err)
		}
		return m, f
	}
	ms, fs := compile(b, 1)
	mp, fp := compile(b, 4)
	if !obdd.StructEqual(ms, fs, mp, fp) {
		b.Fatal("the parallel compile of W differs from the sequential one")
	}
	for _, c := range []struct {
		name  string
		procs int
	}{{"seq", 1}, {"par", runtime.GOMAXPROCS(0)}} {
		b.Run(c.name, func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(c.procs))
			for i := 0; i < b.N; i++ {
				if _, _, _, err := fx.tr.CompileW(obdd.CompileOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTranslate measures the MVDB -> INDB translation (view
// materialization + NV construction).
func BenchmarkTranslate(b *testing.B) {
	data, err := dblp.Generate(dblp.Config{NumAuthors: 1000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	m, err := data.MVDB()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Translate(core.TranslateOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBoot measures mvdbd's offline phase at the served domain 4000 —
// generate the dataset, assemble the MVDB, translate it to the INDB
// (materialising V1–V3) and build the MV-index (compile ¬W block by block) —
// and reports each stage's share as a per-op metric.
func BenchmarkBoot(b *testing.B) {
	var gen, tr, build time.Duration
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		data, err := dblp.Generate(dblp.Config{NumAuthors: 4000, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		m, err := data.MVDB()
		if err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		t, err := m.Translate(core.TranslateOptions{})
		if err != nil {
			b.Fatal(err)
		}
		t2 := time.Now()
		if _, err := mvindex.Build(t); err != nil {
			b.Fatal(err)
		}
		gen, tr, build = gen+t1.Sub(t0), tr+t2.Sub(t1), build+time.Since(t2)
	}
	n := float64(b.N)
	b.ReportMetric(gen.Seconds()*1e3/n, "generate-ms/op")
	b.ReportMetric(tr.Seconds()*1e3/n, "translate-ms/op")
	b.ReportMetric(build.Seconds()*1e3/n, "compile-ms/op")
}

// BenchmarkLineageEval measures the engine's lineage computation for the
// Madden query (the "round trip to Postgres" part of Section 5.4).
func BenchmarkLineageEval(b *testing.B) {
	fx := newFixture(b, 2000, "12")
	q := dblp.QueryStudentsOfAdvisor("%Madden%")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ucq.Eval(fx.tr.DB, q); err != nil {
			b.Fatal(err)
		}
	}
}
