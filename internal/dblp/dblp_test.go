package dblp

import (
	"math"
	"reflect"
	"testing"

	"mvdb/internal/baseline"
	"mvdb/internal/core"
	"mvdb/internal/engine"
	"mvdb/internal/mvindex"
	"mvdb/internal/ucq"
)

func TestGenerateStructure(t *testing.T) {
	d, err := Generate(Config{NumAuthors: 400, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	db := d.DB
	for _, rel := range []string{"Author", "Wrote", "Pub", "FirstPub", "Student", "Advisor"} {
		if db.Relation(rel).Len() == 0 {
			t.Errorf("relation %s empty", rel)
		}
	}
	if len(d.Advisors) == 0 || len(d.Students) == 0 {
		t.Fatal("no advisors or students")
	}
	if db.Relation("Author").Len() != 400 {
		t.Errorf("authors = %d", db.Relation("Author").Len())
	}
	// Six Student tuples per student (Fig. 1: 6M for 1M authors).
	if got, want := db.Relation("Student").Len(), 6*len(d.Students); got != want {
		t.Errorf("Student tuples = %d want %d", got, want)
	}
	if len(d.MaddenAdvisors) == 0 {
		t.Error("no Madden advisors")
	}
	// Generation is deterministic.
	d2, _ := Generate(Config{NumAuthors: 400, Seed: 1})
	if d2.DB.NumVars() != db.NumVars() {
		t.Errorf("non-deterministic generation: %d vs %d vars", d2.DB.NumVars(), db.NumVars())
	}
	d3, _ := Generate(Config{NumAuthors: 400, Seed: 2})
	if d3.DB.Relation("Pub").Len() == db.Relation("Pub").Len() && d3.DB.NumVars() == db.NumVars() {
		t.Log("different seeds produced identical sizes (possible but suspicious)")
	}
}

// TestGenerateDeterministic: one seed, one dataset — the same tuples at the
// same positions under the same variable ids, however Go orders the
// generator's bookkeeping maps.
func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(Config{NumAuthors: 400, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Config{NumAuthors: 400, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.DB.Snapshot(), b.DB.Snapshot()) {
		t.Fatal("two runs with one seed generate different databases")
	}
}

func TestViewsNonEmpty(t *testing.T) {
	d, err := Generate(Config{NumAuthors: 400, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	m, err := d.MVDB()
	if err != nil {
		t.Fatal(err)
	}
	tuples, err := m.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, vt := range tuples {
		counts[vt.View]++
		if vt.View == "V1" && vt.Weight < 1.5 {
			t.Errorf("V1 weight %v < 1.5 (count/2 with count > 2)", vt.Weight)
		}
		if vt.View == "V2" && vt.Weight != 0 {
			t.Errorf("V2 weight %v != 0", vt.Weight)
		}
	}
	for _, v := range []string{"V1", "V2", "V3"} {
		if counts[v] == 0 {
			t.Errorf("view %s is empty", v)
		}
	}
}

func TestAdvisorWeightsFormula(t *testing.T) {
	d, err := Generate(Config{NumAuthors: 200, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	adv := d.DB.Relation("Advisor")
	for _, tup := range adv.Tuples {
		c := d.copubStudy[[2]int64{tup.Vals[0].Int, tup.Vals[1].Int}]
		if c <= 2 {
			t.Fatalf("Advisor tuple with count %d <= 2", c)
		}
		want := math.Exp(0.25 * float64(c))
		if math.Abs(tup.Weight-want) > 1e-9 {
			t.Errorf("Advisor weight %v want %v", tup.Weight, want)
		}
	}
	// Student weights follow exp(1 - 0.15 dy).
	st := d.DB.Relation("Student")
	fp := d.DB.Relation("FirstPub")
	first := map[int64]int64{}
	for _, tup := range fp.Tuples {
		first[tup.Vals[0].Int] = tup.Vals[1].Int
	}
	for _, tup := range st.Tuples[:20] {
		dy := tup.Vals[1].Int - first[tup.Vals[0].Int]
		want := math.Exp(1 - 0.15*float64(dy))
		if math.Abs(tup.Weight-want) > 1e-9 {
			t.Errorf("Student weight %v want %v (dy=%d)", tup.Weight, want, dy)
		}
	}
}

func TestTranslationAndIndexPipeline(t *testing.T) {
	d, err := Generate(Config{NumAuthors: 200, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	m, err := d.MVDB()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := m.Translate(core.TranslateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.DenialViews) != 1 || tr.DenialViews[0] != "V2" {
		t.Errorf("denial views = %v", tr.DenialViews)
	}
	ix, err := mvindex.Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Size() == 0 || ix.Blocks() < 2 {
		t.Errorf("index size=%d blocks=%d", ix.Size(), ix.Blocks())
	}

	// Cross-check MV-index against the baseline OBDD method on several
	// queries, and CC-MVIntersect against Fig. 9's pointer MVIntersect.
	ev := baseline.New(tr)
	ptr := ix.MVIntersect()
	for _, s := range d.Students[:5] {
		q := QueryAdvisorOfStudent(s)
		want, err := ev.Query(q, baseline.OBDD)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ix.Query(q, mvindex.IntersectOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rows, err := ucq.Eval(tr.DB, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) || len(rows) != len(got) {
			t.Fatalf("student %d: %d vs %d answers (%d lineages)", s, len(got), len(want), len(rows))
		}
		for i := range got {
			if math.Abs(got[i].Prob-want[i].Prob) > 1e-9 {
				t.Errorf("student %d: %v vs %v", s, got[i].Prob, want[i].Prob)
			}
			if got[i].Prob < -1e-9 || got[i].Prob > 1+1e-9 {
				t.Errorf("probability %v outside [0,1]", got[i].Prob)
			}
			if p, err := ptr(rows[i].Lineage, mvindex.IntersectOptions{}); err != nil || math.Abs(got[i].Prob-p) > 1e-12 {
				t.Errorf("student %d: CC-MVIntersect %v, pointer MVIntersect %v (%v)", s, got[i].Prob, p, err)
			}
		}
	}
}

func TestMaddenRunningExample(t *testing.T) {
	d, err := Generate(Config{NumAuthors: 600, Seed: 9, MaddenEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.MaddenAdvisors) < 2 {
		t.Fatalf("Madden advisors = %v", d.MaddenAdvisors)
	}
	m, err := d.MVDB(d.V1, d.V2)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := m.Translate(core.TranslateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := mvindex.Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	q := QueryStudentsOfAdvisor("%Madden%")
	rows, err := ix.Query(q, mvindex.IntersectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no students of Madden advisors found")
	}
	// Every returned student must indeed have a Madden advisor candidate.
	madden := map[int64]bool{}
	for _, a := range d.MaddenAdvisors {
		madden[a] = true
	}
	adv := d.DB.Relation("Advisor")
	for _, r := range rows {
		s := r.Head[0].Int
		found := false
		m := adv.Match(0, engine.Int(s))
		for ti := m.First(); ti >= 0; ti = m.Next(ti) {
			if madden[adv.Tuples[ti].Vals[1].Int] {
				found = true
			}
		}
		if !found {
			t.Errorf("student %d returned but has no Madden advisor", s)
		}
		if r.Prob <= 0 || r.Prob > 1 {
			t.Errorf("student %d probability %v", s, r.Prob)
		}
	}
}

// TestMicroEndToEndExact validates the full DBLP pipeline against exhaustive
// Definition 4 enumeration on a micro instance.
func TestMicroEndToEndExact(t *testing.T) {
	d, err := Generate(Config{NumAuthors: 4, AdvisorEvery: 2, Seed: 11, SecondAdvisorPct: 100})
	if err != nil {
		t.Fatal(err)
	}
	if d.DB.NumVars() > 20 {
		t.Skipf("micro instance has %d vars; exact enumeration infeasible", d.DB.NumVars())
	}
	m, err := d.MVDB()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := m.Translate(core.TranslateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := mvindex.Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range d.Students {
		q := QueryAdvisorOfStudent(s)
		rows, err := ix.Query(q, mvindex.IntersectOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			b, err := q.Bind(r.Head)
			if err != nil {
				t.Fatal(err)
			}
			want, err := baseline.ProbExact(m, b)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(r.Prob-want) > 1e-8 {
				t.Errorf("student %d advisor %v: index %v exact %v", s, r.Head, r.Prob, want)
			}
		}
	}
}

// TestStudentTableMatchesDeclarativeDefinition: the generator's Studentp
// must be exactly what the Figure 1 declarative definition produces: the
// answers of its query over the deterministic tables, each weighted
// exp(1-0.15(year-year')).
func TestStudentTableMatchesDeclarativeDefinition(t *testing.T) {
	d, err := Generate(Config{NumAuthors: 120, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	db := d.DB
	// Calendar table covering the generator's year range.
	db.MustCreateRelation("Calendar", true, "year")
	for y := int64(1980); y <= 2030; y++ {
		db.MustInsertDet("Calendar", engine.Int(y))
	}
	first := map[int64]int64{}
	for _, tup := range db.Relation("FirstPub").Tuples {
		first[tup.Vals[0].Int] = tup.Vals[1].Int
	}
	students := map[int64]bool{}
	for _, s := range d.Students {
		students[s] = true
	}
	q := ucq.MustParse("Student2(aid,year) :- FirstPub(aid,yp), Calendar(year), year >= yp - 1, year <= yp + 4")
	rows, err := ucq.Eval(db, q)
	if err != nil {
		t.Fatal(err)
	}
	decl := map[string]float64{}
	for _, r := range rows {
		dy := r.Head[1].Int - first[r.Head[0].Int]
		decl[engine.TupleKey(r.Head)] = math.Exp(1 - 0.15*float64(dy))
	}
	// The declarative table covers ALL authors; the generator only makes
	// students. Every generator tuple must appear with an equal weight.
	gen := db.Relation("Student")
	if len(decl) < gen.Len() {
		t.Fatalf("declarative table smaller than generated: %d vs %d", len(decl), gen.Len())
	}
	for _, tup := range gen.Tuples {
		w, ok := decl[engine.TupleKey(tup.Vals)]
		if !ok {
			t.Fatalf("generated tuple %v missing from declarative table", tup.Vals)
		}
		if math.Abs(w-tup.Weight) > 1e-9 {
			t.Errorf("weight mismatch at %v: %v vs %v", tup.Vals, w, tup.Weight)
		}
	}
	// And declarative tuples for student authors must all be generated.
	for _, r := range rows {
		if students[r.Head[0].Int] && gen.Lookup(r.Head) < 0 {
			t.Errorf("declarative tuple %v missing from generator output", r.Head)
		}
	}
}

func TestZipfAdvisors(t *testing.T) {
	uni, err := Generate(Config{NumAuthors: 2000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	zipf, err := Generate(Config{NumAuthors: 2000, Seed: 3, ZipfAdvisors: true})
	if err != nil {
		t.Fatal(err)
	}
	maxStudents := func(d *Dataset) int {
		counts := map[int64]int{}
		for _, a := range d.StudentAdvisor {
			counts[a]++
		}
		max := 0
		for _, c := range counts {
			if c > max {
				max = c
			}
		}
		return max
	}
	mu, mz := maxStudents(uni), maxStudents(zipf)
	if mz <= 2*mu {
		t.Errorf("Zipf skew too weak: max students uniform=%d zipf=%d", mu, mz)
	}
	// The skewed dataset still runs through the full pipeline.
	m, err := zipf.MVDB(zipf.V1, zipf.V2)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := m.Translate(core.TranslateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := mvindex.Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := ix.Query(QueryStudentsOfAdvisorID(zipf.StudentAdvisor[zipf.Students[0]]),
		mvindex.IntersectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Prob < -1e-9 || r.Prob > 1+1e-9 {
			t.Errorf("probability %v outside [0,1]", r.Prob)
		}
	}
}
