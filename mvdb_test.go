package mvdb

import (
	"math"
	"os"
	"testing"
)

// TestFacadeQuickstart runs the doc-comment quickstart end to end.
func TestFacadeQuickstart(t *testing.T) {
	db := NewDatabase()
	db.MustCreateRelation("R", false, "x")
	db.MustCreateRelation("S", false, "x")
	db.MustInsert("R", 2.0, Int(1))
	db.MustInsert("S", 3.0, Int(1))

	m := New(db)
	v, err := ParseView("V(x) :- R(x), S(x)", ConstWeight(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddView(v); err != nil {
		t.Fatal(err)
	}
	tr, err := m.Translate(TranslateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildIndex(tr)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ParseQuery("Q() :- R(x), S(x)")
	if err != nil {
		t.Fatal(err)
	}
	p, err := ix.ProbBoolean(q.UCQ, IntersectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Closed form: worlds 1, 2, 3, 0.5*6 -> P(R∧S) = 3/(1+2+3+3) = 1/3.
	if math.Abs(p-3.0/9.0) > 1e-9 {
		t.Errorf("P = %v want 1/3", p)
	}
	// Cross-check against the global baseline methods.
	ev := NewEvaluator(tr)
	for _, meth := range []Method{MethodBruteForce, MethodOBDD, MethodLifted} {
		got, err := ev.ProbBoolean(q.UCQ, meth)
		if err != nil {
			t.Fatalf("%v: %v", meth, err)
		}
		if math.Abs(got-p) > 1e-9 {
			t.Errorf("%v: %v vs index %v", meth, got, p)
		}
	}
}

func TestFacadeIsSafe(t *testing.T) {
	q, err := ParseQuery("Q() :- R(x), S(x,y)")
	if err != nil {
		t.Fatal(err)
	}
	if !IsSafe(q.UCQ) {
		t.Error("hierarchical query reported unsafe")
	}
	q, _ = ParseQuery("Q() :- R(x), S(x,y), T(y)")
	if IsSafe(q.UCQ) {
		t.Error("H0 reported safe")
	}
}

func TestFacadeDBLP(t *testing.T) {
	d, err := GenerateDBLP(DBLPConfig{NumAuthors: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := d.MVDB()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := m.Translate(TranslateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildIndex(tr)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Size() == 0 {
		t.Error("empty index on DBLP data")
	}
}

func TestFacadeIndexPersistence(t *testing.T) {
	d, err := GenerateDBLP(DBLPConfig{NumAuthors: 80, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := d.MVDB()
	tr, err := m.Translate(TranslateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildIndex(tr)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/x.mvx"
	if err := ix.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Size() != ix.Size() {
		t.Errorf("size %d vs %d", back.Size(), ix.Size())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	back2, err := ReadIndex(f)
	if err != nil {
		t.Fatal(err)
	}
	if back2.Blocks() != ix.Blocks() {
		t.Errorf("blocks %d vs %d", back2.Blocks(), ix.Blocks())
	}
}

func TestFacadeMLN(t *testing.T) {
	db := NewDatabase()
	db.MustCreateRelation("R", false, "x")
	db.MustCreateRelation("S", false, "x")
	db.MustInsert("R", 4.0, Int(1))
	db.MustInsert("S", 4.0, Int(1))
	m := New(db)
	v, _ := ParseView("V(x) :- R(x), S(x)", ConstWeight(0)) // exclusive
	if err := m.AddView(v); err != nil {
		t.Fatal(err)
	}
	net, err := GroundMLN(m)
	if err != nil {
		t.Fatal(err)
	}
	p, err := net.MarginalExact(VarFormula(1))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ProbMCSat(m, mustQ(t, "Q() :- R(1)").UCQ, MCSatOptions{Burn: 200, Samples: 5000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-p) > 0.05 {
		t.Errorf("MC-SAT %v vs exact %v", got, p)
	}
}

func TestFacadeConditionalAndConjoin(t *testing.T) {
	db := NewDatabase()
	db.MustCreateRelation("R", false, "x")
	db.MustCreateRelation("S", false, "x")
	db.MustInsert("R", 1, Int(1))
	db.MustInsert("S", 1, Int(1))
	m := New(db)
	v, _ := ParseView("V(x) :- R(x), S(x)", ConstWeight(3))
	if err := m.AddView(v); err != nil {
		t.Fatal(err)
	}
	tr, _ := m.Translate(TranslateOptions{})
	ev := NewEvaluator(tr)
	qs := mustQ(t, "Q() :- S(x)")
	qr := mustQ(t, "Q() :- R(x)")
	cond, err := ev.ProbConditional(qs.UCQ, qr.UCQ, MethodOBDD)
	if err != nil {
		t.Fatal(err)
	}
	joint, err := ev.ProbBoolean(Conjoin(qs.UCQ, qr.UCQ), MethodOBDD)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := ev.ProbBoolean(qr.UCQ, MethodOBDD)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cond-joint/pr) > 1e-9 {
		t.Errorf("cond %v vs joint/pr %v", cond, joint/pr)
	}
}

func mustQ(t *testing.T, src string) *Query {
	t.Helper()
	q, err := ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}
