// These tests check the translation through Theorem 1 against the global
// methods and the Definition 4 oracle of package baseline, which imports
// core; so they live in the external test package.

package core_test

import (
	"math"
	"math/rand"
	"testing"

	"mvdb/internal/baseline"
	. "mvdb/internal/core"
	"mvdb/internal/engine"
	"mvdb/internal/lineage"
	"mvdb/internal/mln"
	"mvdb/internal/obdd"
	"mvdb/internal/ucq"
)

// example1 builds the MVDB of Example 1: Tup = {R(a), S(a)} with weights
// w1, w2 and one MarkoView V(x)[w] :- R(x), S(x).
func example1(w1, w2, w float64) *MVDB {
	db := engine.NewDatabase()
	db.MustCreateRelation("R", false, "x")
	db.MustCreateRelation("S", false, "x")
	db.MustInsert("R", w1, engine.Int(1))
	db.MustInsert("S", w2, engine.Int(1))
	m := New(db)
	v, err := ParseView("V(x) :- R(x), S(x)", ConstWeight(w))
	if err != nil {
		panic(err)
	}
	if err := m.AddView(v); err != nil {
		panic(err)
	}
	return m
}

func TestExample1ClosedForm(t *testing.T) {
	// Section 3.1 closed form: P(R(a) ∨ S(a)) = (w1+w2+w w1 w2)/Z.
	w1, w2, w := 2.0, 3.0, 0.5
	m := example1(w1, w2, w)
	q := ucq.MustParse("Q() :- R(x)\nQ() :- S(x)")
	want := (w1 + w2 + w*w1*w2) / (1 + w1 + w2 + w*w1*w2)

	exact, err := baseline.ProbExact(m, q.UCQ)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exact-want) > 1e-12 {
		t.Fatalf("ProbExact = %v want %v", exact, want)
	}
	tr, err := m.Translate(TranslateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, meth := range []baseline.Method{baseline.BruteForce, baseline.OBDD, baseline.Lifted} {
		got, err := baseline.New(tr).ProbBoolean(q.UCQ, meth)
		if err != nil {
			t.Fatalf("%v: %v", meth, err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%v: P = %v want %v", meth, got, want)
		}
	}
}

func TestExample1WeightRegimes(t *testing.T) {
	// w = 1 means independence; w = 0 exclusivity; w > 1 positive
	// correlation (Example 1 discussion).
	q := ucq.MustParse("Q() :- R(x), S(x)")
	for _, w := range []float64{0, 0.25, 1, 4} {
		m := example1(1, 1, w)
		want := w / (3 + w) // worlds 1,1,1,w; conjunction holds in the last
		exact, err := baseline.ProbExact(m, q.UCQ)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(exact-want) > 1e-12 {
			t.Fatalf("w=%v: exact = %v want %v", w, exact, want)
		}
		tr, err := m.Translate(TranslateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := baseline.New(tr).ProbBoolean(q.UCQ, baseline.OBDD)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("w=%v: OBDD P = %v want %v", w, got, want)
		}
	}
}

func TestTranslationWeights(t *testing.T) {
	m := example1(2, 3, 4)
	tr, err := m.Translate(TranslateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.NVRelations) != 1 {
		t.Fatalf("NV relations = %v", tr.NVRelations)
	}
	nv := tr.DB.Relation(tr.NVRelations[0])
	if nv == nil || nv.Len() != 1 {
		t.Fatalf("NV relation missing")
	}
	// w0 = (1-4)/4 = -0.75, a negative weight; p0 = -0.75/0.25 = -3.
	if got := nv.Tuples[0].Weight; math.Abs(got+0.75) > 1e-12 {
		t.Errorf("w0 = %v want -0.75", got)
	}
	if got := nv.Tuples[0].Prob(); math.Abs(got+3) > 1e-12 {
		t.Errorf("p0 = %v want -3", got)
	}
}

func TestIndependentViewPruned(t *testing.T) {
	m := example1(1, 1, 1)
	tr, err := m.Translate(TranslateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.PrunedIndependent != 1 || tr.HasConstraints() {
		t.Errorf("pruned=%d constraints=%v", tr.PrunedIndependent, tr.HasConstraints())
	}
	// KeepIndependent path must agree.
	tr2, err := m.Translate(TranslateOptions{KeepIndependent: true})
	if err != nil {
		t.Fatal(err)
	}
	q := ucq.MustParse("Q() :- R(x), S(x)")
	p1, err := baseline.New(tr).ProbBoolean(q.UCQ, baseline.BruteForce)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := baseline.New(tr2).ProbBoolean(q.UCQ, baseline.BruteForce)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p1-p2) > 1e-9 || math.Abs(p1-0.25) > 1e-9 {
		t.Errorf("p1=%v p2=%v want 0.25", p1, p2)
	}
}

func TestDenialViewOptimization(t *testing.T) {
	// V2-style: a person has at most one advisor.
	build := func() *MVDB {
		db := engine.NewDatabase()
		db.MustCreateRelation("Adv", false, "s", "a")
		db.MustInsert("Adv", 2, engine.Int(1), engine.Int(10))
		db.MustInsert("Adv", 2, engine.Int(1), engine.Int(11))
		db.MustInsert("Adv", 2, engine.Int(2), engine.Int(10))
		m := New(db)
		v, _ := ParseView("V(s,a,b) :- Adv(s,a), Adv(s,b), a <> b", ConstWeight(0))
		if err := m.AddView(v); err != nil {
			panic(err)
		}
		return m
	}
	q := ucq.MustParse("Q() :- Adv(1,a)")

	m := build()
	want, err := baseline.ProbExact(m, q.UCQ)
	if err != nil {
		t.Fatal(err)
	}
	trOpt, err := m.Translate(TranslateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(trOpt.DenialViews) != 1 || len(trOpt.NVRelations) != 0 {
		t.Errorf("denial optimization not applied: %+v", trOpt.DenialViews)
	}
	trGen, err := build().Translate(TranslateOptions{NoDenialOptimization: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(trGen.NVRelations) != 1 {
		t.Errorf("general path should create NV relation")
	}
	for name, tr := range map[string]*Translation{"optimized": trOpt, "general": trGen} {
		got, err := baseline.New(tr).ProbBoolean(q.UCQ, baseline.BruteForce)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s: P = %v want %v", name, got, want)
		}
		gotO, err := baseline.New(tr).ProbBoolean(q.UCQ, baseline.OBDD)
		if err != nil {
			t.Fatalf("%s obdd: %v", name, err)
		}
		if math.Abs(gotO-want) > 1e-9 {
			t.Errorf("%s obdd: P = %v want %v", name, gotO, want)
		}
	}
}

func TestViewValidation(t *testing.T) {
	db := engine.NewDatabase()
	db.MustCreateRelation("R", false, "x")
	db.MustInsert("R", 1, engine.Int(1))
	m := New(db)

	if err := m.AddView(&MarkoView{Name: "", Weight: ConstWeight(1)}); err == nil {
		t.Error("empty name accepted")
	}
	v, _ := ParseView("V(x) :- R(x)", ConstWeight(2))
	if err := m.AddView(v); err != nil {
		t.Fatal(err)
	}
	if err := m.AddView(v); err == nil {
		t.Error("duplicate view accepted")
	}
	v2, _ := ParseView("R(x) :- R(x)", ConstWeight(2))
	if err := m.AddView(v2); err == nil {
		t.Error("view named after relation accepted")
	}
	v3, _ := ParseView("V3(x) :- Nope(x)", ConstWeight(2))
	if err := m.AddView(v3); err == nil {
		t.Error("view over unknown relation accepted")
	}
	v4, _ := ParseView("V4(x) :- R(x,y)", ConstWeight(2))
	if err := m.AddView(v4); err == nil {
		t.Error("arity mismatch accepted")
	}
	v5, _ := ParseView("V5(x) :- R(x)", nil)
	if err := m.AddView(v5); err == nil {
		t.Error("nil weight accepted")
	}
}

func TestInvalidWeights(t *testing.T) {
	m := example1(1, 1, math.Inf(1))
	if _, err := m.Translate(TranslateOptions{}); err == nil {
		t.Error("weight +Inf accepted")
	}
	if _, err := baseline.GroundMLN(m); err == nil {
		t.Error("GroundMLN accepted +Inf view weight")
	}
	m2 := example1(1, 1, -2)
	if _, err := m2.Translate(TranslateOptions{}); err == nil {
		t.Error("negative view weight accepted")
	}
}

func TestQueryOverNVRejected(t *testing.T) {
	m := example1(1, 1, 2)
	tr, err := m.Translate(TranslateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q := ucq.MustParse("Q() :- NV_V(x)")
	if _, err := baseline.New(tr).ProbBoolean(q.UCQ, baseline.BruteForce); err == nil {
		t.Error("query over NV relation accepted")
	}
}

func TestQueryRows(t *testing.T) {
	// Two students, correlated advisors; non-Boolean query.
	db := engine.NewDatabase()
	db.MustCreateRelation("Adv", false, "s", "a")
	db.MustInsert("Adv", 1, engine.Int(1), engine.Int(10))
	db.MustInsert("Adv", 1, engine.Int(2), engine.Int(10))
	m := New(db)
	v, _ := ParseView("V(s) :- Adv(s,a)", ConstWeight(3))
	if err := m.AddView(v); err != nil {
		t.Fatal(err)
	}
	tr, err := m.Translate(TranslateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q := ucq.MustParse("Q(s) :- Adv(s,a)")
	rows, err := baseline.New(tr).Query(q, baseline.OBDD)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	// Cross-check each row against exact MLN inference.
	for _, r := range rows {
		b, _ := q.Bind(r.Head)
		want, err := baseline.ProbExact(m, b)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r.Prob-want) > 1e-9 {
			t.Errorf("row %v: P = %v want %v", r.Head, r.Prob, want)
		}
	}
}

// TestTheorem1Randomized is the central property test: on random small
// MVDBs, Theorem 1 through every evaluation method must agree with the
// Definition 4 semantics computed by exhaustive world enumeration.
func TestTheorem1Randomized(t *testing.T) {
	rng := rand.New(rand.NewSource(2012))
	queries := []string{
		"Q() :- R(x), S(x,y)",
		"Q() :- R(x)",
		"Q() :- S(x,y), T(y)",
		"Q() :- R(x)\nQ() :- T(y)",
		"Q() :- R(1)",
	}
	views := []struct {
		src    string
		weight func(*rand.Rand) float64
	}{
		{"V1(x) :- R(x), S(x,y)", func(r *rand.Rand) float64 { return r.Float64() * 3 }},
		{"V2(x,y) :- S(x,y), T(y)", func(r *rand.Rand) float64 { return r.Float64() * 2 }},
		{"V3(x) :- R(x), T(x)", func(r *rand.Rand) float64 {
			if r.Intn(3) == 0 {
				return 0 // denial
			}
			return 0.2 + r.Float64()*2
		}},
	}
	for trial := 0; trial < 30; trial++ {
		db := engine.NewDatabase()
		db.MustCreateRelation("R", false, "a")
		db.MustCreateRelation("T", false, "a")
		db.MustCreateRelation("S", false, "a", "b")
		n := 2 + rng.Int63n(2)
		for i := int64(1); i <= n; i++ {
			if rng.Intn(2) == 0 {
				db.MustInsert("R", rng.Float64()*3, engine.Int(i))
			}
			if rng.Intn(2) == 0 {
				db.MustInsert("T", rng.Float64()*3, engine.Int(i))
			}
			if rng.Intn(2) == 0 {
				db.MustInsert("S", rng.Float64()*3, engine.Int(i), engine.Int(i+1))
			}
		}
		if db.NumVars() == 0 {
			continue
		}
		m := New(db)
		nviews := 1 + rng.Intn(len(views))
		for vi := 0; vi < nviews; vi++ {
			spec := views[vi]
			w := spec.weight(rng)
			v, err := ParseView(spec.src, ConstWeight(w))
			if err != nil {
				t.Fatal(err)
			}
			if err := m.AddView(v); err != nil {
				t.Fatal(err)
			}
		}
		for _, qsrc := range queries {
			q := ucq.MustParse(qsrc)
			want, err := baseline.ProbExact(m, q.UCQ)
			if err != nil {
				t.Fatal(err)
			}
			for _, denialOpt := range []bool{false, true} {
				tr, err := m.Translate(TranslateOptions{NoDenialOptimization: denialOpt})
				if err != nil {
					t.Fatal(err)
				}
				for _, meth := range []baseline.Method{baseline.BruteForce, baseline.OBDD, baseline.DPLL} {
					got, err := baseline.New(tr).ProbBoolean(q.UCQ, meth)
					if err != nil {
						t.Fatal(err)
					}
					if math.Abs(got-want) > 1e-8 {
						t.Fatalf("trial %d q=%q method=%v denialOpt=%v: got %v want %v",
							trial, qsrc, meth, denialOpt, got, want)
					}
					if got < -1e-9 || got > 1+1e-9 {
						t.Fatalf("P(Q)=%v outside [0,1]", got)
					}
				}
			}
		}
	}
}

func TestInconsistentViews(t *testing.T) {
	// A denial view that forbids every world containing the only tuple is
	// fine; but one forbidding everything (weight 0 on an always-true view)
	// makes P0(¬W)=0... construct: R(a) present with weight ∞ is not
	// allowed for probabilistic tables, so emulate: two exclusive tuples
	// both required. Simplest: V() over empty body is impossible; instead
	// check the error path via a view that always holds.
	db := engine.NewDatabase()
	db.MustCreateRelation("D", true, "x")
	db.MustInsertDet("D", engine.Int(1))
	db.MustCreateRelation("R", false, "x")
	db.MustInsert("R", 1, engine.Int(1))
	m := New(db)
	v, _ := ParseView("V(x) :- D(x)", ConstWeight(0)) // forbids all worlds
	if err := m.AddView(v); err != nil {
		t.Fatal(err)
	}
	tr, err := m.Translate(TranslateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q := ucq.MustParse("Q() :- R(x)")
	if _, err := baseline.New(tr).ProbBoolean(q.UCQ, baseline.BruteForce); err == nil {
		t.Error("inconsistent views: expected error")
	}
}

func TestMCSatOnMVDBConverges(t *testing.T) {
	m := example1(2, 3, 0.5)
	q := ucq.MustParse("Q() :- R(x), S(x)")
	want, err := baseline.ProbExact(m, q.UCQ)
	if err != nil {
		t.Fatal(err)
	}
	got, err := baseline.ProbMCSat(m, q.UCQ, mlnOptsForTest())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 0.05 {
		t.Errorf("MC-SAT = %v exact = %v", got, want)
	}
}

func mlnOptsForTest() mln.MCSatOptions {
	return mln.MCSatOptions{Burn: 500, Samples: 20000, Seed: 8}
}

func TestProbConditional(t *testing.T) {
	// P(S(1) | R(1)) on Example 1 with correlation w.
	w1, w2, w := 2.0, 3.0, 0.5
	m := example1(w1, w2, w)
	tr, err := m.Translate(TranslateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	qS := ucq.MustParse("Q() :- S(x)")
	qR := ucq.MustParse("Q() :- R(x)")
	got, err := baseline.New(tr).ProbConditional(qS.UCQ, qR.UCQ, baseline.OBDD)
	if err != nil {
		t.Fatal(err)
	}
	// Worlds: {}:1, {R}:w1, {S}:w2, {RS}:w w1 w2.
	// P(S|R) = w w1 w2 / (w1 + w w1 w2).
	want := (w * w1 * w2) / (w1 + w*w1*w2)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("P(S|R) = %v want %v", got, want)
	}
	// Conditioning must be able to change the marginal (correlation).
	pS, _ := baseline.New(tr).ProbBoolean(qS.UCQ, baseline.OBDD)
	if math.Abs(got-pS) < 1e-6 {
		t.Errorf("conditioning had no effect: %v vs %v", got, pS)
	}
	// Impossible evidence errors.
	qNone := ucq.MustParse("Q() :- R(99)")
	if _, err := baseline.New(tr).ProbConditional(qS.UCQ, qNone.UCQ, baseline.BruteForce); err == nil {
		t.Error("conditioning on impossible event accepted")
	}
}

func TestProbConditionalAgainstExact(t *testing.T) {
	// Cross-check P(Q|E) against exact enumeration: P(Q ∧ E)/P(E) via MLN.
	m := example1(1.5, 0.8, 3)
	tr, err := m.Translate(TranslateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	qS := ucq.MustParse("Q() :- S(x)")
	qR := ucq.MustParse("Q() :- R(x)")
	pQE, err := baseline.ProbExact(m, ucq.Conjoin(qS.UCQ, qR.UCQ))
	if err != nil {
		t.Fatal(err)
	}
	pE, err := baseline.ProbExact(m, qR.UCQ)
	if err != nil {
		t.Fatal(err)
	}
	want := pQE / pE
	got, err := baseline.New(tr).ProbConditional(qS.UCQ, qR.UCQ, baseline.BruteForce)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("P(Q|E) = %v want %v", got, want)
	}
}

func TestTopK(t *testing.T) {
	answers := []Answer{
		{Head: []engine.Value{engine.Int(1)}, Prob: 0.2},
		{Head: []engine.Value{engine.Int(2)}, Prob: 0.9},
		{Head: []engine.Value{engine.Int(3)}, Prob: 0.5},
		{Head: []engine.Value{engine.Int(4)}, Prob: 0.9},
	}
	top := TopK(answers, 2)
	if len(top) != 2 || top[0].Prob != 0.9 || top[1].Prob != 0.9 {
		t.Errorf("TopK = %+v", top)
	}
	// Deterministic tie-break by head.
	if top[0].Head[0].Int != 2 || top[1].Head[0].Int != 4 {
		t.Errorf("tie break = %+v", top)
	}
	// Input unchanged.
	if answers[0].Prob != 0.2 {
		t.Error("TopK mutated input")
	}
	if got := TopK(answers, 10); len(got) != 4 {
		t.Errorf("TopK over-length = %d", len(got))
	}
}

func TestMethodDPLL(t *testing.T) {
	// DPLL must agree with every other exact method on the Theorem 1 tests.
	m := example1(2, 3, 4)
	tr, err := m.Translate(TranslateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{"Q() :- R(x), S(x)", "Q() :- R(x)\nQ() :- S(x)", "Q() :- R(1)"}
	for _, src := range queries {
		q := ucq.MustParse(src)
		want, err := baseline.ProbExact(m, q.UCQ)
		if err != nil {
			t.Fatal(err)
		}
		got, err := baseline.New(tr).ProbBoolean(q.UCQ, baseline.DPLL)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%q: dpll = %v exact = %v", src, got, want)
		}
	}
	if baseline.DPLL.String() != "dpll" {
		t.Errorf("String = %q", baseline.DPLL.String())
	}
}

func TestMethodDPLLOnQueryRows(t *testing.T) {
	db := engine.NewDatabase()
	db.MustCreateRelation("Adv", false, "s", "a")
	db.MustInsert("Adv", 1.5, engine.Int(1), engine.Int(10))
	db.MustInsert("Adv", 2.0, engine.Int(1), engine.Int(11))
	db.MustInsert("Adv", 0.5, engine.Int(2), engine.Int(10))
	m := New(db)
	v, _ := ParseView("V(s,a,b) :- Adv(s,a), Adv(s,b), a <> b", ConstWeight(0.2))
	if err := m.AddView(v); err != nil {
		t.Fatal(err)
	}
	tr, err := m.Translate(TranslateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q := ucq.MustParse("Q(s) :- Adv(s,a)")
	dp, err := baseline.New(tr).Query(q, baseline.DPLL)
	if err != nil {
		t.Fatal(err)
	}
	ob, err := baseline.New(tr).Query(q, baseline.OBDD)
	if err != nil {
		t.Fatal(err)
	}
	for i := range dp {
		if math.Abs(dp[i].Prob-ob[i].Prob) > 1e-9 {
			t.Errorf("row %v: dpll %v obdd %v", dp[i].Head, dp[i].Prob, ob[i].Prob)
		}
	}
}

func TestViewWithDeterministicNegation(t *testing.T) {
	// Views may negate deterministic atoms (footnote-3 style filters);
	// negating a probabilistic atom is rejected (Section 2.5: MarkoViews
	// are UCQs without negation over the probabilistic tables).
	db := engine.NewDatabase()
	db.MustCreateRelation("R", false, "x")
	db.MustCreateRelation("Blocked", true, "x")
	db.MustInsert("R", 1, engine.Int(1))
	db.MustInsert("R", 1, engine.Int(2))
	db.MustInsertDet("Blocked", engine.Int(2))
	m := New(db)
	v, _ := ParseView("V(x) :- R(x), not Blocked(x)", ConstWeight(3))
	if err := m.AddView(v); err != nil {
		t.Fatal(err)
	}
	tuples, err := m.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 1 || tuples[0].Head[0].Int != 1 {
		t.Fatalf("view tuples = %+v", tuples)
	}
	// Full pipeline stays exact.
	tr, err := m.Translate(TranslateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q := ucq.MustParse("Q() :- R(1)")
	want, err := baseline.ProbExact(m, q.UCQ)
	if err != nil {
		t.Fatal(err)
	}
	got, err := baseline.New(tr).ProbBoolean(q.UCQ, baseline.OBDD)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("P = %v want %v", got, want)
	}
}

func TestViewWithProbabilisticNegationRejected(t *testing.T) {
	// The Section 2.5 "transitive closure" view 1/w :- R(x,y),R(y,z),
	// not R(x,z) requires negation on a probabilistic table; the paper
	// restricts MarkoViews to avoid it, and so do we.
	db := engine.NewDatabase()
	db.MustCreateRelation("E", false, "x", "y")
	db.MustInsert("E", 1, engine.Int(1), engine.Int(2))
	db.MustInsert("E", 1, engine.Int(2), engine.Int(3))
	m := New(db)
	v, _ := ParseView("V(x,y,z) :- E(x,y), E(y,z), not E(x,z)", ConstWeight(0.5))
	if err := m.AddView(v); err != nil {
		t.Fatal(err) // registration only checks structure
	}
	if _, err := m.Materialize(); err == nil {
		t.Error("negation on probabilistic table accepted at materialization")
	}
}

func TestIsNVVar(t *testing.T) {
	m := example1(1, 1, 2)
	tr, err := m.Translate(TranslateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Vars 1,2 are R(1),S(1); var 3 is the NV tuple.
	if tr.IsNVVar(1) || tr.IsNVVar(2) {
		t.Error("source tuple classified as NV")
	}
	if !tr.IsNVVar(3) {
		t.Error("NV tuple not classified")
	}
	if tr.IsNVVar(99) {
		t.Error("out-of-range var classified as NV")
	}
}

func TestDefineProbTable(t *testing.T) {
	// The Figure 1 Studentp definition, verbatim up to the weight closure:
	// Studentp(aid,year)[exp(1-.15(year-year'))] :- FirstPub(aid,year'),
	// year'-1 <= year <= year'+5 — with a Calendar table supplying years.
	db := engine.NewDatabase()
	db.MustCreateRelation("FirstPub", true, "aid", "year")
	db.MustCreateRelation("Calendar", true, "year")
	db.MustInsertDet("FirstPub", engine.Int(1), engine.Int(2000))
	db.MustInsertDet("FirstPub", engine.Int(2), engine.Int(2008))
	for y := int64(1995); y <= 2015; y++ {
		db.MustInsertDet("Calendar", engine.Int(y))
	}
	first := map[int64]int64{1: 2000, 2: 2008}
	q := ucq.MustParse("Student(aid,year) :- FirstPub(aid,yp), Calendar(year), year >= yp - 1, year <= yp + 5")
	n, err := DefineProbTable(db, q, func(head []engine.Value) float64 {
		dy := head[1].Int - first[head[0].Int]
		return math.Exp(1 - 0.15*float64(dy))
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 14 { // 7 years per author (yp-1 .. yp+5)
		t.Fatalf("inserted %d tuples", n)
	}
	st := db.Relation("Student")
	if st == nil || st.Deterministic {
		t.Fatal("Student relation wrong")
	}
	// Spot-check a weight: author 1, year 2003 -> dy=3 -> e^{0.55}.
	i := st.Lookup([]engine.Value{engine.Int(1), engine.Int(2003)})
	if i < 0 {
		t.Fatal("tuple missing")
	}
	if got, want := st.Tuples[i].Weight, math.Exp(1-0.45); math.Abs(got-want) > 1e-12 {
		t.Errorf("weight = %v want %v", got, want)
	}
}

func TestDefineProbTableErrors(t *testing.T) {
	db := engine.NewDatabase()
	db.MustCreateRelation("D", true, "a")
	db.MustCreateRelation("P", false, "a")
	db.MustInsertDet("D", engine.Int(1))
	db.MustInsert("P", 1, engine.Int(1))
	q := ucq.MustParse("T(a) :- D(a)")
	if _, err := DefineProbTable(db, q, nil); err == nil {
		t.Error("nil weight accepted")
	}
	qb := ucq.MustParse("T() :- D(a)")
	if _, err := DefineProbTable(db, qb, ConstWeight(1)); err == nil {
		t.Error("headless table accepted")
	}
	qp := ucq.MustParse("T(a) :- P(a)")
	if _, err := DefineProbTable(db, qp, ConstWeight(1)); err == nil {
		t.Error("prob-table source accepted")
	}
	qn := ucq.MustParse("T(a) :- Nope(a)")
	if _, err := DefineProbTable(db, qn, ConstWeight(1)); err == nil {
		t.Error("unknown relation accepted")
	}
	if _, err := DefineProbTable(db, q, ConstWeight(-1)); err == nil {
		t.Error("negative weight accepted")
	}
	// Name clash with an existing relation.
	qc := ucq.MustParse("D(a) :- D(a)")
	if _, err := DefineProbTable(db, qc, ConstWeight(1)); err == nil {
		t.Error("relation-name clash accepted")
	}
}

func TestProbWAllMethods(t *testing.T) {
	m := example1(2, 3, 0.5)
	tr, err := m.Translate(TranslateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := baseline.New(tr).ProbW(baseline.BruteForce)
	if err != nil {
		t.Fatal(err)
	}
	for _, meth := range []baseline.Method{baseline.OBDD, baseline.Lifted, baseline.DPLL} {
		got, err := baseline.New(tr).ProbW(meth)
		if err != nil {
			t.Fatalf("%v: %v", meth, err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%v: P0(W) = %v want %v", meth, got, want)
		}
	}
	// No constraints: ProbW is 0 for every method.
	db := engine.NewDatabase()
	db.MustCreateRelation("R", false, "x")
	db.MustInsert("R", 1, engine.Int(1))
	tr2, err := New(db).Translate(TranslateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, meth := range []baseline.Method{baseline.BruteForce, baseline.OBDD, baseline.Lifted, baseline.DPLL} {
		if p, err := baseline.New(tr2).ProbW(meth); err != nil || p != 0 {
			t.Errorf("%v: P0(W) = %v, %v", meth, p, err)
		}
	}
	if _, err := baseline.New(tr).ProbW(baseline.Method(99)); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestCompileStatsExposed(t *testing.T) {
	m := example1(2, 3, 0.5)
	tr, err := m.Translate(TranslateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, _, st, err := tr.CompileW(obdd.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.ConcatSteps+st.SynthSteps+st.LineageFalls == 0 {
		t.Errorf("stats all zero: %+v", st)
	}
	var agg obdd.CompileStats
	agg.Add(st)
	agg.Add(st)
	if agg.ConcatSteps != 2*st.ConcatSteps {
		t.Errorf("Add broken: %+v", agg)
	}
}

func TestSnapshotRestoreWithinCore(t *testing.T) {
	m := example1(2, 3, 4)
	tr, err := m.Translate(TranslateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	snap := tr.Snapshot()
	back, err := RestoreTranslation(tr.DB.Clone(), snap)
	if err != nil {
		t.Fatal(err)
	}
	q := ucq.MustParse("Q() :- R(x), S(x)")
	want, err := baseline.New(tr).ProbBoolean(q.UCQ, baseline.BruteForce)
	if err != nil {
		t.Fatal(err)
	}
	got, err := baseline.New(back).ProbBoolean(q.UCQ, baseline.BruteForce)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("restored: %v want %v", got, want)
	}
	// The restored translation still rejects NV queries.
	nv := ucq.MustParse("Q() :- NV_V(x)")
	if _, err := baseline.New(back).ProbBoolean(nv.UCQ, baseline.BruteForce); err == nil {
		t.Error("NV query accepted after restore")
	}
	// The restored translation compiles W like the original.
	got, err = baseline.New(back).ProbBoolean(q.UCQ, baseline.OBDD)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("restored OBDD: %v want %v", got, want)
	}
}

func TestQueryAllMethodsAgree(t *testing.T) {
	db := engine.NewDatabase()
	db.MustCreateRelation("Adv", false, "s", "a")
	db.MustInsert("Adv", 1.5, engine.Int(1), engine.Int(10))
	db.MustInsert("Adv", 2.5, engine.Int(1), engine.Int(11))
	db.MustInsert("Adv", 0.7, engine.Int(2), engine.Int(10))
	m := New(db)
	v, _ := ParseView("V(s) :- Adv(s,a)", ConstWeight(1.6))
	if err := m.AddView(v); err != nil {
		t.Fatal(err)
	}
	tr, err := m.Translate(TranslateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q := ucq.MustParse("Q(s) :- Adv(s,a)")
	ref, err := baseline.New(tr).Query(q, baseline.BruteForce)
	if err != nil {
		t.Fatal(err)
	}
	// Q ∨ W is unsafe here (Adv self-join through the view), so only the
	// lineage-based methods apply; TestQueryMethodLifted covers lifted on a
	// view where Q ∨ W is safe.
	for _, meth := range []baseline.Method{baseline.OBDD, baseline.DPLL} {
		got, err := baseline.New(tr).Query(q, meth)
		if err != nil {
			t.Fatalf("%v: %v", meth, err)
		}
		if len(got) != len(ref) {
			t.Fatalf("%v: %d rows vs %d", meth, len(got), len(ref))
		}
		for i := range got {
			if math.Abs(got[i].Prob-ref[i].Prob) > 1e-9 {
				t.Errorf("%v row %v: %v vs %v", meth, got[i].Head, got[i].Prob, ref[i].Prob)
			}
		}
	}
}

func TestProbGivenTuples(t *testing.T) {
	// Example 1 with w = 0.25: conditioning on R(1) present must raise the
	// information about S(1) according to the (negative) correlation.
	m := example1(2, 3, 0.25)
	tr, err := m.Translate(TranslateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	qS := ucq.MustParse("Q() :- S(x)")
	// Exact reference via the MLN: P(S | R) = P(S ∧ R)/P(R).
	net, err := baseline.GroundMLN(m)
	if err != nil {
		t.Fatal(err)
	}
	pSR, _ := net.MarginalExact(lineage.And{lineage.Var(1), lineage.Var(2)})
	pR, _ := net.MarginalExact(lineage.Var(1))
	want := pSR / pR
	for _, meth := range []baseline.Method{baseline.BruteForce, baseline.DPLL} {
		got, err := baseline.New(tr).ProbGivenTuples(qS.UCQ, baseline.Evidence{1: true}, meth)
		if err != nil {
			t.Fatalf("%v: %v", meth, err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%v: P(S|R) = %v want %v", meth, got, want)
		}
	}
	// Negative evidence: P(S | ¬R) = P(S ∧ ¬R)/P(¬R).
	pSnR, _ := net.MarginalExact(lineage.And{lineage.Not{F: lineage.Var(1)}, lineage.Var(2)})
	pnR, _ := net.MarginalExact(lineage.Not{F: lineage.Var(1)})
	want = pSnR / pnR
	got, err := baseline.New(tr).ProbGivenTuples(qS.UCQ, baseline.Evidence{1: false}, baseline.DPLL)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("P(S|¬R) = %v want %v", got, want)
	}
	// Errors.
	if _, err := baseline.New(tr).ProbGivenTuples(qS.UCQ, baseline.Evidence{99: true}, baseline.DPLL); err == nil {
		t.Error("out-of-range evidence accepted")
	}
	if _, err := baseline.New(tr).ProbGivenTuples(qS.UCQ, baseline.Evidence{3: true}, baseline.DPLL); err == nil {
		t.Error("NV evidence accepted")
	}
	if _, err := baseline.New(tr).ProbGivenTuples(qS.UCQ, baseline.Evidence{1: true}, baseline.OBDD); err == nil {
		t.Error("unsupported method accepted")
	}
}

func TestProbGivenTuplesWithDenial(t *testing.T) {
	// Exclusive advisors: conditioning on one present forces the other out.
	db := engine.NewDatabase()
	db.MustCreateRelation("Adv", false, "s", "a")
	v1 := db.MustInsert("Adv", 2, engine.Int(1), engine.Int(10))
	db.MustInsert("Adv", 2, engine.Int(1), engine.Int(11))
	m := New(db)
	v, _ := ParseView("V(s,a,b) :- Adv(s,a), Adv(s,b), a <> b", ConstWeight(0))
	if err := m.AddView(v); err != nil {
		t.Fatal(err)
	}
	tr, err := m.Translate(TranslateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q := ucq.MustParse("Q() :- Adv(1,11)")
	got, err := baseline.New(tr).ProbGivenTuples(q.UCQ, baseline.Evidence{v1: true}, baseline.DPLL)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("P(other advisor | this advisor) = %v want 0", got)
	}
	// Evidence contradicting the views errors... asserting both present:
	if _, err := baseline.New(tr).ProbGivenTuples(q.UCQ, baseline.Evidence{1: true, 2: true}, baseline.DPLL); err == nil {
		t.Error("contradictory evidence accepted")
	}
}

func TestQueryMethodLifted(t *testing.T) {
	// Query binds each answer's head and evaluates P0(Q ∨ W) and P0(W) with
	// lifted inference. With the view over a different relation than the
	// query, W is an independent union term; the answers must match the
	// OBDD method.
	db := engine.NewDatabase()
	db.MustCreateRelation("R", false, "x")
	db.MustCreateRelation("S", false, "x")
	db.MustInsert("R", 2, engine.Int(1))
	db.MustInsert("R", 1, engine.Int(2))
	db.MustInsert("S", 3, engine.Int(1))
	db.MustInsert("S", 1, engine.Int(2))
	m := New(db)
	v, _ := ParseView("V(x) :- S(x)", ConstWeight(0.5))
	if err := m.AddView(v); err != nil {
		t.Fatal(err)
	}
	tr, err := m.Translate(TranslateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q := ucq.MustParse("Q(x) :- R(x)")
	got, err := baseline.New(tr).Query(q, baseline.Lifted)
	if err != nil {
		t.Fatal(err)
	}
	want, err := baseline.New(tr).Query(q, baseline.OBDD)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || len(got) != 2 {
		t.Fatalf("rows: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i].Prob-want[i].Prob) > 1e-9 {
			t.Errorf("row %v: lifted %v obdd %v", got[i].Head, got[i].Prob, want[i].Prob)
		}
	}
}
