package mvdb_test

import (
	"fmt"
	"log"

	"mvdb"
)

// Example reproduces Example 1 of the paper: two tuples correlated by one
// MarkoView, evaluated through the tuple-independent translation.
func Example() {
	db := mvdb.NewDatabase()
	db.MustCreateRelation("R", false, "x")
	db.MustCreateRelation("S", false, "x")
	db.MustInsert("R", 2.0, mvdb.Int(1))
	db.MustInsert("S", 3.0, mvdb.Int(1))

	m := mvdb.New(db)
	v, err := mvdb.ParseView("V(x) :- R(x), S(x)", mvdb.ConstWeight(0.5))
	if err != nil {
		log.Fatal(err)
	}
	if err := m.AddView(v); err != nil {
		log.Fatal(err)
	}
	tr, err := m.Translate(mvdb.TranslateOptions{})
	if err != nil {
		log.Fatal(err)
	}
	q, err := mvdb.ParseQuery("Q() :- R(x), S(x)")
	if err != nil {
		log.Fatal(err)
	}
	p, err := mvdb.NewEvaluator(tr).ProbBoolean(q.UCQ, mvdb.MethodOBDD)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("P(R ∧ S) = %.4f\n", p)
	// Output: P(R ∧ S) = 0.3333
}

// ExampleBuildIndex compiles a MarkoView set into an MV-index offline and
// answers a non-Boolean query with per-answer probabilities.
func ExampleBuildIndex() {
	db := mvdb.NewDatabase()
	db.MustCreateRelation("Adv", false, "student", "advisor")
	db.MustInsert("Adv", 2.0, mvdb.Int(1), mvdb.Int(10))
	db.MustInsert("Adv", 2.0, mvdb.Int(1), mvdb.Int(11))

	m := mvdb.New(db)
	// Denial constraint: at most one advisor per student.
	v, _ := mvdb.ParseView("V(s,a,b) :- Adv(s,a), Adv(s,b), a <> b", mvdb.ConstWeight(0))
	if err := m.AddView(v); err != nil {
		log.Fatal(err)
	}
	tr, _ := m.Translate(mvdb.TranslateOptions{})
	ix, err := mvdb.BuildIndex(tr)
	if err != nil {
		log.Fatal(err)
	}
	q, _ := mvdb.ParseQuery("Q(a) :- Adv(1,a)")
	rows, err := ix.Query(q, mvdb.IntersectOptions{})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range rows {
		fmt.Printf("advisor %v: %.4f\n", r.Head[0].Int, r.Prob)
	}
	// Without the view each advisor has probability 2/3 ≈ 0.6667; the
	// denial view makes them exclusive.
	// Output:
	// advisor 10: 0.2857
	// advisor 11: 0.2857
}

// ExampleEvaluator_ProbBoolean shows the negative probabilities produced
// by a positively-weighted view (Section 3.3): intermediate P0 values leave
// [0,1] but the final answer is a true probability.
func ExampleEvaluator_ProbBoolean() {
	db := mvdb.NewDatabase()
	db.MustCreateRelation("R", false, "x")
	db.MustCreateRelation("S", false, "x")
	db.MustInsert("R", 1.0, mvdb.Int(1))
	db.MustInsert("S", 1.0, mvdb.Int(1))
	m := mvdb.New(db)
	v, _ := mvdb.ParseView("V(x) :- R(x), S(x)", mvdb.ConstWeight(4)) // w>1: NV weight (1-4)/4 < 0
	if err := m.AddView(v); err != nil {
		log.Fatal(err)
	}
	tr, _ := m.Translate(mvdb.TranslateOptions{})
	ev := mvdb.NewEvaluator(tr)
	pW, _ := ev.ProbW(mvdb.MethodOBDD)
	q, _ := mvdb.ParseQuery("Q() :- R(x), S(x)")
	p, _ := ev.ProbBoolean(q.UCQ, mvdb.MethodOBDD)
	fmt.Printf("P0(W) = %.4f (negative!)\n", pW)
	fmt.Printf("P(Q) = %.4f\n", p)
	// Output:
	// P0(W) = -0.7500 (negative!)
	// P(Q) = 0.5714
}

// ExampleIsSafe classifies queries by the existence of a safe plan.
func ExampleIsSafe() {
	safe, _ := mvdb.ParseQuery("Q() :- R(x), S(x,y)")
	hard, _ := mvdb.ParseQuery("Q() :- R(x), S(x,y), T(y)")
	fmt.Println(mvdb.IsSafe(safe.UCQ), mvdb.IsSafe(hard.UCQ))
	// Output: true false
}
