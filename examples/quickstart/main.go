// Quickstart: Example 1 of the paper, end to end.
//
// Two possible tuples R(a), S(a) with weights w1, w2 and one MarkoView
// V(x)[w] :- R(x), S(x) correlating them. The program prints P(R(a) ∧ S(a))
// for several view weights, showing how w < 1 suppresses co-occurrence,
// w = 1 means independence, and w > 1 rewards it — and that the translated
// tuple-independent database agrees with the Markov Logic Network
// semantics even when the translation produces negative probabilities.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"mvdb"
)

func main() {
	const w1, w2 = 2.0, 3.0
	fmt.Printf("Tup = {R(a) [w=%g], S(a) [w=%g]}, MarkoView V(x)[w] :- R(x), S(x)\n\n", w1, w2)
	fmt.Printf("%-8s %-14s %-14s %-14s\n", "w", "P(R∧S)", "P(R∨S)", "NV weight w0")

	for _, w := range []float64{0, 0.25, 1, 2, 8} {
		db := mvdb.NewDatabase()
		db.MustCreateRelation("R", false, "x")
		db.MustCreateRelation("S", false, "x")
		db.MustInsert("R", w1, mvdb.Int(1))
		db.MustInsert("S", w2, mvdb.Int(1))

		m := mvdb.New(db)
		view, err := mvdb.ParseView("V(x) :- R(x), S(x)", mvdb.ConstWeight(w))
		if err != nil {
			log.Fatal(err)
		}
		if err := m.AddView(view); err != nil {
			log.Fatal(err)
		}

		tr, err := m.Translate(mvdb.TranslateOptions{KeepIndependent: true})
		if err != nil {
			log.Fatal(err)
		}
		ix, err := mvdb.BuildIndex(tr)
		if err != nil {
			log.Fatal(err)
		}
		and, err1 := prob(ix, "Q() :- R(x), S(x)")
		or, err2 := prob(ix, "Q() :- R(x)\nQ() :- S(x)")
		if err1 != nil || err2 != nil {
			log.Fatal(err1, err2)
		}
		// The translated NV tuple weight (1-w)/w is negative for w > 1.
		w0 := "—"
		if w > 0 {
			w0 = fmt.Sprintf("%.3f", (1-w)/w)
		}
		fmt.Printf("%-8g %-14.6f %-14.6f %-14s\n", w, and, or, w0)
	}

	fmt.Println("\nw=0 makes R(a), S(a) exclusive; w=1 independent (P = 2/3 * 3/4 = 1/2);")
	fmt.Println("w>1 positively correlated — computed through a tuple-independent")
	fmt.Println("database whose NV tuple has a NEGATIVE probability (Section 3.3).")
}

func prob(ix *mvdb.Index, src string) (float64, error) {
	q, err := mvdb.ParseQuery(src)
	if err != nil {
		return 0, err
	}
	return ix.ProbBoolean(q.UCQ, mvdb.IntersectOptions{})
}
