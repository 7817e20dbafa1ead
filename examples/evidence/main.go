// Evidence: conditional queries over an MVDB.
//
// Knowing that one uncertain fact is true (or false) changes the
// probability of the others — through the tuple-independent translation
// this is just evaluating Theorem 1's ratio under a conditioned probability
// vector (the "conditioning probabilistic databases" idea the paper cites
// as related work [17], specialised to tuple evidence). The program builds
// a small advisor network with the V2 denial constraint and a V1-style
// positive correlation, then shows how observing one advisor edge
// redistributes belief over the others.
//
//	go run ./examples/evidence
package main

import (
	"fmt"
	"log"

	"mvdb"
)

func main() {
	db := mvdb.NewDatabase()
	db.MustCreateRelation("Adv", false, "student", "advisor")
	// Student 1 has two candidates; student 2 shares candidate 10.
	v110 := db.MustInsert("Adv", 1.5, mvdb.Int(1), mvdb.Int(10))
	db.MustInsert("Adv", 1.0, mvdb.Int(1), mvdb.Int(11))
	db.MustInsert("Adv", 1.2, mvdb.Int(2), mvdb.Int(10))

	m := mvdb.New(db)
	denial, err := mvdb.ParseView("V2(s,a,b) :- Adv(s,a), Adv(s,b), a <> b", mvdb.ConstWeight(0))
	if err != nil {
		log.Fatal(err)
	}
	if err := m.AddView(denial); err != nil {
		log.Fatal(err)
	}
	// Positive correlation: students of the same advisor reinforce each
	// other (a V1-flavoured view).
	boost, err := mvdb.ParseView("V1(a) :- Adv(s,a), Adv(t,a), s <> t", mvdb.ConstWeight(3))
	if err != nil {
		log.Fatal(err)
	}
	if err := m.AddView(boost); err != nil {
		log.Fatal(err)
	}
	tr, err := m.Translate(mvdb.TranslateOptions{})
	if err != nil {
		log.Fatal(err)
	}
	ev := mvdb.NewEvaluator(tr)

	queries := map[string]string{
		"Adv(1,11)": "Q() :- Adv(1,11)",
		"Adv(2,10)": "Q() :- Adv(2,10)",
	}
	fmt.Printf("%-12s %-14s %-22s %-22s\n", "fact", "P(fact)", "P(fact | Adv(1,10))", "P(fact | ¬Adv(1,10))")
	for label, src := range queries {
		q, err := mvdb.ParseQuery(src)
		if err != nil {
			log.Fatal(err)
		}
		base, err := ev.ProbBoolean(q.UCQ, mvdb.MethodDPLL)
		if err != nil {
			log.Fatal(err)
		}
		yes, err := ev.ProbGivenTuples(q.UCQ, mvdb.Evidence{v110: true}, mvdb.MethodDPLL)
		if err != nil {
			log.Fatal(err)
		}
		no, err := ev.ProbGivenTuples(q.UCQ, mvdb.Evidence{v110: false}, mvdb.MethodDPLL)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s %-14.4f %-22.4f %-22.4f\n", label, base, yes, no)
	}
	fmt.Println("\nobserving Adv(1,10) kills the rival edge Adv(1,11) (denial view V2)")
	fmt.Println("and raises Adv(2,10) (positive correlation through V1).")
}
