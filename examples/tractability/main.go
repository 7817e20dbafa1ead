// Tractability: safe vs unsafe queries on the translated INDB.
//
// Theorem 1 moves MVDB evaluation into tuple-independent databases, where
// the tractable UCQs are fully characterized (Dalvi-Suciu dichotomy): if
// both W and Q ∨ W are safe, P(Q) is computable in PTIME by lifted
// inference. The program classifies a handful of query shapes with IsSafe,
// evaluates the safe ones with both lifted inference and OBDD compilation
// (they must agree), and shows the unsafe H0 query falling back to OBDDs.
//
//	go run ./examples/tractability
package main

import (
	"errors"
	"fmt"
	"log"
	"math"

	"mvdb"
)

func main() {
	// A small random-ish INDB with R, S, T.
	db := mvdb.NewDatabase()
	db.MustCreateRelation("R", false, "a")
	db.MustCreateRelation("S", false, "a", "b")
	db.MustCreateRelation("T", false, "b")
	for i := int64(1); i <= 12; i++ {
		db.MustInsert("R", 0.3+float64(i%5)*0.4, mvdb.Int(i))
		db.MustInsert("T", 0.2+float64(i%3)*0.5, mvdb.Int(100+i))
		for j := int64(0); j < 2; j++ {
			db.MustInsert("S", 0.5+float64((i+j)%4)*0.3, mvdb.Int(i), mvdb.Int(100+(i+j)%12+1))
		}
	}
	m := mvdb.New(db)
	// A mild correlation so W is non-trivial.
	v, err := mvdb.ParseView("V(x) :- R(x), S(x,y)", mvdb.ConstWeight(1.8))
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

	queries := []string{
		"Q() :- R(x)",
		"Q() :- R(x), S(x,y)",
		"Q() :- R(x)\nQ() :- T(y)",
		"Q() :- S(x,y), T(y)",
		"Q() :- R(x), S(x,y), T(y)", // H0: #P-hard
	}
	fmt.Printf("%-36s %-8s %-12s %-12s\n", "query", "Q safe?", "lifted", "obdd")
	for _, src := range queries {
		q, err := mvdb.ParseQuery(src)
		if err != nil {
			log.Fatal(err)
		}
		safe := mvdb.IsSafe(q.UCQ)
		pOBDD, err := tr.ProbBoolean(q.UCQ, mvdb.MethodOBDD)
		if err != nil {
			log.Fatal(err)
		}
		lifted := "—"
		pLift, err := tr.ProbBoolean(q.UCQ, mvdb.MethodLifted)
		switch {
		case err == nil:
			lifted = fmt.Sprintf("%.8f", pLift)
			if math.Abs(pLift-pOBDD) > 1e-9 {
				log.Fatalf("lifted %v and OBDD %v disagree on %q", pLift, pOBDD, src)
			}
		case errors.Is(err, mvdb.ErrUnsafe):
			lifted = "unsafe"
		default:
			log.Fatal(err)
		}
		fmt.Printf("%-36s %-8v %-12s %-12.8f\n",
			oneLine(src), safe, lifted, pOBDD)
	}
	fmt.Println("\nH0 = R(x),S(x,y),T(y) has no safe plan (#P-hard in general); the")
	fmt.Println("OBDD method still answers it exactly — at lineage-compilation cost.")
	fmt.Println("note: lifted evaluation needs Q ∨ W safe, not just Q — a safe Q can")
	fmt.Println("still report \"unsafe\" when its union with the views has no plan.")
}

func oneLine(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		if r == '\n' {
			out = append(out, ' ', '∨', ' ')
			continue
		}
		out = append(out, r)
	}
	return string(out)
}
