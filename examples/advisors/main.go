// Advisors: the running example of Figure 2 on the synthetic DBLP dataset.
//
// The MarkoViews V1 (the more papers a student and an advisor co-author
// during the student years, the more likely the advisor relationship) and
// V2 (a person has at most one advisor — a denial constraint) correlate the
// Advisor tuples. The program compiles the MV-index offline, then runs the
// query "find all students advised by someone named %Madden%" and, for one
// student with two advisor candidates, shows how the denial view pushes the
// two candidates' probabilities apart compared to the independent baseline.
//
//	go run ./examples/advisors
package main

import (
	"fmt"
	"log"
	"time"

	"mvdb"
)

func main() {
	data, err := mvdb.GenerateDBLP(mvdb.DBLPConfig{NumAuthors: 2000, Seed: 7, MaddenEvery: 12})
	if err != nil {
		log.Fatal(err)
	}
	m, err := data.MVDB(data.V1, data.V2)
	if err != nil {
		log.Fatal(err)
	}
	tr, err := m.Translate(mvdb.TranslateOptions{})
	if err != nil {
		log.Fatal(err)
	}
	t0 := time.Now()
	ix, err := mvdb.BuildIndex(tr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MV-index: %d nodes, %d blocks, compiled in %v\n\n",
		ix.Size(), ix.Blocks(), time.Since(t0).Round(time.Millisecond))

	// The Figure 2 query.
	q, err := mvdb.ParseQuery(
		"Q(aid) :- Student(aid,year), Advisor(aid,a), Author(a,n), n like '%Madden%'")
	if err != nil {
		log.Fatal(err)
	}
	t0 = time.Now()
	rows, err := ix.Query(q, mvdb.IntersectOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("students advised by %%Madden%% (%d answers in %v):\n",
		len(rows), time.Since(t0).Round(time.Microsecond))
	for i, r := range rows {
		if i == 10 {
			fmt.Printf("  ... and %d more\n", len(rows)-10)
			break
		}
		fmt.Printf("  student %-8v P = %.4f\n", r.Head[0].Int, r.Prob)
	}

	// Find the smallest student with two advisor candidates and show the V2
	// effect.
	adv := data.DB.Relation("Advisor")
	counts := map[int64]int{}
	for _, t := range adv.Tuples {
		counts[t.Vals[0].Int]++
	}
	var multi int64
	for s, c := range counts {
		if c >= 2 && (multi == 0 || s < multi) {
			multi = s
		}
	}
	if multi == 0 {
		fmt.Println("\n(no student with two advisor candidates in this sample)")
		return
	}
	q2, err := mvdb.ParseQuery(fmt.Sprintf("Q(a) :- Advisor(%d,a)", multi))
	if err != nil {
		log.Fatal(err)
	}
	withViews, err := ix.Query(q2, mvdb.IntersectOptions{})
	if err != nil {
		log.Fatal(err)
	}
	// Independent baseline: the same database without any MarkoViews.
	base := mvdb.New(data.DB)
	trBase, err := base.Translate(mvdb.TranslateOptions{})
	if err != nil {
		log.Fatal(err)
	}
	ixBase, err := mvdb.BuildIndex(trBase)
	if err != nil {
		log.Fatal(err)
	}
	noViews, err := ixBase.Query(q2, mvdb.IntersectOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstudent %d has %d advisor candidates (V2: at most one advisor):\n", multi, counts[multi])
	fmt.Printf("  %-10s %-12s %-12s\n", "advisor", "independent", "with views")
	for i := range withViews {
		fmt.Printf("  %-10v %-12.4f %-12.4f\n",
			noViews[i].Head[0].Int, noViews[i].Prob, withViews[i].Prob)
	}
	fmt.Println("\nthe denial view makes the candidates mutually exclusive, so their")
	fmt.Println("joint mass is redistributed; V1 favours the candidate with more co-papers.")
}
