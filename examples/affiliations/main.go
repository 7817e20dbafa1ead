// Affiliations: positive correlations through MarkoView V3.
//
// Affiliationp holds inferred affiliations (authors who recently co-publish
// with people from an institute probably belong to it). V3 states that two
// people who publish a lot together very likely share an affiliation —
// a positive correlation (weight count/5 > 1), which translates into NV
// tuples with negative probabilities. The program compares each author's
// affiliation probability with and without V3 and verifies all final
// answers stay in [0, 1].
//
//	go run ./examples/affiliations
package main

import (
	"fmt"
	"log"

	"mvdb"
)

func main() {
	data, err := mvdb.GenerateDBLP(mvdb.DBLPConfig{NumAuthors: 1200, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}

	with, err := buildIndex(data, true)
	if err != nil {
		log.Fatal(err)
	}
	without, err := buildIndex(data, false)
	if err != nil {
		log.Fatal(err)
	}

	// Authors that appear in some V3 tuple are the interesting ones.
	m, err := data.MVDB(data.V3)
	if err != nil {
		log.Fatal(err)
	}
	tuples, err := m.Materialize()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("V3 has %d tuples (pairs with heavy recent co-publication)\n\n", len(tuples))
	fmt.Printf("%-10s %-14s %-16s %-16s\n", "author", "institute", "P(independent)", "P(with V3)")

	seen := map[int64]bool{}
	shown := 0
	for _, vt := range tuples {
		for _, col := range []int{0, 1} {
			aid := vt.Head[col].Int
			if seen[aid] || shown >= 8 {
				continue
			}
			seen[aid] = true
			shown++
			q, err := mvdb.ParseQuery(fmt.Sprintf("Q(inst) :- Affiliation(%d,inst)", aid))
			if err != nil {
				log.Fatal(err)
			}
			a, err := with.Query(q, mvdb.IntersectOptions{})
			if err != nil {
				log.Fatal(err)
			}
			b, err := without.Query(q, mvdb.IntersectOptions{})
			if err != nil {
				log.Fatal(err)
			}
			for i := range a {
				if a[i].Prob < 0 || a[i].Prob > 1 {
					log.Fatalf("probability %v outside [0,1]", a[i].Prob)
				}
				fmt.Printf("%-10d %-14s %-16.4f %-16.4f\n",
					aid, a[i].Head[0].Str, b[i].Prob, a[i].Prob)
			}
		}
	}
	fmt.Println("\nV3's positive correlation raises the probability of shared")
	fmt.Println("affiliations — computed exactly through NV tuples whose translated")
	fmt.Println("probabilities are negative (weight (1-w)/w < 0 for w > 1).")
}

func buildIndex(data *mvdb.DBLPDataset, withV3 bool) (*mvdb.Index, error) {
	views := []*mvdb.MarkoView{data.V1, data.V2}
	if withV3 {
		views = append(views, data.V3)
	}
	m, err := data.MVDB(views...)
	if err != nil {
		return nil, err
	}
	tr, err := m.Translate(mvdb.TranslateOptions{})
	if err != nil {
		return nil, err
	}
	return mvdb.BuildIndex(tr)
}
