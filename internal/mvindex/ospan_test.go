package mvindex

import (
	"testing"

	"mvdb/internal/dblp"
	"mvdb/internal/ucq"
)

// TestQueryWorkIsOSpan is the gate on read cost, in counts rather than
// clocks (Prop. 3: an answer costs its span, not the index): the same 64
// evenly spread advisor-of-student queries must cost about the same at every
// domain. From the smallest to the largest domain the index grows about 4x,
// while the pairs one answer's intersection visits, the chain blocks its span
// covers and the allocations of one uncached Index.Query may grow by at most
// 2x.
func TestQueryWorkIsOSpan(t *testing.T) {
	if testing.Short() {
		t.Skip("builds DBLP indexes up to domain 4000")
	}
	const queries = 64
	type cost struct {
		nodes                 int
		pairs, blocks, allocs float64 // pairs and blocks per answer, allocs per query
	}
	var costs []cost
	domains := []int{1000, 2000, 4000}
	for _, domain := range domains {
		ix, students := dblpIndex(t, domain)
		qs := make([]*ucq.Query, queries)
		for i := range qs {
			qs[i] = dblp.QueryAdvisorOfStudent(students[i*len(students)/queries])
		}
		c := cost{nodes: ix.Size()}
		answers := 0
		for _, q := range qs {
			rows, err := ucq.Eval(ix.Translation().DB, q)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rows {
				ex, err := ix.ExplainLineage(r.Lineage, IntersectOptions{})
				if err != nil {
					t.Fatal(err)
				}
				answers++
				c.pairs += float64(ex.PairsVisited)
				c.blocks += float64(ex.LastBlock - ex.EntryBlock + 1)
			}
		}
		if answers == 0 {
			t.Fatalf("domain %d: the %d queries have no answers", domain, queries)
		}
		c.pairs /= float64(answers)
		c.blocks /= float64(answers)
		c.allocs = testing.AllocsPerRun(5, func() {
			for _, q := range qs {
				if _, err := ix.Query(q, IntersectOptions{CacheConscious: true}); err != nil {
					t.Fatal(err)
				}
			}
		}) / queries
		t.Logf("domain %d: %d blocks / %d nodes; %.2f answers per query, %.1f pairs and %.2f blocks in span per answer, %.0f allocs per query",
			domain, ix.Blocks(), c.nodes, float64(answers)/queries, c.pairs, c.blocks, c.allocs)
		costs = append(costs, c)
	}
	small, large := costs[0], costs[len(costs)-1]
	if large.nodes < 2*small.nodes {
		t.Fatalf("index grew only %d -> %d nodes: the sweep no longer tells O(span) from O(index)", small.nodes, large.nodes)
	}
	for _, m := range []struct {
		name       string
		small, big float64
	}{
		{"pairs visited per answer", small.pairs, large.pairs},
		{"blocks in span per answer", small.blocks, large.blocks},
		{"allocations per query", small.allocs, large.allocs},
	} {
		if m.big > 2*m.small {
			t.Errorf("domain %d -> %d: %s %.2f -> %.2f, more than 2x while the index grew %.1fx",
				domains[0], domains[len(domains)-1], m.name, m.small, m.big, float64(large.nodes)/float64(small.nodes))
		}
	}
}
