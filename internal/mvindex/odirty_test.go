package mvindex

import (
	"fmt"
	"runtime"
	"testing"

	"mvdb/internal/core"
	"mvdb/internal/dblp"
	"mvdb/internal/engine"
)

// dblpIndex builds the full DBLP index (V1, V2, V3) at the given author
// domain.
func dblpIndex(tb testing.TB, domain int) (*Index, []int64) {
	tb.Helper()
	d, err := dblp.Generate(dblp.Config{NumAuthors: domain, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	m, err := d.MVDB()
	if err != nil {
		tb.Fatal(err)
	}
	tr, err := m.Translate(core.TranslateOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	ix, err := Build(tr)
	if err != nil {
		tb.Fatal(err)
	}
	return ix, d.Students
}

// dblpLiveIndex is dblpIndex after one warm-up structural batch (Build
// records the block chain, so it and every later batch take the delta path).
func dblpLiveIndex(tb testing.TB, domain int) (*Index, []int64) {
	tb.Helper()
	ix, students := dblpIndex(tb, domain)
	if _, err := ix.ApplyMutations([]core.Mutation{{
		Op: core.MutInsert, Rel: "Advisor",
		Vals:   []engine.Value{engine.Int(students[0]), engine.Int(999_999)},
		Weight: 1.2,
	}}); err != nil {
		tb.Fatal(err)
	}
	return ix, students
}

// dblpBatch is batch i of the stream internal/bench's update experiment and
// benchmark/ both use: insert a fresh advisor for student i+1, reweight the
// tuple batch i-1 inserted, delete the one batch i-2 inserted — three
// mutations dirtying two separator blocks.
func dblpBatch(students []int64, i int) []core.Mutation {
	student := func(j int) engine.Value { return engine.Int(students[j%len(students)]) }
	adv := func(j int) engine.Value { return engine.Int(int64(1_000_000 + j)) }
	b := []core.Mutation{{
		Op: core.MutInsert, Rel: "Advisor",
		Vals: []engine.Value{student(i + 1), adv(i)}, Weight: 1.5,
	}}
	if i >= 1 {
		b = append(b, core.Mutation{
			Op: core.MutReweight, Rel: "Advisor",
			Vals: []engine.Value{student(i), adv(i - 1)}, Weight: 0.8,
		})
	}
	if i >= 2 {
		b = append(b, core.Mutation{
			Op: core.MutDelete, Rel: "Advisor",
			Vals: []engine.Value{student(i - 1), adv(i - 2)},
		})
	}
	return b
}

// BenchmarkApplyMutations times the steady-state 3-mutation structural batch
// (the write_only workload's shape) on the DBLP index at three domains: the
// time and bytes per batch must not grow with the index.
func BenchmarkApplyMutations(b *testing.B) {
	for _, domain := range []int{1000, 2000, 4000} {
		b.Run(fmt.Sprintf("domain=%d", domain), func(b *testing.B) {
			ix, students := dblpLiveIndex(b, domain)
			for i := 0; i < 2; i++ { // reach the 3-mutation steady state
				if _, err := ix.ApplyMutations(dblpBatch(students, i)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := ix.ApplyMutations(dblpBatch(students, i+2))
				if err != nil {
					b.Fatal(err)
				}
				if st.Full {
					b.Fatalf("batch %d fell back to a full recompile", i)
				}
			}
		})
	}
}

// parentBatchBytes is what the steady-state batch allocated per domain
// before the segment directory, when every batch copied every clean block
// into a fresh manager (BenchmarkApplyMutations B/op).
var parentBatchBytes = map[int]float64{1000: 0.91e6, 2000: 1.72e6, 4000: 3.30e6}

// TestUpdateWorkIsODirty is the gate on update cost, in counts rather than
// clocks: the same 3-mutation batch must cost the index the same work at
// every domain. Per domain doubling, the blocks compiled and augmented stay
// identical, the nodes augmented stay within a constant, and the number of
// allocations grows by less than 1.3x. No node of a clean block is copied:
// every segment of the new directory that is not one of the old directory's
// was augmented by the batch. And the bytes a batch allocates — the
// directory and one copy of the order are all that still grow with the
// index — stay under a third of what the fresh-manager-per-batch design
// allocated.
func TestUpdateWorkIsODirty(t *testing.T) {
	if testing.Short() {
		t.Skip("builds DBLP indexes up to domain 4000")
	}
	// One P, so the memory statistics see this goroutine's allocations.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	type cost struct {
		st            MaintStats
		allocs, bytes float64
	}
	var costs []cost
	domains := []int{1000, 2000, 4000}
	for _, domain := range domains {
		ix, students := dblpLiveIndex(t, domain)
		i := 0
		apply := func() MaintStats {
			st, err := ix.ApplyMutations(dblpBatch(students, i))
			if err != nil {
				t.Fatal(err)
			}
			i++
			return st
		}
		apply() // batches 0 and 1 are shorter than the steady-state three
		apply()
		var c cost
		c.allocs = testing.AllocsPerRun(10, func() { c.st = apply() })
		if c.st.Full || c.st.WeightOnly {
			t.Fatalf("domain %d: steady-state batch took the wrong path: %+v", domain, c.st)
		}
		if c.st.Reused+c.st.Recompiled < c.st.Blocks {
			t.Fatalf("domain %d: stats do not add up: %+v", domain, c.st)
		}
		old := map[*segment]bool{}
		for _, s := range ix.ch.segs {
			old[s] = true
		}
		var ms0, ms1 runtime.MemStats
		const runs = 20
		runtime.ReadMemStats(&ms0)
		for r := 0; r < runs; r++ {
			c.st = apply()
		}
		runtime.ReadMemStats(&ms1)
		c.bytes = float64(ms1.TotalAlloc-ms0.TotalAlloc) / runs
		// One more batch, against the directory just recorded.
		for _, s := range ix.ch.segs {
			old[s] = true
		}
		st := apply()
		fresh, freshNodes := 0, 0
		for _, s := range ix.ch.segs {
			if !old[s] {
				fresh++
				freshNodes += len(s.vars)
			}
		}
		if fresh != st.AugmentedBlocks || freshNodes != st.AugmentedNodes {
			t.Fatalf("domain %d: %d new segments of %d nodes, but the batch augmented %d blocks of %d nodes: clean blocks were rebuilt",
				domain, fresh, freshNodes, st.AugmentedBlocks, st.AugmentedNodes)
		}
		if c.bytes > parentBatchBytes[domain]/3 {
			t.Errorf("domain %d: %.0f bytes per batch, above a third of the %.0f the per-batch manager copy allocated",
				domain, c.bytes, parentBatchBytes[domain])
		}
		if domain == domains[0] {
			checkAugmentation(t, ix, "DBLP steady state")
		}
		t.Logf("domain %d: %d blocks / %d nodes; batch recompiled %d, augmented %d blocks / %d nodes, %.0f allocs, %.0f bytes",
			domain, ix.Blocks(), ix.Size(), c.st.Recompiled, c.st.AugmentedBlocks, c.st.AugmentedNodes, c.allocs, c.bytes)
		costs = append(costs, c)
	}
	for k := 1; k < len(costs); k++ {
		a, b := costs[k-1], costs[k]
		if a.st.Recompiled != b.st.Recompiled || a.st.AugmentedBlocks != b.st.AugmentedBlocks {
			t.Errorf("domain %d -> %d: recompiled %d -> %d, augmented blocks %d -> %d; want identical",
				domains[k-1], domains[k], a.st.Recompiled, b.st.Recompiled, a.st.AugmentedBlocks, b.st.AugmentedBlocks)
		}
		if d := b.st.AugmentedNodes - a.st.AugmentedNodes; d > 32 || d < -32 {
			t.Errorf("domain %d -> %d: augmented nodes %d -> %d; want within 32",
				domains[k-1], domains[k], a.st.AugmentedNodes, b.st.AugmentedNodes)
		}
		if b.allocs > 1.3*a.allocs {
			t.Errorf("domain %d -> %d: allocations per batch %.0f -> %.0f, more than 1.3x",
				domains[k-1], domains[k], a.allocs, b.allocs)
		}
	}
}
