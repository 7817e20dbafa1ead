package mvindex

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"mvdb/internal/core"
	"mvdb/internal/engine"
	"mvdb/internal/qcache"
	"mvdb/internal/ucq"
)

// randBatch generates a valid mutation batch against the current source
// database: a random interleaving of inserts, deletes and reweights over
// Adv(s,a), tracking intra-batch effects so ValidateBatch accepts it.
func randBatch(rng *rand.Rand, db *engine.Database, n int64) []core.Mutation {
	exists := map[string]bool{}
	key := func(vals []engine.Value) string { return engine.TupleKey(vals) }
	has := func(vals []engine.Value) bool {
		if v, ok := exists[key(vals)]; ok {
			return v
		}
		return db.HasTuple("Adv", vals)
	}
	var batch []core.Mutation
	for i := 0; i < 1+rng.Intn(6); i++ {
		vals := []engine.Value{
			engine.Int(1 + rng.Int63n(n)),
			engine.Int(100 + rng.Int63n(2*n)),
		}
		switch op := rng.Intn(3); {
		case op == 0 && has(vals): // delete
			batch = append(batch, core.Mutation{Op: core.MutDelete, Rel: "Adv", Vals: vals})
			exists[key(vals)] = false
		case op == 1 && has(vals): // reweight
			batch = append(batch, core.Mutation{Op: core.MutReweight, Rel: "Adv", Vals: vals, Weight: 0.1 + 2*rng.Float64()})
		case !has(vals): // insert
			batch = append(batch, core.Mutation{Op: core.MutInsert, Rel: "Adv", Vals: vals, Weight: 0.1 + 2*rng.Float64()})
			exists[key(vals)] = true
		default:
			batch = append(batch, core.Mutation{Op: core.MutReweight, Rel: "Adv", Vals: vals, Weight: 0.1 + 2*rng.Float64()})
		}
	}
	return batch
}

// maintQueries exercises single blocks, spans and unions.
var maintQueries = []string{
	"Q() :- Adv(1,a)",
	"Q() :- Adv(3,a)",
	"Q() :- Adv(s,a)",
	"Q() :- Adv(1,a)\nQ() :- Adv(4,b)",
}

// TestApplyMutationsProperty: after any random interleaving of
// insert/delete/reweight batches, the incrementally maintained index answers
// exactly like an index built from scratch over the mutated source.
func TestApplyMutationsProperty(t *testing.T) {
	rounds := 6
	if testing.Short() {
		rounds = 2
	}
	sawReuse, sawWeightOnly := false, false
	for seed := int64(0); seed < int64(rounds); seed++ {
		rng := rand.New(rand.NewSource(400 + seed))
		n := int64(4 + rng.Intn(5))
		m := chainMVDB(n, seed)
		_, ix := buildIndex(t, m)
		for batchNo := 0; batchNo < 6; batchNo++ {
			batch := randBatch(rng, ix.Source().DB, n)
			st, err := ix.ApplyMutations(batch)
			if err != nil {
				t.Fatalf("seed %d batch %d (%v): %v", seed, batchNo, batch, err)
			}
			sawReuse = sawReuse || st.Reused > 0
			sawWeightOnly = sawWeightOnly || st.WeightOnly

			// From-scratch reference over the mutated source.
			_, ref := buildIndex(t, ix.Source())
			for _, src := range maintQueries {
				q := ucq.MustParse(src)
				got, err := ix.ProbBoolean(q.UCQ, IntersectOptions{})
				if err != nil {
					t.Fatalf("seed %d batch %d %q: %v", seed, batchNo, src, err)
				}
				want, err := ref.ProbBoolean(q.UCQ, IntersectOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(got-want) > 1e-12 {
					t.Fatalf("seed %d batch %d %q: incremental %v vs scratch %v (stats %+v)",
						seed, batchNo, src, got, want, st)
				}
			}
			gl, gs := ix.LogProbNotW()
			wl, ws := ref.LogProbNotW()
			if gs != ws || math.Abs(gl-wl) > 1e-9 {
				t.Fatalf("seed %d batch %d: P0(¬W) (%v,%d) vs scratch (%v,%d)", seed, batchNo, gl, gs, wl, ws)
			}
		}
	}
	if !sawReuse {
		t.Fatal("no batch ever reused a block; the incremental path went untested")
	}
	if !sawWeightOnly {
		t.Log("note: no reweight-only batch occurred in this run")
	}
}

// TestApplyMutationsWeightOnly: a pure reweight batch takes the fast path and
// still matches a from-scratch build.
func TestApplyMutationsWeightOnly(t *testing.T) {
	m := chainMVDB(5, 7)
	_, ix := buildIndex(t, m)
	tup := ix.Source().DB.Relation("Adv").Tuples[0]
	st, err := ix.ApplyMutations([]core.Mutation{
		{Op: core.MutReweight, Rel: "Adv", Vals: tup.Vals, Weight: 3.25},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !st.WeightOnly {
		t.Fatalf("expected the weight-only fast path, got %+v", st)
	}
	_, ref := buildIndex(t, ix.Source())
	q := ucq.MustParse("Q() :- Adv(s,a)")
	got, _ := ix.ProbBoolean(q.UCQ, IntersectOptions{})
	want, _ := ref.ProbBoolean(q.UCQ, IntersectOptions{})
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("after reweight: %v vs scratch %v", got, want)
	}
}

// TestApplyMutationsRejects: an invalid batch is rejected atomically — the
// error surfaces and the index still answers exactly as before.
func TestApplyMutationsRejects(t *testing.T) {
	m := chainMVDB(4, 11)
	_, ix := buildIndex(t, m)
	q := ucq.MustParse("Q() :- Adv(s,a)")
	before, _ := ix.ProbBoolean(q.UCQ, IntersectOptions{})
	bad := [][]core.Mutation{
		nil, // empty batch
		{{Op: core.MutInsert, Rel: "Nope", Vals: []engine.Value{engine.Int(1)}, Weight: 1}},
		{{Op: core.MutDelete, Rel: "Adv", Vals: []engine.Value{engine.Int(999), engine.Int(999)}}},
		{{Op: core.MutInsert, Rel: "Adv", Vals: []engine.Value{engine.Int(1), engine.Int(1)}, Weight: -2}},
		{{Op: core.MutInsert, Rel: "Adv", Vals: []engine.Value{engine.Int(50), engine.Int(51)}, Weight: 1},
			{Op: core.MutInsert, Rel: "Adv", Vals: []engine.Value{engine.Int(50), engine.Int(51)}, Weight: 1}}, // dup within batch
	}
	for i, batch := range bad {
		if _, err := ix.ApplyMutations(batch); err == nil {
			t.Fatalf("bad batch %d accepted", i)
		}
	}
	after, _ := ix.ProbBoolean(q.UCQ, IntersectOptions{})
	if math.Float64bits(before) != math.Float64bits(after) {
		t.Fatalf("rejected batches changed the index: %v vs %v", before, after)
	}
}

// TestApplyMutationsEpoch: with the cross-query cache enabled, readers
// running concurrently with writers (under an RWMutex, as the server holds
// it) never observe an answer computed against a previous database state —
// the epoch bump on every batch makes stale entries unreachable. Run under
// -race this also exercises the locking discipline of the maintenance path.
func TestApplyMutationsEpoch(t *testing.T) {
	m := chainMVDB(5, 17)
	_, ix := buildIndex(t, m)
	ix.EnableCache(qcache.Options{})
	q := ucq.MustParse("Q(s) :- Adv(s,a)")

	var mu sync.RWMutex
	expect := map[string]float64{}
	snap := func() { // caller holds mu (write)
		expect = map[string]float64{}
		rows, err := ix.Query(q, IntersectOptions{DisableCache: true})
		if err != nil {
			t.Error(err)
			return
		}
		for _, a := range rows {
			expect[engine.TupleKey(a.Head)] = a.Prob
		}
	}
	mu.Lock()
	snap()
	mu.Unlock()

	const readers = 4
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				mu.RLock()
				rows, err := ix.Query(q, IntersectOptions{})
				if err == nil {
					for _, a := range rows {
						want, ok := expect[engine.TupleKey(a.Head)]
						if !ok || math.Abs(a.Prob-want) > 1e-9 {
							t.Errorf("reader %d: stale or wrong answer %v for %v (want %v, known %v)",
								r, a.Prob, a.Head, want, ok)
						}
					}
				} else {
					t.Errorf("reader %d: %v", r, err)
				}
				mu.RUnlock()
			}
		}(r)
	}

	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 15; i++ {
		batch := randBatch(rng, ix.Source().DB, 5)
		mu.Lock()
		if _, err := ix.ApplyMutations(batch); err != nil {
			t.Fatalf("batch %d (%v): %v", i, batch, err)
		}
		snap()
		mu.Unlock()
	}
	close(done)
	wg.Wait()
}
