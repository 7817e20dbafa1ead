package mvindex

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"mvdb/internal/budget"
	"mvdb/internal/core"
	"mvdb/internal/engine"
	"mvdb/internal/qcache"
	"mvdb/internal/ucq"
)

// TestCachedMatchesUncached: for random queries, answers served through the
// cache (cold fill and warm hit) must match the uncached evaluation to 1e-12.
func TestCachedMatchesUncached(t *testing.T) {
	m := chainMVDB(30, 21)
	_, ix := buildIndex(t, m)
	ix.EnableCache(qcache.Options{})
	rng := rand.New(rand.NewSource(9))
	qAdv := ucq.MustParse("Q(a) :- Adv(s,a)")
	for trial := 0; trial < 40; trial++ {
		var q *ucq.Query
		switch trial % 3 {
		case 0:
			q = qAdv
		case 1:
			s := rng.Int63n(30) + 1
			q = &ucq.Query{Name: "Q", Head: []string{"a"}, UCQ: ucq.UCQ{Disjuncts: []ucq.CQ{{
				Atoms: []ucq.Atom{{Rel: "Adv", Args: []ucq.Term{ucq.CInt(s), ucq.V("a")}}},
			}}}}
		default:
			s1, s2 := rng.Int63n(30)+1, rng.Int63n(30)+1
			q = &ucq.Query{Name: "Q", Head: []string{"a"}, UCQ: ucq.UCQ{Disjuncts: []ucq.CQ{
				{Atoms: []ucq.Atom{{Rel: "Adv", Args: []ucq.Term{ucq.CInt(s1), ucq.V("a")}}}},
				{Atoms: []ucq.Atom{{Rel: "Adv", Args: []ucq.Term{ucq.CInt(s2), ucq.V("a")}}}},
			}}}
		}
		want, err := ix.Query(q, IntersectOptions{DisableCache: true})
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ { // pass 0 fills (or hits), pass 1 must hit
			got, err := ix.Query(q, IntersectOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d pass %d: %d answers, want %d", trial, pass, len(got), len(want))
			}
			for i := range got {
				if math.Abs(got[i].Prob-want[i].Prob) > 1e-12 {
					t.Fatalf("trial %d pass %d answer %d: cached %v uncached %v",
						trial, pass, i, got[i].Prob, want[i].Prob)
				}
				for j, v := range got[i].Head {
					if !v.Equal(want[i].Head[j]) {
						t.Fatalf("trial %d: head mismatch %v vs %v", trial, got[i].Head, want[i].Head)
					}
				}
			}
		}
	}
	st := ix.CacheStats()
	if st.Answers.Hits == 0 {
		t.Fatalf("no answer-cache hits after repeated queries: %+v", st.Answers)
	}
	if st.Answers.Misses == 0 {
		t.Fatalf("no misses recorded: %+v", st.Answers)
	}
}

// TestRenamedQueryMissesCache: the answer cache keys on the query text, so
// an alpha-renamed spelling of a cached query is a miss of its own, with the
// same answers.
func TestRenamedQueryMissesCache(t *testing.T) {
	m := chainMVDB(10, 3)
	_, ix := buildIndex(t, m)
	ix.EnableCache(qcache.Options{})
	opts := IntersectOptions{}
	r1, err := ix.QueryText("Q(a) :- Adv(s,a)", opts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ix.QueryText("Answers(who) :- Adv(student,who)", opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := ix.CacheStats().Answers; st.Hits != 0 || st.Misses != 2 || st.Entries != 2 {
		t.Fatalf("renamed spelling should miss into an entry of its own: %+v", st)
	}
	if !equalAnswers(r1, r2) {
		t.Fatalf("renamed query answers differ:\n%v\n%v", r1, r2)
	}
}

// TestQueryTextKeepsWhitespace: whitespace is significant inside a quoted
// constant, so two texts that differ only there are two queries with two
// entries (and here, different answers).
func TestQueryTextKeepsWhitespace(t *testing.T) {
	db := engine.NewDatabase()
	db.MustCreateRelation("Author", false, "aid", "name")
	db.MustInsert("Author", 2, engine.Int(1), engine.Str("x a  b"))
	db.MustInsert("Author", 3, engine.Int(2), engine.Str("x a b"))
	_, ix := buildIndex(t, core.New(db))
	ix.EnableCache(qcache.Options{})
	opts := IntersectOptions{}
	two, err := ix.QueryText("Q(a) :- Author(a,n), n like '%a  b%'", opts)
	if err != nil {
		t.Fatal(err)
	}
	one, err := ix.QueryText("Q(a) :- Author(a,n), n like '%a b%'", opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := ix.CacheStats().Answers; st.Hits != 0 || st.Entries != 2 {
		t.Fatalf("the two constants shared an entry: %+v", st)
	}
	if len(two) != 1 || two[0].Head[0].Int != 1 || len(one) != 1 || one[0].Head[0].Int != 2 {
		t.Fatalf("answers: two spaces %v, one space %v", two, one)
	}
}

// TestQueryAndQueryTextShareEntry: Query(q) keys on q.String(), so the text
// of the same query hits the entry Query filled, and the other way round.
func TestQueryAndQueryTextShareEntry(t *testing.T) {
	m := chainMVDB(10, 3)
	_, ix := buildIndex(t, m)
	ix.EnableCache(qcache.Options{})
	opts := IntersectOptions{}
	q := ucq.MustParse("Q(a)   :-   Adv(s,a), s > 2")
	r1, err := ix.Query(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ix.QueryText(q.String(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := ix.CacheStats().Answers; st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("Query and QueryText of the same query did not share an entry: %+v", st)
	}
	if !equalAnswers(r1, r2) {
		t.Fatalf("answers differ:\n%v\n%v", r1, r2)
	}
}

// TestBadQueryNeverCached: a text that does not parse or does not fit the
// schema fails with a *QueryError on every repeat, and leaves no entry.
func TestBadQueryNeverCached(t *testing.T) {
	m := chainMVDB(10, 3)
	tr, ix := buildIndex(t, m)
	ix.EnableCache(qcache.Options{})
	bad := []string{
		"Q(a) :- Adv(s,a",
		"Q(a) :- Nope(s,a)",
		"Q(a) :- Adv(a)",
		"Q(a) :- " + tr.NVRelations[0] + "(a)",
		"",
	}
	for _, text := range bad {
		for rep := 0; rep < 3; rep++ {
			_, err := ix.QueryText(text, IntersectOptions{})
			var qerr *QueryError
			if !errors.As(err, &qerr) {
				t.Fatalf("%q (repeat %d): err = %v, want a *QueryError", text, rep, err)
			}
		}
	}
	if st := ix.CacheStats().Answers; st.Hits != 0 || st.Entries != 0 || st.Misses != uint64(3*len(bad)) {
		t.Fatalf("a rejected query was cached: %+v", st)
	}
}

// TestQueryTextHitAfterWriteReevaluates: a write bumps the cache epoch, so
// the next request for a cached text evaluates again, against the new
// weights.
func TestQueryTextHitAfterWriteReevaluates(t *testing.T) {
	m := chainMVDB(8, 4)
	tr, ix := buildIndex(t, m)
	ix.EnableCache(qcache.Options{})
	const text = "Q(a) :- Adv(1,a)"
	opts := IntersectOptions{}
	before, err := ix.QueryText(text, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.QueryText(text, opts); err != nil {
		t.Fatal(err)
	}
	for i := range tr.DB.Relation("Adv").Tuples {
		tr.DB.Relation("Adv").Tuples[i].Weight *= 3
	}
	ix.Reweight()
	after, err := ix.QueryText(text, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := ix.CacheStats().Answers; st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("the request after the write did not re-evaluate: %+v", st)
	}
	fresh, err := Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.QueryText(text, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !equalAnswers(after, want) || equalAnswers(after, before) {
		t.Fatalf("after the write: %v; fresh index %v; before %v", after, want, before)
	}
}

// equalAnswers reports whether two answer lists are bitwise equal.
func equalAnswers(a, b []core.Answer) bool {
	return slices.EqualFunc(a, b, func(x, y core.Answer) bool {
		return x.Prob == y.Prob && slices.EqualFunc(x.Head, y.Head, engine.Value.Equal)
	})
}

// TestReweightInvalidatesCache: after Reweight, queries must never return
// pre-mutation probabilities.
func TestReweightInvalidatesCache(t *testing.T) {
	m := chainMVDB(8, 4)
	tr, ix := buildIndex(t, m)
	ix.EnableCache(qcache.Options{})
	q := ucq.MustParse("Q(a) :- Adv(1,a)")
	before, err := ix.Query(q, IntersectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Warm the cache, then mutate.
	if _, err := ix.Query(q, IntersectOptions{}); err != nil {
		t.Fatal(err)
	}
	adv := tr.DB.Relation("Adv")
	for i := range adv.Tuples {
		adv.Tuples[i].Weight *= 3
	}
	ix.Reweight()
	after, err := ix.Query(q, IntersectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Query(q, IntersectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range after {
		if math.Abs(after[i].Prob-want[i].Prob) > 1e-9 {
			t.Fatalf("post-reweight answer %d = %v, fresh index says %v", i, after[i].Prob, want[i].Prob)
		}
		if after[i].Prob == before[i].Prob {
			t.Fatalf("answer %d still shows the pre-mutation probability %v", i, before[i].Prob)
		}
	}
}

// TestSingleflightHammer fires many concurrent identical queries, some with
// contexts canceled mid-flight — no error other than cancellation may
// surface, canceled callers must not fail others, and every successful result
// must be correct. Run with -race in CI.
func TestSingleflightHammer(t *testing.T) {
	m := chainMVDB(20, 8)
	_, ix := buildIndex(t, m)
	ix.EnableCache(qcache.Options{})
	q := ucq.MustParse("Q(a) :- Adv(s,a)")
	want, err := ix.Query(q, IntersectOptions{DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 24
	const rounds = 30
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				ctx, cancel := context.WithCancel(context.Background())
				if g%3 == 0 && r%2 == 0 {
					cancel() // canceled before (or while) waiting
				}
				rows, err := ix.Query(q, IntersectOptions{Ctx: ctx})
				cancel()
				if err != nil {
					if errors.Is(err, budget.ErrCanceled) || errors.Is(err, context.Canceled) {
						continue // our own cancellation — fine
					}
					t.Errorf("goroutine %d round %d: %v", g, r, err)
					return
				}
				if len(rows) != len(want) {
					t.Errorf("goroutine %d: %d answers, want %d", g, len(rows), len(want))
					return
				}
				for i := range rows {
					if math.Abs(rows[i].Prob-want[i].Prob) > 1e-12 {
						t.Errorf("goroutine %d: answer %d = %v, want %v", g, i, rows[i].Prob, want[i].Prob)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCacheStatsApplyCounters: the scratch-manager apply counters accumulate
// on uncached evaluation, hits included: the lineage of a query over advisor
// pairs repeats sub-applies (a one-atom query's lineage of disjoint terms
// never does, and records misses alone).
func TestCacheStatsApplyCounters(t *testing.T) {
	m := chainMVDB(15, 6)
	_, ix := buildIndex(t, m)
	ix.EnableCache(qcache.Options{})
	q := ucq.MustParse("Q() :- Adv(s,a), Adv(s,b), a <> b")
	if _, err := ix.ProbBoolean(q.UCQ, IntersectOptions{}); err != nil {
		t.Fatal(err)
	}
	st := ix.CacheStats()
	if !st.Enabled {
		t.Fatal("stats say cache disabled")
	}
	if st.QueryApplyHits == 0 || st.QueryApplyMisses == 0 {
		t.Fatalf("apply-cache hits %d, misses %d: want both recorded", st.QueryApplyHits, st.QueryApplyMisses)
	}
}

// TestDisableCacheOption: DisableCache opts out per call without touching the
// installed cache.
func TestDisableCacheOption(t *testing.T) {
	m := chainMVDB(6, 2)
	_, ix := buildIndex(t, m)
	ix.EnableCache(qcache.Options{})
	q := ucq.MustParse("Q(a) :- Adv(1,a)")
	if _, err := ix.Query(q, IntersectOptions{DisableCache: true}); err != nil {
		t.Fatal(err)
	}
	st := ix.CacheStats()
	if st.Answers.Hits+st.Answers.Misses != 0 {
		t.Fatalf("DisableCache still touched the answer cache: %+v", st.Answers)
	}
	if _, err := ix.Query(q, IntersectOptions{}); err != nil {
		t.Fatal(err)
	}
	if ix.CacheStats().Answers.Misses == 0 {
		t.Fatal("cached call did not register")
	}
	ix.EnableCache(qcache.Options{Disable: true})
	if ix.cache != nil {
		t.Fatal("Disable did not remove the cache")
	}
}
