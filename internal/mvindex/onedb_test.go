package mvindex

import (
	"bytes"
	"encoding/gob"
	"math"
	"runtime"
	"testing"

	"mvdb/internal/baseline"
	"mvdb/internal/core"
	"mvdb/internal/engine"
	"mvdb/internal/ucq"
)

// cloneHeapBytes is the live heap a built DBLP index held per domain when
// the translation deep-copied every base relation (dataset, source MVDB,
// translation and index reachable; measured by liveHeapAfterBuild).
var cloneHeapBytes = map[int]float64{1000: 12.0e6, 2000: 23.9e6, 4000: 47.7e6}

// stringKeyHeapBytes is the live heap a built DBLP index held per domain
// when each relation found its tuples through a map keyed by an encoded
// string and kept a slice of positions per column value (same measurement).
var stringKeyHeapBytes = map[int]float64{1000: 6.4e6, 2000: 12.8e6, 4000: 25.7e6}

// liveHeapAfterBuild returns the bytes a DBLP index built at the given
// domain keeps live — dataset, MVDB, translation and index together, as
// mvdbd holds them after boot.
func liveHeapAfterBuild(t *testing.T, domain int) (*Index, float64) {
	t.Helper()
	live := func() float64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC() // the second cycle empties the sync.Pool victim caches
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	}
	before := live()
	ix, _ := dblpIndex(t, domain)
	return ix, live() - before
}

// TestTranslationSharesBaseRelations is the gate on "one database", on
// counts rather than clocks: the translation holds the source's base
// relations themselves (pointer-equal) plus its NV relations; a built index
// keeps at most 0.8x the live heap it did when the translation cloned the
// base relations, and at most 0.85x the live heap it did when the engine
// keyed tuples by string rather than by position; a snapshot holds every tuple once and round-trips to the
// same answers; and after a batch that inserts a base tuple and creates an
// NV tuple, Definition 4's exact semantics on the source — which sees no NV
// variable — still equals the index.
func TestTranslationSharesBaseRelations(t *testing.T) {
	if testing.Short() {
		t.Skip("builds DBLP indexes up to domain 4000")
	}
	for _, domain := range []int{1000, 2000, 4000} {
		ix, heap := liveHeapAfterBuild(t, domain)
		tr, src := ix.Translation(), ix.Source()
		base := src.DB.Relations()
		for _, name := range base {
			if tr.DB.Relation(name) != src.DB.Relation(name) {
				t.Fatalf("domain %d: base relation %s is not shared with the source", domain, name)
			}
		}
		if got, want := len(tr.DB.Relations()), len(base)+len(tr.NVRelations); got != want {
			t.Fatalf("domain %d: translated database has %d relations, want the %d base plus %d NV", domain, got, len(base), len(tr.NVRelations))
		}
		t.Logf("domain %d: live heap after Build %.1f MB (cloning design %.1f MB, %.2fx; string keys %.1f MB, %.2fx)",
			domain, heap/1e6, cloneHeapBytes[domain]/1e6, heap/cloneHeapBytes[domain],
			stringKeyHeapBytes[domain]/1e6, heap/stringKeyHeapBytes[domain])
		if heap > 0.8*cloneHeapBytes[domain] {
			t.Errorf("domain %d: live heap %.1f MB, want at most 0.8 x the cloning design's %.1f MB", domain, heap/1e6, cloneHeapBytes[domain]/1e6)
		}
		if heap > 0.85*stringKeyHeapBytes[domain] {
			t.Errorf("domain %d: live heap %.1f MB, want at most 0.85 x the string-keyed engine's %.1f MB", domain, heap/1e6, stringKeyHeapBytes[domain]/1e6)
		}
	}

	// The snapshot writes each tuple once and round-trips.
	m := chainMVDB(6, 3)
	tableWeights(t, m)
	_, ix := buildIndex(t, m)
	var buf bytes.Buffer
	if err := ix.SaveSeq(&buf, 0); err != nil {
		t.Fatal(err)
	}
	var snap indexSnapshot
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	saved, live := 0, 0
	for _, r := range snap.DB.Relations {
		saved += len(r.Tuples)
	}
	for _, name := range ix.tr.DB.Relations() {
		live += ix.tr.DB.Relation(name).Len()
	}
	if !snap.HasSource || saved != live {
		t.Fatalf("snapshot holds %d tuples (source %v), the database %d", saved, snap.HasSource, live)
	}
	back, err := readIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range back.Source().DB.Relations() {
		if back.tr.DB.Relation(name) != back.Source().DB.Relation(name) {
			t.Fatalf("restored base relation %s is not shared with the source", name)
		}
	}
	sameAnswers(t, "restored", back, ix, "Q(s) :- Adv(s,a)")

	// The NV relations are no base table: a mutation naming one is refused.
	for _, op := range []core.MutationOp{core.MutInsert, core.MutReweight, core.MutDelete} {
		mu := core.Mutation{Op: op, Rel: "NV_V", Vals: []engine.Value{engine.Int(1)}, Weight: 2}
		if _, err := ix.ApplyMutations([]core.Mutation{mu}); err == nil {
			t.Fatalf("%v accepted", mu)
		}
	}

	// Definition 4 sees only base variables, also after the id space grew
	// an NV variable between two base ones.
	if _, err := ix.ApplyMutations([]core.Mutation{
		{Op: core.MutInsert, Rel: "Adv", Vals: []engine.Value{engine.Int(7), engine.Int(107)}, Weight: 1.5},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.ApplyMutations([]core.Mutation{
		{Op: core.MutInsert, Rel: "Adv", Vals: []engine.Value{engine.Int(7), engine.Int(207)}, Weight: 0.5},
	}); err != nil {
		t.Fatal(err)
	}
	nvRel, adv := ix.tr.DB.Relation("NV_V"), ix.Source().DB.Relation("Adv")
	nv := nvRel.Tuples[nvRel.Lookup([]engine.Value{engine.Int(7)})].Var
	a, b := adv.Tuples[adv.Lookup(advVals(7, 107))].Var, adv.Tuples[adv.Lookup(advVals(7, 207))].Var
	if a >= nv || nv >= b || ix.Source().DB.Alive(nv) || !ix.tr.DB.Alive(nv) {
		t.Fatalf("variables %d (base), %d (NV), %d (base): want the NV one between, and outside the source", a, nv, b)
	}
	for _, src := range []string{"Q() :- Adv(7,a)", "Q() :- Adv(1,a)", "Q() :- Adv(s,a)"} {
		q := ucq.MustParse(src)
		want, err := baseline.ProbExact(ix.Source(), q.UCQ)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ix.ProbBoolean(q.UCQ, IntersectOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%q: index %v, Definition 4 on the source %v", src, got, want)
		}
	}
}

// sameAnswers compares two indexes' answers to a query to 1e-12.
func sameAnswers(t *testing.T, what string, got, want *Index, src string) {
	t.Helper()
	q := ucq.MustParse(src)
	a, err := got.Query(q, IntersectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := want.Query(q, IntersectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("%s: %d answers, want %d", what, len(a), len(b))
	}
	for i := range a {
		if engine.TupleKey(a[i].Head) != engine.TupleKey(b[i].Head) || math.Abs(a[i].Prob-b[i].Prob) > 1e-12 {
			t.Fatalf("%s: answer %d %v %v, want %v %v", what, i, a[i].Head, a[i].Prob, b[i].Head, b[i].Prob)
		}
	}
}
