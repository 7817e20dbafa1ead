package mvindex

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mvdb/internal/core"
	"mvdb/internal/engine"
	"mvdb/internal/obdd"
	"mvdb/internal/ucq"
)

// multiAdvMVDB builds an MVDB whose blocks have internal slack for sifting:
// each of n students has 3-4 advisor candidates, and two views (a weighted
// one and a count-weighted one) interleave NV tuples with Adv tuples inside
// every separator block.
func multiAdvMVDB(n int64, seed int64) *core.MVDB {
	rng := rand.New(rand.NewSource(seed))
	db := engine.NewDatabase()
	db.MustCreateRelation("Adv", false, "s", "a")
	for s := int64(1); s <= n; s++ {
		for k := int64(0); k < 3+rng.Int63n(2); k++ {
			db.MustInsert("Adv", 0.3+rng.Float64(), engine.Int(s), engine.Int(100*(k+1)+s))
		}
	}
	m := core.New(db)
	for _, def := range []struct {
		src string
		w   core.WeightFn
	}{
		{"V(s) :- Adv(s,a)", core.ConstWeight(2.5)},
		{"U(s,a) :- Adv(s,a)", core.ConstWeight(0.4)},
	} {
		v, err := core.ParseView(def.src, def.w)
		if err != nil {
			panic(err)
		}
		if err := m.AddView(v); err != nil {
			panic(err)
		}
	}
	return m
}

// pairViewMVDB builds Adv(s,a) under a view over advisor pairs: every third
// student has a single advisor, so W does not mention them — their tuples sit
// in the variable order between two blocks without belonging to either. It
// returns those students too.
func pairViewMVDB(n int64) (*core.MVDB, []int64) {
	db := engine.NewDatabase()
	db.MustCreateRelation("Adv", false, "s", "a")
	var lone []int64
	for s := int64(1); s <= n; s++ {
		k := int64(3)
		if s%3 == 0 {
			k = 1
			lone = append(lone, s)
		}
		for j := int64(1); j <= k; j++ {
			db.MustInsert("Adv", 0.3+float64(s%7)/10, engine.Int(s), engine.Int(100*j+s))
		}
	}
	m := core.New(db)
	v, err := core.ParseView("V(s) :- Adv(s,a), Adv(s,b), a <> b", core.ConstWeight(0.5))
	if err != nil {
		panic(err)
	}
	if err := m.AddView(v); err != nil {
		panic(err)
	}
	return m, lone
}

func siftQueries(n int64) []ucq.Query {
	qs := []string{
		"Q() :- Adv(1,a)",
		"Q() :- Adv(s,a)",
		"Q(s) :- Adv(s,a)",
	}
	out := make([]ucq.Query, 0, len(qs))
	for _, src := range qs {
		out = append(out, *ucq.MustParse(src))
	}
	return out
}

// answersOf evaluates every test query and flattens the answers.
func answersOf(t *testing.T, ix *Index) []float64 {
	t.Helper()
	var out []float64
	for _, q := range siftQueries(0) {
		q := q
		if len(q.Head) == 0 {
			p, err := ix.ProbBoolean(q.UCQ, IntersectOptions{})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, p)
			continue
		}
		ans, err := ix.Query(&q, IntersectOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range ans {
			out = append(out, a.Prob)
		}
	}
	return out
}

// TestIndexSiftPreservesAnswers: sifting the index must leave every query
// answer unchanged to 1e-12 and must not grow the OBDD.
func TestIndexSiftPreservesAnswers(t *testing.T) {
	m := multiAdvMVDB(30, 3)
	_, ix := buildIndex(t, m)
	want := answersOf(t, ix)
	blocks := ix.Blocks()
	before := ix.Size()

	st, err := ix.Sift(obdd.ReorderOptions{Mode: obdd.ReorderConverge})
	if err != nil {
		t.Fatal(err)
	}
	if !ix.Reordered() {
		t.Fatal("index not marked reordered after Sift")
	}
	if st.NodesAfter > st.NodesBefore {
		t.Fatalf("sift grew the index: %d -> %d", st.NodesBefore, st.NodesAfter)
	}
	if ix.Size() > before {
		t.Fatalf("index size grew: %d -> %d", before, ix.Size())
	}
	if ix.Blocks() != blocks {
		t.Fatalf("sift changed the chain block count: %d -> %d", blocks, ix.Blocks())
	}
	got := answersOf(t, ix)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("answer %d diverged after sift: %v vs %v", i, got[i], want[i])
		}
	}
	ri := ix.ReorderInfo()
	if ri == nil || ri.Provenance != "sifted" || ri.NodesBefore != st.NodesBefore {
		t.Fatalf("bad reorder info: %+v", ri)
	}
}

// TestSiftSnapshotRoundTrip: a sifted index snapshot restores with the
// learned order, provenance "snapshot", and identical answers — without
// re-running the search.
func TestSiftSnapshotRoundTrip(t *testing.T) {
	m := multiAdvMVDB(25, 7)
	_, ix := buildIndex(t, m)
	if _, err := ix.Sift(obdd.ReorderOptions{Mode: obdd.ReorderConverge}); err != nil {
		t.Fatal(err)
	}
	want := answersOf(t, ix)
	order := ix.Manager().Order()
	size := ix.Size()

	var buf bytes.Buffer
	if err := ix.SaveSeq(&buf, 42); err != nil {
		t.Fatal(err)
	}
	ix2, seq, err := ReadSeq(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 42 {
		t.Fatalf("seq = %d", seq)
	}
	if !ix2.Reordered() {
		t.Fatal("restored index lost its reordered mark")
	}
	if ri := ix2.ReorderInfo(); ri.Provenance != "snapshot" {
		t.Fatalf("restored provenance = %q, want snapshot", ri.Provenance)
	}
	if ix2.Size() != size {
		t.Fatalf("restored size %d, want %d (learned order lost?)", ix2.Size(), size)
	}
	restored := ix2.Manager().Order()
	for i := range order {
		if restored[i] != order[i] {
			t.Fatalf("restored order diverges at level %d: %d vs %d", i, restored[i], order[i])
		}
	}
	got := answersOf(t, ix2)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("answer %d diverged after restore: %v vs %v", i, got[i], want[i])
		}
	}
}

// TestSiftDeltaNoRegression is the acceptance-criterion regression test:
// structural delta recompiles on a sifted index must inherit the learned
// order rather than regress to the static Π node counts.
func TestSiftDeltaNoRegression(t *testing.T) {
	m := multiAdvMVDB(40, 13)
	_, ix := buildIndex(t, m)
	staticSize := ix.Size()
	if _, err := ix.Sift(obdd.ReorderOptions{Mode: obdd.ReorderConverge}); err != nil {
		t.Fatal(err)
	}
	siftedSize := ix.Size()
	if siftedSize >= staticSize {
		t.Skipf("sift found nothing to improve (%d >= %d); regression test is vacuous", siftedSize, staticSize)
	}

	// A parallel unsifted index receives the same batches: its size is the
	// static-Π baseline the sifted index must beat.
	m2 := multiAdvMVDB(40, 13)
	_, base := buildIndex(t, m2)

	rng := rand.New(rand.NewSource(99))
	for round := 0; round < 4; round++ {
		batch := randBatch(rng, ix.Translation().DB, 40)
		if len(batch) == 0 {
			continue
		}
		if _, err := ix.ApplyMutations(batch); err != nil {
			t.Fatal(err)
		}
		if _, err := base.ApplyMutations(batch); err != nil {
			t.Fatal(err)
		}
		// Equivalence after every batch.
		want, got := answersOf(t, base), answersOf(t, ix)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("round %d answer %d diverged: %v vs %v", round, i, got[i], want[i])
			}
		}
	}
	if !ix.Reordered() {
		t.Fatal("mutations dropped the reordered mark")
	}
	ri := ix.ReorderInfo()
	if ri.DeltaReuses == 0 {
		t.Fatal("no structural batch inherited the learned order")
	}
	// The learned order must keep paying: stay strictly below the static-Π
	// baseline (with a little slack for blocks recompiled under merged
	// orders, which may be slightly off the sifted optimum).
	limit := base.Size()
	if ix.Size() >= limit {
		t.Fatalf("delta recompile regressed to static order: sifted-index %d nodes, static baseline %d (pre-mutation: sifted %d static %d)",
			ix.Size(), limit, siftedSize, staticSize)
	}
	t.Logf("sizes: static %d -> %d, sifted %d -> %d", staticSize, limit, siftedSize, ix.Size())
}

// TestSiftOffNoop: Sift with ReorderOff must not mark the index.
func TestSiftOffNoop(t *testing.T) {
	m := chainMVDB(6, 2)
	_, ix := buildIndex(t, m)
	st, err := ix.Sift(obdd.ReorderOptions{Mode: obdd.ReorderOff})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Reordered() || st.Rounds != 0 {
		t.Fatalf("ReorderOff sifted anyway: %+v", st)
	}
}

// TestBlockWindows: one window per chain block, disjoint and in chain order,
// each holding exactly the levels its block has nodes between — and never a
// variable of another separator value, even where tuples W does not constrain
// sit between two blocks.
func TestBlockWindows(t *testing.T) {
	m, _ := pairViewMVDB(15)
	_, ix := buildIndex(t, m)
	ws := ix.BlockWindows()
	if len(ws) == 0 || len(ws) != ix.Blocks() {
		t.Fatalf("%d windows for %d blocks", len(ws), ix.Blocks())
	}
	db, mgr := ix.Translation().DB, ix.Manager()
	covered := 0
	for k, w := range ws {
		if k > 0 && w[0] < ws[k-1][1] {
			t.Fatalf("windows overlap or are out of order: %v", ws)
		}
		_, first, err := db.VarTuple(mgr.VarAtLevel(w[0]))
		if err != nil {
			t.Fatal(err)
		}
		for l := w[0]; l < w[1]; l++ {
			_, tup, err := db.VarTuple(mgr.VarAtLevel(l))
			if err != nil {
				t.Fatal(err)
			}
			if !tup.Vals[0].Equal(first.Vals[0]) {
				t.Fatalf("window %v spans separator values %v and %v", w, first.Vals[0], tup.Vals[0])
			}
			if b := blockOf(ix, mgr.VarAtLevel(l)); b != k && b != -1 {
				t.Fatalf("level %d of window %d %v belongs to block %d", l, k, w, b)
			}
		}
		covered += w[1] - w[0]
	}
	if covered >= mgr.NumVars() {
		t.Fatalf("windows cover all %d levels: the unconstrained students' tuples should lie outside", mgr.NumVars())
	}
}

// TestSiftedInsertAtUnconstrainedValue: under a learned order, a second
// advisor for a student W did not mention so far opens a block between two
// carried ones — the patched order must place the student's variables
// together, outside both neighbours, so the batch stays incremental.
func TestSiftedInsertAtUnconstrainedValue(t *testing.T) {
	m, lone := pairViewMVDB(12)
	_, ix := buildIndex(t, m)
	ins := func(s, a int64) []core.Mutation {
		return []core.Mutation{{Op: core.MutInsert, Rel: "Adv", Vals: advVals(s, a), Weight: 0.7}}
	}
	// The first structural batch records the blocks; then learn an order.
	if _, err := ix.ApplyMutations(ins(1, 999)); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Sift(obdd.ReorderOptions{Mode: obdd.ReorderConverge}); err != nil {
		t.Fatal(err)
	}
	for i, s := range lone {
		// Below and above the student's one advisor in Π.
		a := int64(50)
		if i%2 == 1 {
			a = 950
		}
		blocks := ix.Blocks()
		ms, err := ix.ApplyMutations(ins(s, a))
		if err != nil {
			t.Fatal(err)
		}
		when := fmt.Sprintf("insert Adv(%d,%d) (%+v)", s, a, ms)
		if ms.Full || ms.Reused == 0 || ix.Blocks() <= blocks {
			t.Fatalf("%s: want an incremental batch that opens a block (had %d, have %d)", when, blocks, ix.Blocks())
		}
		checkAugmentation(t, ix, when)
		checkAnswers(t, ix, when)
	}
}

// TestSiftWithRootsRecord: sifting an index that carries a block record
// (from a previous structural batch) must keep the record usable — the next
// delta batch must still hit the incremental path.
func TestSiftWithRootsRecord(t *testing.T) {
	m := multiAdvMVDB(20, 31)
	_, ix := buildIndex(t, m)
	ins := func(s, a int64) []core.Mutation {
		return []core.Mutation{{Op: core.MutInsert, Rel: "Adv", Vals: []engine.Value{engine.Int(s), engine.Int(a)}, Weight: 0.7}}
	}
	// First structural batch records blocks.
	if _, err := ix.ApplyMutations(ins(5, 999)); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Sift(obdd.ReorderOptions{Mode: obdd.ReorderConverge}); err != nil {
		t.Fatal(err)
	}
	want := answersOf(t, ix)
	st, err := ix.ApplyMutations(ins(7, 888))
	if err != nil {
		t.Fatal(err)
	}
	if st.Full {
		t.Fatalf("post-sift batch fell back to a full recompile: %+v", st)
	}
	if st.Reused == 0 {
		t.Fatalf("post-sift batch reused no blocks: %+v", st)
	}
	got := answersOf(t, ix)
	for i := range want {
		if i < len(got) && math.Abs(got[i]-want[i]) > 1e-9 && want[i] != got[i] {
			// Answers can legitimately change for student 7; only the shape of
			// the check matters here — cross-check against exact instead.
			break
		}
	}
	// Full correctness check against a fresh static build of the same state.
	fresh, err := Build(mustRetranslate(t, ix))
	if err != nil {
		t.Fatal(err)
	}
	w2, g2 := answersOf(t, fresh), answersOf(t, ix)
	for i := range w2 {
		if math.Abs(g2[i]-w2[i]) > 1e-9 {
			t.Fatalf("answer %d diverged from fresh build: %v vs %v", i, g2[i], w2[i])
		}
	}
}

func mustRetranslate(t *testing.T, ix *Index) *core.Translation {
	t.Helper()
	tr, err := ix.Translation().Source.Translate(ix.Translation().Opts())
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestReorderSurvivesFallback: a batch that forces the clone-and-retranslate
// route installs a new Translation, and the index must keep running under
// its learned order: the order belongs to the index, not to the translation.
func TestReorderSurvivesFallback(t *testing.T) {
	m := multiAdvMVDB(8, 5)
	addClosureDenial(t, m)
	tr, err := m.Translate(core.TranslateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Sift(obdd.ReorderOptions{Mode: obdd.ReorderConverge}); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.ApplyMutations([]core.Mutation{{
		Op: core.MutInsert, Rel: "Adv", Vals: []engine.Value{engine.Int(3), engine.Int(999)}, Weight: 0.7,
	}}); err != nil {
		t.Fatal(err)
	}
	if ix.Translation() == tr {
		t.Fatal("the batch did not take the re-translation route")
	}
	ri := ix.ReorderInfo()
	if ri == nil || ri.Mode != obdd.ReorderConverge.String() {
		t.Fatalf("reorder provenance after a fallback batch = %+v, want mode %s", ri, obdd.ReorderConverge)
	}
	fresh, err := Build(mustRetranslate(t, ix))
	if err != nil {
		t.Fatal(err)
	}
	want, got := answersOf(t, fresh), answersOf(t, ix)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("answer %d diverged from a fresh build: %v vs %v", i, got[i], want[i])
		}
	}
}
