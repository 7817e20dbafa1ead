package mvindex

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"testing"
	"time"

	"mvdb/internal/baseline"
	"mvdb/internal/core"
	"mvdb/internal/engine"
	"mvdb/internal/obdd"
	"mvdb/internal/ucq"
)

// chainMVDB builds an MVDB whose W has a separator, so the index is a chain
// of per-value blocks: n students, each with 1-2 advisor candidates,
// weighted view V(s) :- Adv(s,a).
func chainMVDB(n int64, seed int64) *core.MVDB {
	rng := rand.New(rand.NewSource(seed))
	db := engine.NewDatabase()
	db.MustCreateRelation("Adv", false, "s", "a")
	for s := int64(1); s <= n; s++ {
		db.MustInsert("Adv", 0.5+rng.Float64(), engine.Int(s), engine.Int(100+s))
		if rng.Intn(2) == 0 {
			db.MustInsert("Adv", 0.5+rng.Float64(), engine.Int(s), engine.Int(200+s))
		}
	}
	m := core.New(db)
	v, err := core.ParseView("V(s) :- Adv(s,a)", core.ConstWeight(2.5))
	if err != nil {
		panic(err)
	}
	if err := m.AddView(v); err != nil {
		panic(err)
	}
	return m
}

// pointerBoolean evaluates a Boolean query with the Fig. 9 pointer
// MVIntersect: the oracle CC-MVIntersect is compared against.
func pointerBoolean(t *testing.T, ix *Index, q ucq.UCQ, opts IntersectOptions) float64 {
	t.Helper()
	lin, err := ucq.EvalBoolean(ix.tr.DB, q)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ix.MVIntersect()(lin, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// pointerQuery is pointerBoolean for a named query: one pointer
// intersection per answer, in Query's answer order.
func pointerQuery(t *testing.T, ix *Index, q *ucq.Query) []core.Answer {
	t.Helper()
	rows, err := ucq.Eval(ix.tr.DB, q)
	if err != nil {
		t.Fatal(err)
	}
	ptr := ix.MVIntersect()
	as, err := core.AnswerRows(nil, time.Time{}, rows, func(r ucq.AnswerRow) (float64, error) {
		return ptr(r.Lineage, IntersectOptions{})
	})
	if err != nil {
		t.Fatal(err)
	}
	return as
}

// checkPointer fails unless CC-MVIntersect's answers got match the pointer
// MVIntersect's for the same query to 1e-12.
func checkPointer(t *testing.T, ix *Index, q *ucq.Query, got []core.Answer) {
	t.Helper()
	want := pointerQuery(t, ix, q)
	if len(got) != len(want) {
		t.Fatalf("%v: %d answers, pointer MVIntersect has %d", q, len(got), len(want))
	}
	for i := range want {
		if engine.TupleKey(got[i].Head) != engine.TupleKey(want[i].Head) || math.Abs(got[i].Prob-want[i].Prob) > 1e-12 {
			t.Fatalf("%v answer %d: CC-MVIntersect %v %v, pointer MVIntersect %v %v", q, i, got[i].Head, got[i].Prob, want[i].Head, want[i].Prob)
		}
	}
}

func buildIndex(t testing.TB, m *core.MVDB) (*core.Translation, *Index) {
	t.Helper()
	tr, err := m.Translate(core.TranslateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	return tr, ix
}

func TestIndexAgreesWithExact(t *testing.T) {
	m := chainMVDB(4, 5)
	_, ix := buildIndex(t, m)
	queries := []string{
		"Q() :- Adv(1,a)",
		"Q() :- Adv(2,a)",
		"Q() :- Adv(s,a)",
		"Q() :- Adv(1,a)\nQ() :- Adv(3,b)",
	}
	for _, src := range queries {
		q := ucq.MustParse(src)
		want, err := baseline.ProbExact(m, q.UCQ)
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []IntersectOptions{{}, {NoEntryShortcut: true}} {
			got, err := ix.ProbBoolean(q.UCQ, opts)
			if err != nil {
				t.Fatalf("%q %+v: %v", src, opts, err)
			}
			if math.Abs(got-want) > 1e-9 {
				t.Errorf("%q %+v: P = %v want %v", src, opts, got, want)
			}
			if ptr := pointerBoolean(t, ix, q.UCQ, opts); math.Abs(got-ptr) > 1e-12 {
				t.Errorf("%q %+v: CC-MVIntersect %v, pointer MVIntersect %v", src, opts, got, ptr)
			}
		}
	}
}

func TestIndexAgainstCoreOBDD(t *testing.T) {
	// Larger instance: cross-check against the baseline OBDD method
	// (no MLN enumeration).
	m := chainMVDB(60, 11)
	tr, ix := buildIndex(t, m)
	for _, s := range []int64{1, 17, 33, 60} {
		q := ucq.MustParse("Q(s) :- Adv(s,a)")
		b, _ := q.Bind([]engine.Value{engine.Int(s)})
		want, err := baseline.New(tr).ProbBoolean(b, baseline.OBDD)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ix.ProbBoolean(b, IntersectOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("s=%d: index = %v obdd = %v", s, got, want)
		}
		if ptr := pointerBoolean(t, ix, b, IntersectOptions{}); math.Abs(got-ptr) > 1e-12 {
			t.Errorf("s=%d: CC-MVIntersect %v, pointer MVIntersect %v", s, got, ptr)
		}
	}
}

func TestChainStructure(t *testing.T) {
	m := chainMVDB(30, 3)
	_, ix := buildIndex(t, m)
	if ix.Blocks() < 10 {
		t.Errorf("expected a long chain, got %d blocks (size %d)", ix.Blocks(), ix.Size())
	}
	// Block windows must be disjoint and strictly increasing in level.
	for k := 1; k < ix.Blocks(); k++ {
		first, _ := ix.ch.window(k)
		if _, last := ix.ch.window(k - 1); last >= first {
			t.Fatalf("block %d starts at level %d, inside block %d", k, first, k-1)
		}
	}
	// Every indexed variable maps to a block whose window holds its level.
	indexed := 0
	for _, v := range ix.Manager().Order() {
		b := blockOf(ix, v)
		if b < 0 {
			continue
		}
		indexed++
		if first, last := ix.ch.window(b); int32(ix.Manager().Level(v)) < first || int32(ix.Manager().Level(v)) > last {
			t.Errorf("var %d (level %d) mapped to block %d, levels %d..%d", v, ix.Manager().Level(v), b, first, last)
		}
	}
	if indexed == 0 {
		t.Fatal("no variable is indexed")
	}
}

func TestInterIntraIndexes(t *testing.T) {
	m := chainMVDB(10, 7)
	tr, ix := buildIndex(t, m)
	// Every NV variable occurs in the index and has nodes.
	nv := tr.DB.Relation(tr.NVRelations[0])
	for _, tup := range nv.Tuples {
		if _, run := ix.ch.levelRun(tup.Var); len(run) == 0 {
			t.Errorf("NV var %d has no IntraBddIndex nodes", tup.Var)
		}
		if blockOf(ix, tup.Var) < 0 {
			t.Errorf("NV var %d has no InterBddIndex block", tup.Var)
		}
	}
	if blockOf(ix, 999999) != -1 {
		t.Error("unknown var should map to block -1")
	}
}

func TestQueryAnswers(t *testing.T) {
	m := chainMVDB(5, 13)
	tr, ix := buildIndex(t, m)
	q := ucq.MustParse("Q(s) :- Adv(s,a)")
	got, err := ix.Query(q, IntersectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := baseline.New(tr).Query(q, baseline.OBDD)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("rows: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i].Prob-want[i].Prob) > 1e-9 {
			t.Errorf("row %v: %v vs %v", got[i].Head, got[i].Prob, want[i].Prob)
		}
		if got[i].Prob < -1e-9 || got[i].Prob > 1+1e-9 {
			t.Errorf("row %v: probability %v outside [0,1]", got[i].Head, got[i].Prob)
		}
	}
}

func TestIndexWithDenialViews(t *testing.T) {
	db := engine.NewDatabase()
	db.MustCreateRelation("Adv", false, "s", "a")
	db.MustInsert("Adv", 2, engine.Int(1), engine.Int(10))
	db.MustInsert("Adv", 2, engine.Int(1), engine.Int(11))
	db.MustInsert("Adv", 2, engine.Int(2), engine.Int(12))
	m := core.New(db)
	v, _ := core.ParseView("V(s,a,b) :- Adv(s,a), Adv(s,b), a <> b", core.ConstWeight(0))
	if err := m.AddView(v); err != nil {
		t.Fatal(err)
	}
	_, ix := buildIndex(t, m)
	q := ucq.MustParse("Q() :- Adv(1,a)")
	want, err := baseline.ProbExact(m, q.UCQ)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ix.ProbBoolean(q.UCQ, IntersectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("P = %v want %v", got, want)
	}
}

func TestIndexNoViews(t *testing.T) {
	db := engine.NewDatabase()
	db.MustCreateRelation("R", false, "a")
	db.MustInsert("R", 1, engine.Int(1))
	m := core.New(db)
	_, ix := buildIndex(t, m)
	if ix.ProbNotW() != 1 {
		t.Errorf("P(¬W) = %v want 1", ix.ProbNotW())
	}
	q := ucq.MustParse("Q() :- R(1)")
	got, err := ix.ProbBoolean(q.UCQ, IntersectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.5) > 1e-12 {
		t.Errorf("P = %v want 0.5", got)
	}
}

func TestIndexRandomizedAgainstExact(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 20; trial++ {
		db := engine.NewDatabase()
		db.MustCreateRelation("R", false, "a")
		db.MustCreateRelation("S", false, "a", "b")
		n := 2 + rng.Int63n(2)
		for i := int64(1); i <= n; i++ {
			if rng.Intn(3) > 0 {
				db.MustInsert("R", rng.Float64()*2, engine.Int(i))
			}
			if rng.Intn(3) > 0 {
				db.MustInsert("S", rng.Float64()*2, engine.Int(i), engine.Int(10+i))
			}
		}
		if db.NumVars() < 2 {
			continue
		}
		m := core.New(db)
		w := rng.Float64() * 3
		v, _ := core.ParseView("V(x) :- R(x), S(x,y)", core.ConstWeight(w))
		if err := m.AddView(v); err != nil {
			t.Fatal(err)
		}
		tr, err := m.Translate(core.TranslateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ix, err := Build(tr)
		if err != nil {
			t.Fatal(err)
		}
		queries := []string{"Q() :- R(x)", "Q() :- S(x,y)", "Q() :- R(1), S(1,y)"}
		for _, src := range queries {
			q := ucq.MustParse(src)
			want, err := baseline.ProbExact(m, q.UCQ)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ix.ProbBoolean(q.UCQ, IntersectOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("trial %d %q: %v want %v", trial, src, got, want)
			}
			if ptr := pointerBoolean(t, ix, q.UCQ, IntersectOptions{}); math.Abs(got-ptr) > 1e-12 {
				t.Fatalf("trial %d %q: CC-MVIntersect %v, pointer MVIntersect %v", trial, src, got, ptr)
			}
		}
	}
}

func TestPairMemo(t *testing.T) {
	m := newPairMemo(4)
	keys := make([]int64, 0, 2000)
	for i := 1; i <= 2000; i++ {
		k := int64(i)<<32 | int64(i*7+1)
		keys = append(keys, k)
		m.put(k, float64(i)*0.5)
	}
	for i, k := range keys {
		v, ok := m.get(k)
		if !ok || v != float64(i+1)*0.5 {
			t.Fatalf("get(%d) = %v,%v", k, v, ok)
		}
	}
	if _, ok := m.get(int64(5) << 40); ok {
		t.Error("phantom key found")
	}
	// Overwrite.
	m.put(keys[0], 99)
	if v, _ := m.get(keys[0]); v != 99 {
		t.Error("overwrite failed")
	}
}

func TestPairMemoCollisions(t *testing.T) {
	// Keys engineered to collide in a tiny table exercise linear probing.
	m := newPairMemo(16)
	for i := int64(1); i <= 64; i++ {
		m.put(i<<32|1, float64(i))
	}
	for i := int64(1); i <= 64; i++ {
		if v, ok := m.get(i<<32 | 1); !ok || v != float64(i) {
			t.Fatalf("key %d: %v %v", i, v, ok)
		}
	}
}

func TestExplain(t *testing.T) {
	m := chainMVDB(40, 17)
	_, ix := buildIndex(t, m)
	// A query touching a single block must visit far fewer pairs than the
	// index has nodes and must enter past block 0.
	q := ucq.MustParse("Q() :- Adv(30,a)")
	ex, err := ix.ExplainBoolean(q.UCQ, IntersectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.EntryBlock == 0 {
		t.Errorf("entry block = 0 for a late-block query: %+v", ex)
	}
	if ex.PairsVisited >= ix.Size() {
		t.Errorf("visited %d pairs, index has %d nodes", ex.PairsVisited, ix.Size())
	}
	if ex.Prob <= 0 || ex.Prob > 1 {
		t.Errorf("prob = %v", ex.Prob)
	}
	// Cross-check the probability against the regular path.
	want, err := ix.ProbBoolean(q.UCQ, IntersectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ex.Prob-want) > 1e-12 {
		t.Errorf("explain prob %v vs %v", ex.Prob, want)
	}
	if ex.String() == "" {
		t.Error("empty explain string")
	}
	// False query.
	q = ucq.MustParse("Q() :- Adv(99999,a)")
	ex, err = ix.ExplainBoolean(q.UCQ, IntersectOptions{})
	if err != nil || ex.Prob != 0 {
		t.Errorf("false query explain = %+v, %v", ex, err)
	}
}

func TestTupleMarginal(t *testing.T) {
	m := chainMVDB(5, 21)
	tr, ix := buildIndex(t, m)
	adv := tr.DB.Relation("Adv")
	for _, tup := range adv.Tuples {
		got, err := ix.TupleMarginal(tup.Var, IntersectOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// Cross-check against exact MLN enumeration.
		q := ucq.MustParse(
			"Q() :- Adv(" + tup.Vals[0].String() + "," + tup.Vals[1].String() + ")")
		want, err := baseline.ProbExact(m, q.UCQ)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("var %d: marginal %v exact %v", tup.Var, got, want)
		}
		// The view's positive weight (2.5) must raise the marginal above the
		// independent prior.
		prior := engine.WeightToProb(tup.Weight)
		if got <= prior {
			t.Errorf("var %d: marginal %v not above prior %v despite w=2.5", tup.Var, got, prior)
		}
	}
	if _, err := ix.TupleMarginal(999999, IntersectOptions{}); err == nil {
		t.Error("unknown variable accepted")
	}
}

// TestCompact: a built index keeps no OBDD manager — a chain has no field
// for a pointer ¬W, so the compile's manager, which also holds W and the
// compile's intermediates, is garbage — and Save writes ¬W's block shapes
// alone; the restored index answers the same, and its first structural
// batch recompiles the one dirty block.
func TestCompact(t *testing.T) {
	m := chainMVDB(30, 33)
	tableWeights(t, m)
	_, ix := buildIndex(t, m)
	if _, err := ix.Sift(obdd.ReorderOptions{Mode: obdd.ReorderOnce}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.SaveSeq(&buf, 0); err != nil {
		t.Fatal(err)
	}
	var snap indexSnapshot
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	nodes := 0
	for _, b := range snap.Blocks {
		nodes += len(b.Vars)
	}
	if nodes != ix.Size() || len(snap.Blocks) != ix.Blocks() {
		t.Fatalf("snapshot holds %d nodes in %d blocks for a %d-node ¬W of %d blocks", nodes, len(snap.Blocks), ix.Size(), ix.Blocks())
	}
	back, _, err := ReadSeq(&buf)
	if err != nil {
		t.Fatal(err)
	}
	q := ucq.MustParse("Q() :- Adv(7,a)")
	want, err := ix.ProbBoolean(q.UCQ, IntersectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.ProbBoolean(q.UCQ, IntersectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("probability changed through the snapshot: %v vs %v", got, want)
	}
	// A restored index keeps the block record: its first structural batch
	// recompiles the one dirty block.
	st, err := back.ApplyMutations([]core.Mutation{
		{Op: core.MutInsert, Rel: "Adv", Vals: []engine.Value{engine.Int(7), engine.Int(307)}, Weight: 1.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Full || st.Recompiled != 1 {
		t.Fatalf("first structural batch after a restore: %+v, want one dirty block", st)
	}

	for _, domain := range []int{1000, 2000, 4000} {
		if testing.Short() {
			break
		}
		_, heap := liveHeapAfterBuild(t, domain)
		t.Logf("domain %d: live heap after Build %.1f MB", domain, heap/1e6)
	}
}

func TestAllTupleMarginals(t *testing.T) {
	m := chainMVDB(5, 27)
	tr, ix := buildIndex(t, m)
	all, err := ix.AllTupleMarginals()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != tr.DB.NumVars()+1 {
		t.Fatalf("len = %d", len(all))
	}
	for v := 1; v <= tr.DB.NumVars(); v++ {
		want, err := ix.TupleMarginal(v, IntersectOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(all[v]-want) > 1e-9 {
			t.Errorf("var %d: all-pass %v single %v", v, all[v], want)
		}
	}
}

func TestAllTupleMarginalsUnconstrainedVar(t *testing.T) {
	// A tuple not participating in any view keeps its prior.
	db := engine.NewDatabase()
	db.MustCreateRelation("Adv", false, "s", "a")
	db.MustCreateRelation("Free", false, "x")
	db.MustInsert("Adv", 2, engine.Int(1), engine.Int(10))
	vFree := db.MustInsert("Free", 3, engine.Int(7)) // p = 0.75
	m := core.New(db)
	v, _ := core.ParseView("V(s) :- Adv(s,a)", core.ConstWeight(2))
	if err := m.AddView(v); err != nil {
		t.Fatal(err)
	}
	_, ix := buildIndex(t, m)
	all, err := ix.AllTupleMarginals()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(all[vFree]-0.75) > 1e-12 {
		t.Errorf("free var marginal %v want 0.75", all[vFree])
	}
	// The Adv tuple is boosted by the positive view.
	if all[1] <= engine.WeightToProb(2) {
		t.Errorf("constrained var %v not boosted above prior", all[1])
	}
	// Exact cross-check.
	q := ucq.MustParse("Q() :- Adv(1,10)")
	want, err := baseline.ProbExact(m, q.UCQ)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(all[1]-want) > 1e-9 {
		t.Errorf("marginal %v exact %v", all[1], want)
	}
}

// TestDeepChainNumericalStability: at thousands of blocks the global
// P0(¬W) underflows float64, but block-local evaluation must stay exact.
func TestDeepChainNumericalStability(t *testing.T) {
	const n = 4000
	m := chainMVDB(n, 41)
	_, ix := buildIndex(t, m)
	if ix.ProbNotW() != 0 {
		t.Logf("P0(¬W) still representable: %v (test remains valid)", ix.ProbNotW())
	}
	logAbs, sign := ix.LogProbNotW()
	if sign == 0 || math.IsInf(logAbs, -1) {
		t.Fatalf("log P0(¬W) degenerate: %v, %d", logAbs, sign)
	}
	// Every per-student query must agree with an equivalent tiny MVDB
	// (blocks are independent, so student s's marginal only depends on its
	// own block — compare against a 1-student database with the same seed
	// structure is impractical; instead verify against exact enumeration of
	// the restricted sub-MVDB built from student s's tuples).
	for _, s := range []int64{1, 2000, 4000} {
		q := ucq.MustParse("Q() :- Adv(" + engine.Int(s).String() + ",a)")
		got, err := ix.ProbBoolean(q.UCQ, IntersectOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(got) || got < 0 || got > 1 {
			t.Fatalf("student %d: P = %v", s, got)
		}
		if ptr := pointerBoolean(t, ix, q.UCQ, IntersectOptions{}); math.Abs(got-ptr) > 1e-12 {
			t.Errorf("student %d: CC-MVIntersect %v, pointer MVIntersect %v", s, got, ptr)
		}
	}
	// All marginals finite and in range for real tuples.
	marg, err := ix.AllTupleMarginals()
	if err != nil {
		t.Fatal(err)
	}
	for v, p := range marg[1:] {
		if ix.tr.IsNVVar(v + 1) {
			continue
		}
		if math.IsNaN(p) || p < -1e-9 || p > 1+1e-9 {
			t.Fatalf("var %d: marginal %v", v+1, p)
		}
	}
}

// TestDeepChainMatchesShallow: the marginal of one student in a deep chain
// equals the marginal of the same structure in a tiny database (blocks are
// independent).
func TestDeepChainMatchesShallow(t *testing.T) {
	// chainMVDB is seeded per student deterministically only through the
	// shared rng stream, so build a custom pair instead: one student with
	// fixed weights inside a deep chain vs alone.
	build := func(extra int64) (*core.MVDB, int64) {
		db := engine.NewDatabase()
		db.MustCreateRelation("Adv", false, "s", "a")
		// The student under test, with two candidates and fixed weights.
		db.MustInsert("Adv", 1.5, engine.Int(1), engine.Int(100))
		db.MustInsert("Adv", 0.8, engine.Int(1), engine.Int(200))
		for s := int64(2); s <= extra; s++ {
			db.MustInsert("Adv", 1.1, engine.Int(s), engine.Int(100+s))
		}
		m := core.New(db)
		v, _ := core.ParseView("V(s) :- Adv(s,a)", core.ConstWeight(2.5))
		if err := m.AddView(v); err != nil {
			panic(err)
		}
		return m, 1
	}
	deep, s := build(3000)
	shallow, _ := build(1)
	want, err := baseline.ProbExact(shallow, ucq.MustParse("Q() :- Adv(1,100)").UCQ)
	if err != nil {
		t.Fatal(err)
	}
	trDeep, err := deep.Translate(core.TranslateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ixDeep, err := Build(trDeep)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ixDeep.ProbBoolean(ucq.MustParse("Q() :- Adv(1,100)").UCQ, IntersectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_ = s
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("deep-chain marginal %v vs shallow exact %v", got, want)
	}
}

func TestInconsistentViewsErrorThroughIndex(t *testing.T) {
	// A denial view over a deterministic fact forbids every world.
	db := engine.NewDatabase()
	db.MustCreateRelation("D", true, "x")
	db.MustCreateRelation("R", false, "x")
	db.MustInsertDet("D", engine.Int(1))
	db.MustInsert("R", 1, engine.Int(1))
	m := core.New(db)
	v, _ := core.ParseView("V(x) :- D(x)", core.ConstWeight(0))
	if err := m.AddView(v); err != nil {
		t.Fatal(err)
	}
	tr, err := m.Translate(core.TranslateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	if _, sign := ix.LogProbNotW(); sign != 0 {
		t.Errorf("inconsistent views should give sign 0, got %d", sign)
	}
	q := ucq.MustParse("Q() :- R(1)")
	if _, err := ix.ProbBoolean(q.UCQ, IntersectOptions{}); err == nil {
		t.Error("inconsistent views: expected error")
	}
	if _, err := ix.AllTupleMarginals(); err == nil {
		t.Error("marginals on inconsistent views: expected error")
	}
	if _, err := ix.ExplainBoolean(q.UCQ, IntersectOptions{}); err == nil {
		t.Error("explain on inconsistent views: expected error")
	}
}

// blockOf returns the InterBddIndex entry of a variable: the chain block
// whose nodes include ones labeled with it (-1 if the variable does not
// occur in the index).
func blockOf(ix *Index, v int) int {
	k, run := ix.ch.levelRun(v)
	if len(run) == 0 {
		return -1
	}
	return k
}
