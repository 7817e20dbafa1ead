package mvindex

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"mvdb/internal/core"
	"mvdb/internal/engine"
	"mvdb/internal/obdd"
	"mvdb/internal/ucq"
)

// advState tracks the Adv(s,a) tuples of the live source so a generated batch
// stays valid across its own mutations.
type advState struct {
	rng  *rand.Rand
	adv  map[int64][]int64 // student -> advisors
	next int64             // fresh advisor ids
	newS int64             // fresh student ids (new separator values)
}

func newAdvState(rng *rand.Rand, db *engine.Database) *advState {
	st := &advState{rng: rng, adv: map[int64][]int64{}, next: 10_000, newS: 1_000}
	for _, t := range db.Relation("Adv").Tuples {
		st.adv[t.Vals[0].Int] = append(st.adv[t.Vals[0].Int], t.Vals[1].Int)
	}
	return st
}

// student picks a student that currently has advisors.
func (st *advState) student() int64 {
	ss := make([]int64, 0, len(st.adv))
	for s := range st.adv {
		ss = append(ss, s)
	}
	sort.Slice(ss, func(i, j int) bool { return ss[i] < ss[j] }) // map order is random
	return ss[st.rng.Intn(len(ss))]
}

func advVals(s, a int64) []engine.Value { return []engine.Value{engine.Int(s), engine.Int(a)} }

// insert adds a fresh advisor to student s.
func (st *advState) insert(s int64) core.Mutation {
	a := st.next
	st.next++
	st.adv[s] = append(st.adv[s], a)
	return core.Mutation{Op: core.MutInsert, Rel: "Adv", Vals: advVals(s, a), Weight: 0.2 + 3*st.rng.Float64()}
}

// empty deletes every advisor of student s: the block disappears.
func (st *advState) empty(s int64) []core.Mutation {
	var out []core.Mutation
	for _, a := range st.adv[s] {
		out = append(out, core.Mutation{Op: core.MutDelete, Rel: "Adv", Vals: advVals(s, a)})
	}
	delete(st.adv, s)
	return out
}

// reweight gives one advisor of student s a weight above 1.
func (st *advState) reweight(s int64) core.Mutation {
	as := st.adv[s]
	return core.Mutation{Op: core.MutReweight, Rel: "Adv", Vals: advVals(s, as[st.rng.Intn(len(as))]), Weight: 1 + 3*st.rng.Float64()}
}

// batch draws one batch: an insert into an existing block, an insert that
// creates a new separator value, a delete that empties a block, reweights
// above 1, a delete and re-insert of one tuple under a new weight, or several
// of these across different blocks.
func (st *advState) batch() []core.Mutation {
	switch st.rng.Intn(7) {
	case 0:
		return []core.Mutation{st.insert(st.student())}
	case 1:
		st.newS++
		return []core.Mutation{st.insert(st.newS), st.insert(st.newS)}
	case 2:
		if len(st.adv) > 3 {
			return st.empty(st.student())
		}
		return []core.Mutation{st.insert(st.student())}
	case 3:
		return []core.Mutation{st.reweight(st.student()), st.reweight(st.student())}
	case 4: // delete one tuple, leaving the block (or emptying a single-tuple one)
		s := st.student()
		as := st.adv[s]
		a := as[len(as)-1]
		if st.adv[s] = as[:len(as)-1]; len(as) == 1 {
			delete(st.adv, s)
		}
		return []core.Mutation{{Op: core.MutDelete, Rel: "Adv", Vals: advVals(s, a)}}
	case 5: // same tuple back under a new weight: no presence change, a structural batch
		s := st.student()
		vals := advVals(s, st.adv[s][0])
		return []core.Mutation{
			{Op: core.MutDelete, Rel: "Adv", Vals: vals},
			{Op: core.MutInsert, Rel: "Adv", Vals: vals, Weight: 0.2 + 3*st.rng.Float64()},
			st.insert(st.student()),
		}
	}
	// Multi-block: reweight, insert into an old block, open a new block and
	// empty a third.
	out := []core.Mutation{st.reweight(st.student()), st.insert(st.student())}
	st.newS++
	out = append(out, st.insert(st.newS))
	if len(st.adv) > 4 {
		out = append(out, st.empty(st.student())...)
	}
	return out
}

// checkAugmentation compares the maintained chain — every segment, field by
// field and floats bit for bit, the directory, P0(¬W) and the separator
// tags — with a from-scratch full compile of W under the index's own order,
// augmented by the per-block primitive: the incremental path may only ever
// produce what a rebuild produces. The lazily materialised ¬W must be that
// OBDD too.
func checkAugmentation(t *testing.T, ix *Index, when string) {
	t.Helper()
	var d *obdd.Delta
	var err error
	atProcs(1, func() { d, err = obdd.CompileDelta(ix.tr.DB, ix.tr.W, ix.ch.ord, obdd.CompileOptions{}, nil, nil) })
	if err != nil {
		t.Fatal(err)
	}
	ref, kept := newChain(d.M, d.Root, d.Rec, ix.tr.DB.Probs())
	same := func(what string, got, want any) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %s differs from a from-scratch recompute\n got  %v\n want %v", when, what, got, want)
		}
	}
	bits := func(fs []float64) []uint64 {
		out := make([]uint64, len(fs))
		for i, f := range fs {
			out[i] = math.Float64bits(f)
		}
		return out
	}
	same("probs", bits(ix.probs), bits(ix.tr.DB.Probs()))
	same("blocks", len(ix.ch.segs), len(ref.segs))
	same("off", ix.ch.off, ref.off)
	same("P0(¬W)", ix.ch.pNotW, ref.pNotW)
	for k, s := range ix.ch.segs {
		r := ref.segs[k]
		what := fmt.Sprintf("block %d ", k)
		same(what+"vars", s.vars, r.vars)
		same(what+"lo", s.lo, r.lo)
		same(what+"hi", s.hi, r.hi)
		same(what+"byLevel", s.byLevel, r.byLevel)
		same(what+"prob", bits(s.prob), bits(r.prob))
		same(what+"probUnder", bits(s.probUnder), bits(r.probUnder))
		same(what+"reach", bits(s.reach), bits(r.reach))
		same(what+"b_k", math.Float64bits(s.b), math.Float64bits(r.b))
		if ix.rec != nil {
			same(what+"separator value", s.sep, r.sep)
		}
	}
	if ix.rec != nil {
		same("record kept", kept != nil, true)
		same("separator values", ix.ch.vals, len(d.Rec.Values))
	}
	n := ix.ch.materialize()
	if !obdd.StructEqual(n.m, n.root, d.M, d.Root) {
		t.Fatalf("%s: the materialised ¬W differs from a full compile", when)
	}
	same("size", ix.Size(), d.M.Size(d.Root))
	same("width", ix.Width(), d.M.Width(d.Root))
}

// checkAnswers compares the maintained index with an index built from
// scratch over a re-translation of the mutated source, and with the pointer
// MVIntersect over its own ¬W.
func checkAnswers(t *testing.T, ix *Index, when string) {
	t.Helper()
	tr, err := ix.Translation().Source.Translate(ix.Translation().Opts())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{"Q(s) :- Adv(s,a)", "Q() :- Adv(s,a)", "Q(a) :- Adv(2,a)", "Q() :- Adv(1,a)\nQ() :- Adv(1001,b)"} {
		q := ucq.MustParse(src)
		got, err := ix.Query(q, IntersectOptions{})
		if err != nil {
			t.Fatalf("%s: %q: %v", when, src, err)
		}
		want, err := ref.Query(q, IntersectOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %q: %d answers, scratch build has %d", when, src, len(got), len(want))
		}
		for i := range want {
			if engine.TupleKey(got[i].Head) != engine.TupleKey(want[i].Head) || math.Abs(got[i].Prob-want[i].Prob) > 1e-12 {
				t.Fatalf("%s: %q answer %d: %v %v, scratch build %v %v",
					when, src, i, got[i].Head, got[i].Prob, want[i].Head, want[i].Prob)
			}
		}
		checkPointer(t, ix, q, got)
	}
	gm, err := ix.AllTupleMarginals()
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v < len(gm); v++ {
		if !ix.tr.DB.Alive(v) {
			continue
		}
		want, err := ix.TupleMarginal(v, IntersectOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(gm[v]-want) > 1e-9 {
			t.Fatalf("%s: marginal of variable %d: one-pass %v, intersect %v", when, v, gm[v], want)
		}
	}
}

// tableWeights turns m's constant closure weights into weight tables, which
// snapshots carry.
func tableWeights(t *testing.T, m *core.MVDB) {
	for _, v := range m.Views {
		v.Weights, v.Weight = &core.WeightTable{Default: v.Weight(nil)}, nil
	}
}

// addClosureDenial adds a closure-weighted denial view to m: the delta
// translator cannot prove it stays one, so every structural batch takes the
// clone-and-retranslate route.
func addClosureDenial(t *testing.T, m *core.MVDB) {
	t.Helper()
	v, err := core.ParseView("D(s) :- Adv(s,a), Adv(s,b), a <> b", core.ConstWeight(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddView(v); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalAugmentEqualsRebuild: over random batch sequences — inserts
// into existing blocks, inserts that create separator values, deletes that
// empty blocks, reweights above 1 under a view whose NV tuples carry
// negative probabilities, and multi-block mixes — every structure the
// incremental path maintains equals a full recompile under the same order
// exactly, and every answer equals a fresh Build to 1e-12. The same
// holds under a learned (sifted) order, after a snapshot restore, and on the
// clone-and-retranslate route, whose variable ids are renumbered.
func TestIncrementalAugmentEqualsRebuild(t *testing.T) {
	batches := 14
	if testing.Short() {
		batches = 6
	}
	scenarios := []struct {
		name  string
		setup func(t *testing.T, m *core.MVDB)
		after func(t *testing.T, ix *Index) *Index
		// first3 makes the first batch three mutations over three blocks,
		// which must already take the incremental path: Build records the
		// block chain.
		first3 bool
		// noFull requires every structural batch after setup to be
		// incremental.
		noFull bool
	}{
		{name: "static order"},
		{name: "sifted order", after: func(t *testing.T, ix *Index) *Index {
			if _, err := ix.Sift(obdd.ReorderOptions{Mode: obdd.ReorderConverge}); err != nil {
				t.Fatal(err)
			}
			return ix
		}},
		// A restored index keeps the block record: its first batch is
		// incremental, like a built index's.
		{name: "after restore", setup: tableWeights, noFull: true, after: func(t *testing.T, ix *Index) *Index {
			var buf bytes.Buffer
			if err := ix.SaveSeq(&buf, 0); err != nil {
				t.Fatal(err)
			}
			back, err := readIndex(&buf)
			if err != nil {
				t.Fatal(err)
			}
			return back
		}},
		{name: "retranslate route", setup: addClosureDenial},
		{name: "first batch after Build", first3: true},
	}
	for si, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			incremental, weightOnly := 0, 0
			for seed := int64(0); seed < 3; seed++ {
				rng := rand.New(rand.NewSource(900 + 10*int64(si) + seed))
				m := multiAdvMVDB(6+rng.Int63n(5), seed)
				if sc.setup != nil {
					sc.setup(t, m)
				}
				_, ix := buildIndex(t, m)
				st := newAdvState(rng, ix.Source().DB)
				first := []core.Mutation{st.insert(st.student())}
				if sc.first3 {
					st.newS++
					first = append(first, st.reweight(st.student()), st.insert(st.newS))
				}
				ms, err := ix.ApplyMutations(first)
				if err != nil {
					t.Fatal(err)
				}
				if sc.first3 && (ms.Full || ms.Reused == 0 || ms.Recompiled >= ms.Blocks) {
					t.Fatalf("seed %d: the first batch after Build was not incremental: %+v", seed, ms)
				}
				if sc.after != nil {
					ix = sc.after(t, ix)
				}
				checkAugmentation(t, ix, "after setup")
				for b := 0; b < batches; b++ {
					batch := st.batch()
					ms, err := ix.ApplyMutations(batch)
					if err != nil {
						t.Fatalf("seed %d batch %d (%v): %v", seed, b, batch, err)
					}
					when := fmt.Sprintf("%s seed %d batch %d %v (%+v)", sc.name, seed, b, batch, ms)
					if sc.noFull && ms.Full {
						t.Fatalf("%s: a structural batch recompiled in full", when)
					}
					if ms.WeightOnly {
						weightOnly++
					} else if !ms.Full && ms.Reused > 0 && ms.AugmentedBlocks < ix.Blocks() {
						incremental++
					}
					checkAugmentation(t, ix, when)
					checkAnswers(t, ix, when)
				}
			}
			if incremental == 0 || weightOnly == 0 {
				t.Fatalf("%d incremental structural and %d weight-only batches: the carried paths went untested", incremental, weightOnly)
			}
		})
	}
}
