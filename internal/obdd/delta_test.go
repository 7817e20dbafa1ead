package obdd

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"mvdb/internal/engine"
	"mvdb/internal/ucq"
)

// testVarMap maps old variable ids to new ones by tuple identity (relation +
// full values), the same mapping the MV-index maintenance uses.
func testVarMap(oldDB, newDB *engine.Database) func(int) (int, bool) {
	return func(v int) (int, bool) {
		ref, err := oldDB.VarRef(v)
		if err != nil {
			return 0, false
		}
		t := oldDB.Relation(ref.Rel).Tuples[ref.Pos]
		nr := newDB.Relation(ref.Rel)
		if nr == nil {
			return 0, false
		}
		i := nr.Lookup(t.Vals)
		if i < 0 || nr.Tuples[i].Var == 0 {
			return 0, false
		}
		return nr.Tuples[i].Var, true
	}
}

// diffByKey lists tuples present in exactly one of the two databases.
func diffByKey(a, b *engine.Database) []ChangedTuple {
	var out []ChangedTuple
	for _, name := range a.Relations() {
		ra, rb := a.Relation(name), b.Relation(name)
		for _, t := range ra.Tuples {
			if rb == nil || rb.Lookup(t.Vals) < 0 {
				out = append(out, ChangedTuple{Rel: name, Vals: t.Vals})
			}
		}
	}
	for _, name := range b.Relations() {
		ra, rb := a.Relation(name), b.Relation(name)
		for _, t := range rb.Tuples {
			if ra == nil || ra.Lookup(t.Vals) < 0 {
				out = append(out, ChangedTuple{Rel: name, Vals: t.Vals})
			}
		}
	}
	return out
}

// checkChainRecord verifies a spliceable record against its manager: sorted
// values, Roots[0] the root of ¬u, and every recorded root on the chain —
// strictly descending levels, each block's cone reaching its successor.
func checkChainRecord(t *testing.T, d *Delta) {
	t.Helper()
	rec := d.Rec
	if !rec.HasSep || len(rec.Values) != len(rec.Roots) {
		t.Fatalf("bad record %+v", rec)
	}
	if len(rec.Roots) > 0 && rec.Roots[0] != d.Root {
		t.Fatalf("Roots[0] = %d, root of ¬u = %d", rec.Roots[0], d.Root)
	}
	for i := 1; i < len(rec.Roots); i++ {
		if rec.Values[i-1].Compare(rec.Values[i]) >= 0 {
			t.Fatalf("record values not sorted at %d", i)
		}
		if d.M.NodeLevel(rec.Roots[i-1]) >= d.M.NodeLevel(rec.Roots[i]) {
			t.Fatalf("chain roots not descending at %d", i)
		}
		reach := false
		for _, n := range d.M.Reachable(rec.Roots[i-1]) {
			reach = reach || n == rec.Roots[i]
		}
		if !reach {
			t.Fatalf("block %d does not lead to block %d", i-1, i)
		}
	}
}

// TestCompileRecordedEquivalent: the full recorded compile (top-level
// separator expansion, negated) must produce the complement of the plain
// compiler's OBDD, with the per-value roots actually covering the chain.
func TestCompileRecordedEquivalent(t *testing.T) {
	q := ucq.MustParse("Q() :- R(x), S(x,y)\nQ() :- S(x,z), S(x,w), z <> w").UCQ
	sep, ok := q.FindSeparatorSkip(ucq.SkipGround)
	if !ok {
		t.Fatal("no separator")
	}
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := randSepDB(rng, 4+rng.Int63n(10))
		pi := SeparatorFirstPerm(db, sep)
		for _, par := range []int{1, 4} {
			var m *Manager
			var f NodeID
			var d *Delta
			var err error
			atProcs(1, func() { m, f, _, err = Compile(db, q, pi, CompileOptions{}) })
			if err != nil {
				t.Fatal(err)
			}
			atProcs(par, func() { d, err = CompileDelta(db, q, NewManager(TupleOrder(db, pi)), CompileOptions{}, nil, nil) })
			if err != nil {
				t.Fatal(err)
			}
			if !StructEqual(m, m.Not(f), d.M, d.Root) {
				t.Fatalf("seed %d par %d: recorded compile differs structurally", seed, par)
			}
			checkChainRecord(t, d)
			probs := db.Probs()
			a, b := m.Prob(m.Not(f), probs), d.M.Prob(d.Root, probs)
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("seed %d: prob %v vs %v", seed, a, b)
			}
		}
	}
}

// mutateSepDB applies a random interleaving of inserts, deletes and
// reweights to a clone of db and returns the mutated copy.
func mutateSepDB(rng *rand.Rand, db *engine.Database, n int64) *engine.Database {
	out := db.Clone()
	for step := 0; step < 1+rng.Intn(6); step++ {
		rel := []string{"R", "S"}[rng.Intn(2)]
		r := out.Relation(rel)
		switch {
		case rng.Intn(3) == 0 && r.Len() > 0: // delete
			t := r.Tuples[rng.Intn(r.Len())]
			if _, err := out.DeleteTuple(rel, t.Vals); err != nil {
				panic(err)
			}
		case rng.Intn(2) == 0 && r.Len() > 0: // reweight
			t := r.Tuples[rng.Intn(r.Len())]
			if _, err := out.UpdateWeight(rel, t.Vals, rng.Float64()*3); err != nil {
				panic(err)
			}
		default: // insert
			var vals []engine.Value
			if rel == "R" {
				vals = []engine.Value{engine.Int(1 + rng.Int63n(n+3))}
			} else {
				vals = []engine.Value{engine.Int(1 + rng.Int63n(n+3)), engine.Int(rng.Int63n(2000))}
			}
			if !out.HasTuple(rel, vals) {
				out.MustInsert(rel, rng.Float64()*3, vals...)
			}
		}
	}
	return out
}

// valueBlocks renders every recorded separator value's block of a full
// compile standalone — the chain from the value's root with the next value's
// root read as True — keyed by value.
func valueBlocks(d *Delta) map[engine.Value]string {
	out := map[engine.Value]string{}
	for i, r := range d.Rec.Roots {
		next := True
		if i+1 < len(d.Rec.Roots) {
			next = d.Rec.Roots[i+1]
		}
		out[d.Rec.Values[i]] = blockSig(d.M, r, next)
	}
	return out
}

// blockSig renders the sub-OBDD at f, with stop read as the True terminal,
// as a DFS listing labeled by variable id rather than level: equal for the
// same block under any two orders that agree on its variables.
func blockSig(m *Manager, f, stop NodeID) string {
	ids := map[NodeID]string{}
	var b strings.Builder
	var rec func(NodeID) string
	rec = func(x NodeID) string {
		switch x {
		case False:
			return "F"
		case True, stop:
			return "T"
		}
		if id, ok := ids[x]; ok {
			return id
		}
		id := strconv.Itoa(len(ids))
		ids[x] = id
		lo, hi := rec(m.Lo(x)), rec(m.Hi(x))
		fmt.Fprintf(&b, "%s:v%d(%s,%s) ", id, m.VarAtLevel(int(m.NodeLevel(x))), lo, hi)
		return id
	}
	rec(f)
	return b.String()
}

// TestCompileDeltaProperty: over random databases and random mutation
// batches — chained, so records and orders flow from delta to delta — the
// blocks an incremental compile leaves for the dirty values, with the clean
// values' blocks kept from before, are exactly the per-value blocks of a
// from-scratch compile of the mutated database under the same order.
func TestCompileDeltaProperty(t *testing.T) {
	q := ucq.MustParse("Q() :- R(x), S(x,y)\nQ() :- S(x,z), S(x,w), z <> w").UCQ
	sep, ok := q.FindSeparatorSkip(ucq.SkipGround)
	if !ok {
		t.Fatal("no separator")
	}
	rounds := 10
	if testing.Short() {
		rounds = 3
	}
	// The references compile sequentially; each delta on one or four workers.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sawReuse := false
	for seed := int64(0); seed < int64(rounds); seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		n := 4 + rng.Int63n(10)
		db := randSepDB(rng, n)
		pi := SeparatorFirstPerm(db, sep)
		first, err := CompileDelta(db, q, NewManager(TupleOrder(db, pi)), CompileOptions{}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		ord, rec, blocks := first.M, first.Rec, valueBlocks(first)
		for batch := 0; batch < 5; batch++ {
			newDB := mutateSepDB(rng, db, n)
			changed := diffByKey(db, newDB)
			newPi := SeparatorFirstPerm(newDB, sep)
			ord = PatchOrder(ord, testVarMap(db, newDB), newDB, newPi, changed)
			var d *Delta
			atProcs(1+3*rng.Intn(2), func() { d, err = CompileDelta(newDB, q, ord, CompileOptions{}, rec, changed) })
			if err != nil {
				t.Fatal(err)
			}
			ref, err := CompileDelta(newDB, q, ord, CompileOptions{}, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			fm, ff, _, err := Compile(newDB, q, newPi, CompileOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !StructEqual(ref.M, ref.Root, fm, fm.Not(ff)) {
				t.Fatalf("seed %d batch %d: the patched order is not Π", seed, batch)
			}
			checkChainRecord(t, ref)
			if d.Full {
				blocks = valueBlocks(d)
			} else {
				if d.Recompiled > len(d.Values) {
					t.Fatalf("seed %d batch %d: %d blocks recompiled for %d dirty values", seed, batch, d.Recompiled, len(d.Values))
				}
				for j, v := range d.Values {
					delete(blocks, v)
					if d.Blocks[j] != True {
						blocks[v] = blockSig(d.M, d.Blocks[j], True)
					}
				}
				sawReuse = sawReuse || len(blocks) > len(d.Values)
			}
			if want := valueBlocks(ref); !reflect.DeepEqual(blocks, want) {
				t.Fatalf("seed %d batch %d: blocks differ from scratch (full %v, dirty %v, changed %v)\n got  %v\n want %v",
					seed, batch, d.Full, d.Values, changed, blocks, want)
			}
			db, rec = newDB, ref.Rec
		}
	}
	if !sawReuse {
		t.Fatal("no delta compile ever kept a block; incremental path untested")
	}
}

// TestCompileDeltaFallbacks: missing record, changed query and weight-only
// changes all behave correctly.
func TestCompileDeltaFallbacks(t *testing.T) {
	q := ucq.MustParse("Q() :- R(x), S(x,y)").UCQ
	sep, _ := q.FindSeparatorSkip(ucq.SkipGround)
	rng := rand.New(rand.NewSource(9))
	db := randSepDB(rng, 8)
	pi := SeparatorFirstPerm(db, sep)
	ord := NewManager(TupleOrder(db, pi))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	// No record: full recompile, still correct.
	d, err := CompileDelta(db, q, ord, CompileOptions{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Full || !d.Rec.HasSep {
		t.Fatalf("expected full fallback with a fresh record, got %+v", d)
	}
	fm, ff, _, _ := Compile(db, q, pi, CompileOptions{})
	ff = fm.Not(ff)
	if !StructEqual(d.M, d.Root, fm, ff) {
		t.Fatal("full fallback differs from scratch")
	}

	// Changed query: full recompile.
	q2 := ucq.MustParse("Q() :- R(x), S(x,y), y > 100").UCQ
	d2, err := CompileDelta(db, q2, ord, CompileOptions{}, d.Rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !d2.Full {
		t.Fatal("query change must force a full recompile")
	}

	// No structural change at all: nothing compiled, not even a node.
	d3, err := CompileDelta(db, q, ord, CompileOptions{}, d.Rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d3.Full || d3.Recompiled != 0 || len(d3.Values) != 0 || d3.M.NumNodes() != 2 {
		t.Fatalf("no-op delta compiled something: %+v, %d nodes", d3, d3.M.NumNodes())
	}

	// A ground disjunct makes the OBDD something other than a plain chain:
	// the record must say so, and the next delta must recompile in full.
	q4 := ucq.MustParse("Q() :- R(x), S(x,y)\nQ() :- R(1), S(2,3)").UCQ
	d4, err := CompileDelta(db, q4, ord, CompileOptions{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d4.Rec.HasSep {
		t.Fatal("a union with a ground disjunct must not be recorded as a chain")
	}
	d5, err := CompileDelta(db, q4, ord, CompileOptions{}, d4.Rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	gm, gf, _, _ := Compile(db, q4, pi, CompileOptions{})
	if !d5.Full || !StructEqual(d5.M, d5.Root, gm, gm.Not(gf)) {
		t.Fatalf("unrecorded chain: %+v", d5)
	}
}
