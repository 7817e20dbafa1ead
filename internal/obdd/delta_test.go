package obdd

import (
	"math"
	"math/rand"
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
			m, f, _, err := Compile(db, q, pi, CompileOptions{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			d, err := CompileDelta(db, q, pi, CompileOptions{Parallelism: par}, nil, nil, nil, nil)
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

// TestCompileDeltaProperty: over random databases and random mutation
// batches — chained, so records flow from delta to delta — the incremental
// compile must be structurally identical to a from-scratch compile of the
// mutated database.
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
	sawReuse := false
	for seed := int64(0); seed < int64(rounds); seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		n := 4 + rng.Int63n(10)
		db := randSepDB(rng, n)
		pi := SeparatorFirstPerm(db, sep)
		first, err := CompileDelta(db, q, pi, CompileOptions{Parallelism: 1}, nil, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		oldM, rec := first.M, first.Rec
		for batch := 0; batch < 5; batch++ {
			newDB := mutateSepDB(rng, db, n)
			changed := diffByKey(db, newDB)
			par := 1 + 3*rng.Intn(2) // 1 or 4 workers
			newPi := SeparatorFirstPerm(newDB, sep)
			d, err := CompileDelta(newDB, q, newPi, CompileOptions{Parallelism: par},
				oldM, rec, testVarMap(db, newDB), changed)
			if err != nil {
				t.Fatal(err)
			}
			fm, ff, _, err := Compile(newDB, q, newPi, CompileOptions{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			ff = fm.Not(ff)
			if !StructEqual(d.M, d.Root, fm, ff) {
				t.Fatalf("seed %d batch %d: delta OBDD differs from scratch (%+v, changed %v)",
					seed, batch, d.Stats, changed)
			}
			checkChainRecord(t, d)
			probs := newDB.Probs()
			a, b := d.M.Prob(d.Root, probs), fm.Prob(ff, probs)
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("seed %d batch %d: prob %v vs %v", seed, batch, a, b)
			}
			if !d.Stats.Full {
				checkSpliceMaps(t, oldM, rec, d)
			}
			if d.Stats.Reused > 0 {
				sawReuse = true
			}
			db, oldM, rec = newDB, d.M, d.Rec
		}
	}
	if !sawReuse {
		t.Fatal("no delta compile ever reused a block; incremental path untested")
	}
}

// checkSpliceMaps verifies the carry-over maps of an incremental compile:
// every copied block's old root maps to its new root, copied nodes keep
// their variable, and compiled blocks have no pre-image.
func checkSpliceMaps(t *testing.T, oldM *Manager, oldRec *BlockRecord, d *Delta) {
	t.Helper()
	if len(d.From) != len(d.Rec.Roots) || len(d.NodeMap) != oldM.NumNodes() || len(d.LevelMap) != oldM.NumVars() {
		t.Fatalf("splice maps have the wrong shape")
	}
	copied := 0
	for i, from := range d.From {
		if from < 0 {
			continue
		}
		if d.NodeMap[oldRec.Roots[from]] != d.Rec.Roots[i] {
			t.Fatalf("block %d: NodeMap sends old root %d to %d, record says %d",
				i, oldRec.Roots[from], d.NodeMap[oldRec.Roots[from]], d.Rec.Roots[i])
		}
		if oldRec.Values[from] != d.Rec.Values[i] {
			t.Fatalf("block %d copied from a different value", i)
		}
	}
	for x, r := range d.NodeMap {
		if r == 0 {
			continue
		}
		copied++
		if nl := d.LevelMap[oldM.NodeLevel(NodeID(x))]; nl != d.M.NodeLevel(r) {
			t.Fatalf("node %d: level map says %d, image sits at %d", x, nl, d.M.NodeLevel(r))
		}
	}
	if copied != d.Stats.Spliced {
		t.Fatalf("NodeMap has %d images, stats report %d spliced nodes", copied, d.Stats.Spliced)
	}
}

// TestCompileDeltaFallbacks: missing record, changed query and weight-only
// changes all behave correctly.
func TestCompileDeltaFallbacks(t *testing.T) {
	q := ucq.MustParse("Q() :- R(x), S(x,y)").UCQ
	sep, _ := q.FindSeparator()
	rng := rand.New(rand.NewSource(9))
	db := randSepDB(rng, 8)
	pi := SeparatorFirstPerm(db, sep)

	// No record: full recompile, still correct.
	d, err := CompileDelta(db, q, pi, CompileOptions{Parallelism: 1}, nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Stats.Full || !d.Rec.HasSep {
		t.Fatalf("expected full fallback with a fresh record, got %+v", d.Stats)
	}
	fm, ff, _, _ := Compile(db, q, pi, CompileOptions{Parallelism: 1})
	ff = fm.Not(ff)
	if !StructEqual(d.M, d.Root, fm, ff) {
		t.Fatal("full fallback differs from scratch")
	}

	// Changed query: full recompile.
	q2 := ucq.MustParse("Q() :- R(x), S(x,y), y > 100").UCQ
	d2, err := CompileDelta(db, q2, pi, CompileOptions{Parallelism: 1}, d.M, d.Rec, testVarMap(db, db), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !d2.Stats.Full {
		t.Fatal("query change must force a full recompile")
	}

	// No structural change at all: every block reused.
	d3, err := CompileDelta(db, q, pi, CompileOptions{Parallelism: 1}, d.M, d.Rec, testVarMap(db, db), nil)
	if err != nil {
		t.Fatal(err)
	}
	if d3.Stats.Full || d3.Stats.Recompiled != 0 || d3.Stats.Reused != d3.Stats.Blocks {
		t.Fatalf("no-op delta recompiled blocks: %+v", d3.Stats)
	}
	if !StructEqual(d3.M, d3.Root, fm, ff) {
		t.Fatal("no-op delta differs from scratch")
	}
	// The copy leaves no garbage behind: the fresh manager holds exactly the
	// chain.
	if d3.M.NumNodes() != d3.M.Size(d3.Root)+2 {
		t.Fatalf("no-op delta manager has %d nodes for a %d-node chain", d3.M.NumNodes(), d3.M.Size(d3.Root))
	}

	// A ground disjunct makes the OBDD something other than a plain chain:
	// the record must say so, and the next delta must recompile in full.
	q4 := ucq.MustParse("Q() :- R(x), S(x,y)\nQ() :- R(1), S(2,3)").UCQ
	d4, err := CompileDelta(db, q4, pi, CompileOptions{Parallelism: 1}, nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d4.Rec.HasSep {
		t.Fatal("a union with a ground disjunct must not be recorded as a chain")
	}
	d5, err := CompileDelta(db, q4, pi, CompileOptions{Parallelism: 1}, d4.M, d4.Rec, testVarMap(db, db), nil)
	if err != nil {
		t.Fatal(err)
	}
	gm, gf, _, _ := Compile(db, q4, pi, CompileOptions{Parallelism: 1})
	if !d5.Stats.Full || !StructEqual(d5.M, d5.Root, gm, gm.Not(gf)) {
		t.Fatalf("unrecorded chain: %+v", d5.Stats)
	}
}
