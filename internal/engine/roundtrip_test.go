package engine

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"testing"
)

// assertSameDatabase checks structural equality of two databases: relation
// order, schemas, tuples (values, variables, bitwise-equal weights) and the
// variable registry, tombstones included.
func assertSameDatabase(t *testing.T, a, b *Database) {
	t.Helper()
	ra, rb := a.Relations(), b.Relations()
	if len(ra) != len(rb) {
		t.Fatalf("relation count %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("relation order diverged: %v vs %v", ra, rb)
		}
		x, y := a.Relation(ra[i]), b.Relation(rb[i])
		if x.Deterministic != y.Deterministic || len(x.Cols) != len(y.Cols) {
			t.Fatalf("%s: schema mismatch", ra[i])
		}
		if len(x.Tuples) != len(y.Tuples) {
			t.Fatalf("%s: %d vs %d tuples", ra[i], len(x.Tuples), len(y.Tuples))
		}
		for j := range x.Tuples {
			tx, ty := x.Tuples[j], y.Tuples[j]
			if tx.Var != ty.Var || len(tx.Vals) != len(ty.Vals) {
				t.Fatalf("%s[%d]: %+v vs %+v", ra[i], j, tx, ty)
			}
			if math.Float64bits(tx.Weight) != math.Float64bits(ty.Weight) {
				t.Fatalf("%s[%d]: weight %v vs %v (must be bitwise equal)", ra[i], j, tx.Weight, ty.Weight)
			}
			for k := range tx.Vals {
				if !tx.Vals[k].Equal(ty.Vals[k]) {
					t.Fatalf("%s[%d][%d]: %v vs %v", ra[i], j, k, tx.Vals[k], ty.Vals[k])
				}
			}
		}
	}
	if a.NumVars() != b.NumVars() {
		t.Fatalf("NumVars %d vs %d", a.NumVars(), b.NumVars())
	}
	for v := 1; v <= a.NumVars(); v++ {
		refA, errA := a.VarRef(v)
		refB, errB := b.VarRef(v)
		if (errA == nil) != (errB == nil) || refA != refB {
			t.Fatalf("var %d: %v/%v vs %v/%v", v, refA, errA, refB, errB)
		}
		if math.Float64bits(a.Weight(v)) != math.Float64bits(b.Weight(v)) {
			t.Fatalf("var %d: weight %v vs %v", v, a.Weight(v), b.Weight(v))
		}
	}
	pa, pb := a.Probs(), b.Probs()
	for i := range pa {
		if math.Float64bits(pa[i]) != math.Float64bits(pb[i]) {
			t.Fatalf("prob[%d]: %v vs %v", i, pa[i], pb[i])
		}
	}
}

func roundTrip(t *testing.T, db *Database) *Database {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(db.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var snap DatabaseSnapshot
	if err := gob.NewDecoder(&buf).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	back, err := FromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// TestSnapshotRoundTripProperty: gob snapshot round-trips preserve tuples,
// variables and weights exactly — including negative-weight NV tuples from
// the MarkoView translation and tombstones left by deletes.
func TestSnapshotRoundTripProperty(t *testing.T) {
	rounds := 60
	if testing.Short() {
		rounds = 10
	}
	for seed := 0; seed < rounds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		db := randMutatedDB(rng)
		back := roundTrip(t, db)
		assertSameDatabase(t, db, back)
		// Round-tripping the restored copy must be a fixed point.
		assertSameDatabase(t, back, roundTrip(t, back))
	}
}

// FuzzSnapshotRoundTrip drives the same property from fuzzed seeds, so the
// fuzzer explores mutation interleavings beyond the fixed property sweep.
func FuzzSnapshotRoundTrip(f *testing.F) {
	for _, s := range []int64{0, 1, 42, 1 << 40} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		db := randMutatedDB(rand.New(rand.NewSource(seed)))
		assertSameDatabase(t, db, roundTrip(t, db))
	})
}
