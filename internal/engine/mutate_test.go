package engine

import (
	"math"
	"math/rand"
	"testing"
)

func TestDeleteTupleTombstone(t *testing.T) {
	db := NewDatabase()
	db.MustCreateRelation("R", false, "a", "b")
	v1 := db.MustInsert("R", 0.5, Int(1), Int(10))
	v2 := db.MustInsert("R", 1.5, Int(2), Int(20))
	v3 := db.MustInsert("R", 2.5, Int(3), Int(30))

	freed, err := db.DeleteTuple("R", []Value{Int(1), Int(10)})
	if err != nil {
		t.Fatal(err)
	}
	if freed != v1 {
		t.Fatalf("freed var %d, want %d", freed, v1)
	}
	if db.Relation("R").Len() != 2 {
		t.Fatalf("len = %d, want 2", db.Relation("R").Len())
	}
	if _, err := db.VarRef(v1); err == nil {
		t.Fatal("VarRef of deleted var must error")
	}
	if w := db.Weight(v1); w != 0 {
		t.Fatalf("weight of deleted var = %v, want 0", w)
	}
	// The swap moved v3's tuple into slot 0; the registry must follow.
	ref, err := db.VarRef(v3)
	if err != nil {
		t.Fatal(err)
	}
	if got := db.Relation("R").Tuples[ref.Pos]; got.Var != v3 || !got.Vals[0].Equal(Int(3)) {
		t.Fatalf("moved tuple mismatch: %+v", got)
	}
	if db.Weight(v2) != 1.5 || db.Weight(v3) != 2.5 {
		t.Fatal("surviving weights changed")
	}
	// Hash index must have been invalidated: lookups see the new layout.
	if got := positions(db.Relation("R").Match(0, Int(1))); len(got) != 0 {
		t.Fatalf("stale index: %v", got)
	}
	if got := positions(db.Relation("R").Match(0, Int(3))); len(got) != 1 {
		t.Fatalf("index after delete: %v", got)
	}
	// Deleting again fails; the key is gone.
	if _, err := db.DeleteTuple("R", []Value{Int(1), Int(10)}); err == nil {
		t.Fatal("double delete must error")
	}
	// Probs stays well-formed with the dead entry zeroed.
	ps := db.Probs()
	if ps[v1] != 0 {
		t.Fatalf("dead prob = %v", ps[v1])
	}
	// Re-inserting the same values allocates a fresh variable.
	v4 := db.MustInsert("R", 0.25, Int(1), Int(10))
	if v4 == v1 {
		t.Fatal("variable id reused after delete")
	}
}

func TestUpdateWeight(t *testing.T) {
	db := NewDatabase()
	db.MustCreateRelation("R", false, "a")
	db.MustCreateRelation("D", true, "a")
	v := db.MustInsert("R", 0.5, Int(1))
	db.MustInsertDet("D", Int(1))
	if _, err := db.UpdateWeight("R", []Value{Int(1)}, -3); err != nil {
		t.Fatal(err)
	}
	if db.Weight(v) != -3 {
		t.Fatalf("weight = %v", db.Weight(v))
	}
	if _, err := db.UpdateWeight("R", []Value{Int(2)}, 1); err == nil {
		t.Fatal("missing tuple must error")
	}
	if _, err := db.UpdateWeight("D", []Value{Int(1)}, 1); err == nil {
		t.Fatal("deterministic relation must error")
	}
	if _, err := db.UpdateWeight("R", []Value{Int(1)}, math.NaN()); err == nil {
		t.Fatal("NaN weight must error")
	}
}

// randMutatedDB builds a random database — deterministic and probabilistic
// relations, int and string values, negative NV-style and +Inf weights — and
// applies a random interleaving of inserts, deletes and reweights so the
// variable registry contains tombstones and swapped positions.
func randMutatedDB(rng *rand.Rand) *Database {
	db := NewDatabase()
	db.MustCreateRelation("R", false, "a", "b")
	db.MustCreateRelation("S", false, "a")
	db.MustCreateRelation("NV_V1", false, "a", "b")
	db.MustCreateRelation("Det", true, "a")
	randWeight := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return -1 - rng.Float64()*4 // negative NV weight (view weight > 1)
		case 1:
			return rng.Float64() * 3
		case 2:
			return math.Inf(1)
		default:
			return rng.Float64() * 10
		}
	}
	randVal := func() Value {
		if rng.Intn(3) == 0 {
			return Str(string(rune('a' + rng.Intn(26))))
		}
		return Int(rng.Int63n(40))
	}
	type key struct {
		rel  string
		vals [2]Value
		n    int
	}
	var live []key
	for step := 0; step < 200; step++ {
		switch op := rng.Intn(10); {
		case op < 6 || len(live) == 0: // insert
			rel := []string{"R", "S", "NV_V1", "Det"}[rng.Intn(4)]
			n := 2
			if rel == "S" || rel == "Det" {
				n = 1
			}
			k := key{rel: rel, n: n}
			for i := 0; i < n; i++ {
				k.vals[i] = randVal()
			}
			vals := append([]Value(nil), k.vals[:n]...)
			if rel == "Det" {
				if !db.HasTuple(rel, vals) {
					db.MustInsertDet(rel, vals...)
					live = append(live, k)
				}
			} else if !db.HasTuple(rel, vals) {
				db.MustInsert(rel, randWeight(), vals...)
				live = append(live, k)
			}
		case op < 8: // delete
			i := rng.Intn(len(live))
			k := live[i]
			if _, err := db.DeleteTuple(k.rel, k.vals[:k.n]); err != nil {
				panic(err)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		default: // reweight
			i := rng.Intn(len(live))
			k := live[i]
			if k.rel == "Det" {
				continue
			}
			if _, err := db.UpdateWeight(k.rel, k.vals[:k.n], randWeight()); err != nil {
				panic(err)
			}
		}
	}
	return db
}
