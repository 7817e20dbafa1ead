package obdd

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"mvdb/internal/engine"
)

// Edge cases of the Π machinery in order.go that the compile tests never
// reach: empty relations, single-tuple blocks, and duplicate attribute
// values across relations.

func TestTupleOrderEmptyRelation(t *testing.T) {
	db := engine.NewDatabase()
	db.MustCreateRelation("Empty", false, "a")
	db.MustCreateRelation("R", false, "a")
	db.MustInsert("R", 0.5, engine.Int(1))

	order := TupleOrder(db, IdentityPerm(db))
	if len(order) != 1 {
		t.Fatalf("order = %v, want exactly the single R tuple", order)
	}

	// A database with only empty probabilistic relations orders nothing.
	db2 := engine.NewDatabase()
	db2.MustCreateRelation("Empty", false, "a")
	if order := TupleOrder(db2, IdentityPerm(db2)); len(order) != 0 {
		t.Fatalf("order over empty relation = %v", order)
	}

	// Fully deterministic databases are skipped entirely.
	db3 := engine.NewDatabase()
	db3.MustCreateRelation("Det", true, "a")
	db3.MustInsertDet("Det", engine.Int(7))
	if order := TupleOrder(db3, IdentityPerm(db3)); len(order) != 0 {
		t.Fatalf("order over deterministic relation = %v", order)
	}
}

func TestTupleOrderSingleTupleBlocks(t *testing.T) {
	// Every separator value appears exactly once: Π degenerates to plain
	// lexicographic order and every block is a single tuple.
	db := engine.NewDatabase()
	db.MustCreateRelation("R", false, "s", "x")
	for s := int64(5); s >= 1; s-- { // inserted in reverse to catch sort bugs
		db.MustInsert("R", 0.5, engine.Int(s), engine.Int(100+s))
	}
	order := TupleOrder(db, IdentityPerm(db))
	if len(order) != 5 {
		t.Fatalf("order = %v", order)
	}
	r := db.Relation("R")
	prev := ""
	for _, v := range order {
		ref, err := db.VarRef(v)
		if err != nil {
			t.Fatal(err)
		}
		key := r.Tuples[ref.Pos].Vals[0].String()
		if prev != "" && key <= prev {
			t.Fatalf("single-tuple blocks out of order: %s after %s", key, prev)
		}
		prev = key
	}
}

func TestTupleOrderDuplicateValuesAcrossRelations(t *testing.T) {
	// Two relations share identical permuted keys; ties must break by arity
	// first (smaller arity earlier), then by relation name — deterministic
	// regardless of insertion order.
	db := engine.NewDatabase()
	db.MustCreateRelation("B", false, "a", "b")
	db.MustCreateRelation("A", false, "a", "b")
	db.MustCreateRelation("S", false, "a")
	vB := db.MustInsert("B", 0.5, engine.Int(1), engine.Int(2))
	vA := db.MustInsert("A", 0.5, engine.Int(1), engine.Int(2))
	vS := db.MustInsert("S", 0.5, engine.Int(1))

	order := TupleOrder(db, IdentityPerm(db))
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
	// S(1) is a strict prefix of A(1,2)/B(1,2) → first; then A before B by
	// relation name (equal arity).
	if order[0] != vS || order[1] != vA || order[2] != vB {
		t.Fatalf("order = %v, want [%d %d %d]", order, vS, vA, vB)
	}
}

func TestTupleOrderDuplicateKeysWithinRelation(t *testing.T) {
	// Identical permuted keys inside one relation (duplicate attribute values
	// under a projection permutation): ties break by tuple position, so the
	// order stays stable and deterministic.
	db := engine.NewDatabase()
	db.MustCreateRelation("R", false, "s", "x")
	v1 := db.MustInsert("R", 0.5, engine.Int(1), engine.Int(10))
	v2 := db.MustInsert("R", 0.5, engine.Int(1), engine.Int(20))
	v3 := db.MustInsert("R", 0.5, engine.Int(1), engine.Int(30))

	// Permutation that keys only on the (duplicated) first attribute value
	// is not expressible — Perm is a bijection — so use the s-first identity
	// where all three share the same first value.
	pi := Perm{"R": []int{0, 1}}
	if err := pi.Validate(db); err != nil {
		t.Fatal(err)
	}
	order := TupleOrder(db, pi)
	if order[0] != v1 || order[1] != v2 || order[2] != v3 {
		t.Fatalf("order = %v, want stable [%d %d %d]", order, v1, v2, v3)
	}
}

func TestPermValidateEdgeCases(t *testing.T) {
	db := engine.NewDatabase()
	db.MustCreateRelation("R", false, "a", "b")
	for _, bad := range []Perm{
		{"Nope": []int{0}},  // unknown relation
		{"R": []int{0}},     // wrong length
		{"R": []int{0, 0}},  // not a bijection
		{"R": []int{0, 2}},  // out of range
		{"R": []int{-1, 0}}, // negative
	} {
		if err := bad.Validate(db); err == nil {
			t.Errorf("Perm %v validated", bad)
		}
	}
	if err := (Perm{"R": []int{1, 0}}).Validate(db); err != nil {
		t.Errorf("valid perm rejected: %v", err)
	}
}

// TestWriteDotGolden pins the DOT export byte for byte on a small OBDD so
// documentation renders stay reproducible.
func TestWriteDotGolden(t *testing.T) {
	m := NewManager([]int{1, 2})
	f := m.Or(m.Var(1), m.Var(2)) // x1 ∨ x2

	var b strings.Builder
	if err := m.WriteDot(&b, f, "or2", nil); err != nil {
		t.Fatal(err)
	}
	want := `digraph "or2" {
  rankdir=TB;
  f [shape=box,label="0"]; t [shape=box,label="1"];
  { rank=same; n4; }
  n4 [label="x1"];
  n4 -> n3 [style=dashed];
  n4 -> t;
  { rank=same; n3; }
  n3 [label="x2"];
  n3 -> f [style=dashed];
  n3 -> t;
}
`
	if got := b.String(); got != want {
		t.Fatalf("DOT drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// Custom labeler and terminal root.
	var b2 strings.Builder
	if err := m.WriteDot(&b2, True, "t", func(v int) string { return "var" }); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b2.String(), "root -> t;") {
		t.Fatalf("terminal root missing root arrow:\n%s", b2.String())
	}
}

// diffByVar lists, with their variables, the tuples whose variable differs
// between a database and its in-place mutation b (deleted, inserted, or
// deleted and re-inserted) — the changed list the delta translator returns.
func diffByVar(a, b *engine.Database) []ChangedTuple {
	var out []ChangedTuple
	for _, name := range a.Relations() {
		ra, rb := a.Relation(name), b.Relation(name)
		for _, t := range ra.Tuples {
			if i := rb.Lookup(t.Vals); i < 0 || rb.Tuples[i].Var != t.Var {
				out = append(out, ChangedTuple{Rel: name, Vals: t.Vals, Var: t.Var})
			}
		}
		for _, t := range rb.Tuples {
			if i := ra.Lookup(t.Vals); i < 0 || ra.Tuples[i].Var != t.Var {
				out = append(out, ChangedTuple{Rel: name, Vals: t.Vals, Var: t.Var})
			}
		}
	}
	return out
}

// TestPatchOrderEqualsTupleOrder: patching the static Π order of the old
// database with the changed tuples gives exactly the Π order of the mutated
// one — through a variable map, and in place from the changed tuples'
// variables alone, where the level tables must also agree with the order.
func TestPatchOrderEqualsTupleOrder(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(700 + seed))
		n := 4 + rng.Int63n(10)
		db := randSepDB(rng, n)
		pi := IdentityPerm(db)
		old := TupleOrder(db, pi)
		ord := NewManager(old)
		for batch := 0; batch < 4; batch++ {
			newDB := mutateSepDB(rng, db, n)
			got := PatchOrder(NewManager(old), testVarMap(db, newDB), newDB, pi, diffByKey(db, newDB)).Order()
			want := TupleOrder(newDB, pi)
			if !reflect.DeepEqual(got, want) && (len(got) != 0 || len(want) != 0) {
				t.Fatalf("seed %d batch %d: patched %v, sorted %v", seed, batch, got, want)
			}
			ord = PatchOrder(ord, nil, newDB, pi, diffByVar(db, newDB))
			if o := ord.Order(); !reflect.DeepEqual(o, want) && (len(o) != 0 || len(want) != 0) {
				t.Fatalf("seed %d batch %d: patched in place %v, sorted %v", seed, batch, o, want)
			}
			for v := 0; v <= newDB.NumVars(); v++ {
				if l := ord.Level(v); (l >= 0) != newDB.Alive(v) || l >= 0 && ord.VarAtLevel(l) != v {
					t.Fatalf("seed %d batch %d: variable %d at level %d", seed, batch, v, l)
				}
			}
			db, old = newDB, got
		}
	}
}

// TestPatchOrderLearnedOrder: under a learned (block-locally permuted) order
// survivors keep their relative order, a tuple listed twice is inserted once,
// and a new tuple lands inside its own separator-value region.
func TestPatchOrderLearnedOrder(t *testing.T) {
	db := engine.NewDatabase()
	db.MustCreateRelation("S", false, "a", "b")
	var vars [3][3]int
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			vars[a][b] = db.MustInsert("S", 0.5, engine.Int(int64(10*(a+1))), engine.Int(int64(b)))
		}
	}
	// Each value's three variables reversed: sifted inside the block windows.
	var learned []int
	for a := 0; a < 3; a++ {
		learned = append(learned, vars[a][2], vars[a][1], vars[a][0])
	}
	gone := []engine.Value{engine.Int(10), engine.Int(1)}
	if _, err := db.DeleteTuple("S", gone); err != nil {
		t.Fatal(err)
	}
	fresh := []engine.Value{engine.Int(20), engine.Int(7)}
	v := db.MustInsert("S", 0.5, fresh...)
	identity := func(x int) (int, bool) {
		_, err := db.VarRef(x)
		return x, err == nil
	}
	got := PatchOrder(NewManager(learned), identity, db, IdentityPerm(db), []ChangedTuple{
		{Rel: "S", Vals: gone}, {Rel: "S", Vals: fresh}, {Rel: "S", Vals: fresh},
	}).Order()
	if len(got) != 9 {
		t.Fatalf("patched order %v: want 9 variables", got)
	}
	at := -1
	var rest []int
	for i, x := range got {
		if x == v {
			at = i
		} else {
			rest = append(rest, x)
		}
	}
	want := []int{vars[0][2], vars[0][0], vars[1][2], vars[1][1], vars[1][0], vars[2][2], vars[2][1], vars[2][0]}
	if !reflect.DeepEqual(rest, want) {
		t.Fatalf("survivors reordered: %v, want %v", rest, want)
	}
	if at < 2 || at > 5 {
		t.Fatalf("new variable at position %d of %v, outside its value's region [2,5]", at, got)
	}
}
