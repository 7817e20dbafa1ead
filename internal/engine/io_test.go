package engine

import (
	"bytes"
	"strings"
	"testing"
)

func TestDatabaseRoundTrip(t *testing.T) {
	db := NewDatabase()
	db.MustCreateRelation("R", false, "a", "b")
	db.MustCreateRelation("D", true, "n")
	v1 := db.MustInsert("R", 2.5, Int(1), Str("x"))
	db.MustInsert("R", -0.5, Int(2), Str("y")) // negative weight survives
	db.MustInsertDet("D", Str("name"))

	back := roundTrip(t, db)
	if back.NumVars() != 2 {
		t.Fatalf("vars = %d", back.NumVars())
	}
	if w := back.Weight(v1); w != 2.5 {
		t.Errorf("weight = %v", w)
	}
	if back.Weight(2) != -0.5 {
		t.Errorf("negative weight lost: %v", back.Weight(2))
	}
	r := back.Relation("R")
	if r.Lookup([]Value{Int(1), Str("x")}) != 0 {
		t.Error("lookup index broken after load")
	}
	if got := positions(r.Match(0, Int(2))); len(got) != 1 {
		t.Error("column index broken after load")
	}
	if !back.Relation("D").Deterministic {
		t.Error("determinism lost")
	}
	// Further inserts keep working.
	if _, err := back.Insert("R", 1, Int(3), Str("z")); err != nil {
		t.Fatal(err)
	}
	if back.NumVars() != 3 {
		t.Error("var counter broken after load")
	}
}

// TestExportCSV: a probabilistic relation exports a trailing weight field,
// a deterministic one none, and an unknown relation is an error.
func TestExportCSV(t *testing.T) {
	db := NewDatabase()
	db.MustCreateRelation("Author", true, "aid", "name")
	db.MustCreateRelation("Adv", false, "s", "a")
	db.MustInsertDet("Author", Int(1), Str("Alice"))
	db.MustInsertDet("Author", Int(2), Str("Bob"))
	db.MustInsert("Adv", 1.5, Int(1), Int(2))
	db.MustInsert("Adv", 0.25, Int(2), Int(1))

	var buf bytes.Buffer
	if err := db.ExportCSV("Adv", &buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "1,2,1.5\n2,1,0.25\n" {
		t.Errorf("export = %q", got)
	}
	buf.Reset()
	if err := db.ExportCSV("Author", &buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "1,Alice\n2,Bob\n" {
		t.Errorf("export = %q", got)
	}
	if err := db.ExportCSV("Nope", &bytes.Buffer{}); err == nil {
		t.Error("ExportCSV unknown relation accepted")
	}
}

// TestFromSnapshotRejectsBadTuples: a snapshot whose relation holds a tuple
// twice, or a tuple of the wrong arity, is refused with an error naming the
// relation, instead of restoring a relation whose Lookup finds the second
// copy or whose first column probe indexes past the tuple's values.
func TestFromSnapshotRejectsBadTuples(t *testing.T) {
	for name, tuples := range map[string][]Tuple{
		"duplicate":   {{Vals: []Value{Int(1), Int(2)}, Var: 1, Weight: 1}, {Vals: []Value{Int(1), Int(2)}, Var: 2, Weight: 1}},
		"short tuple": {{Vals: []Value{Int(1), Int(2)}, Var: 1, Weight: 1}, {Vals: []Value{Int(1)}, Var: 2, Weight: 1}},
		"long tuple":  {{Vals: []Value{Int(1), Int(2), Int(3)}, Var: 1, Weight: 1}},
	} {
		s := DatabaseSnapshot{
			Relations: []RelationSnapshot{{Name: "Rel", Cols: []string{"a", "b"}, Tuples: tuples}},
		}
		for i := range tuples {
			s.Vars = append(s.Vars, VarRef{Rel: "Rel", Pos: i})
		}
		db, err := FromSnapshot(s)
		if err == nil || !strings.Contains(err.Error(), "Rel") {
			t.Errorf("%s: err = %v, want an error naming relation Rel", name, err)
		}
		if db != nil {
			t.Errorf("%s: a database restored beside the error", name)
		}
	}
}

// TestRelationSizeBound: positions are int32, so a relation refuses the
// tuple past its bound, on insert and on restore alike.
func TestRelationSizeBound(t *testing.T) {
	defer func(n int) { maxTuples = n }(maxTuples)
	maxTuples = 3
	db := NewDatabase()
	db.MustCreateRelation("R", true, "a")
	for k := 0; k < 3; k++ {
		db.MustInsertDet("R", Int(int64(k)))
	}
	if err := db.InsertDet("R", Int(3)); err == nil || !strings.Contains(err.Error(), "R") {
		t.Fatalf("insert past the bound: err = %v", err)
	}
	s := db.Snapshot()
	if _, err := FromSnapshot(s); err != nil {
		t.Fatalf("restore at the bound: %v", err)
	}
	s.Relations[0].Tuples = append(s.Relations[0].Tuples, Tuple{Vals: []Value{Int(3)}, Weight: Deterministic})
	if _, err := FromSnapshot(s); err == nil {
		t.Fatal("restore past the bound accepted")
	}
}
