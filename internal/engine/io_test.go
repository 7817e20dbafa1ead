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

	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDatabase(&buf)
	if err != nil {
		t.Fatal(err)
	}
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

func TestReadDatabaseCorrupt(t *testing.T) {
	if _, err := ReadDatabase(strings.NewReader("not gob")); err == nil {
		t.Error("corrupt stream accepted")
	}
}

func TestImportExportCSV(t *testing.T) {
	db := NewDatabase()
	db.MustCreateRelation("Author", true, "aid", "name")
	db.MustCreateRelation("Adv", false, "s", "a")

	n, err := db.ImportCSV("Author", strings.NewReader("aid,name\n1,Alice\n2,Bob\n"),
		[]CSVColumn{CSVInt, CSVString}, true)
	if err != nil || n != 2 {
		t.Fatalf("import det: %d, %v", n, err)
	}
	n, err = db.ImportCSV("Adv", strings.NewReader("1,2,1.5\n2,1,0.25\n"),
		[]CSVColumn{CSVInt, CSVInt}, false)
	if err != nil || n != 2 {
		t.Fatalf("import prob: %d, %v", n, err)
	}
	if db.Weight(1) != 1.5 || db.Weight(2) != 0.25 {
		t.Errorf("weights = %v %v", db.Weight(1), db.Weight(2))
	}

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
	if !strings.Contains(buf.String(), "1,Alice") {
		t.Errorf("export = %q", buf.String())
	}
}

func TestImportCSVErrors(t *testing.T) {
	db := NewDatabase()
	db.MustCreateRelation("R", false, "a")
	cases := []struct {
		rel, data string
		cols      []CSVColumn
	}{
		{"Nope", "1,1\n", []CSVColumn{CSVInt}},
		{"R", "1\n", []CSVColumn{CSVInt}},            // missing weight field
		{"R", "x,1\n", []CSVColumn{CSVInt}},          // bad int
		{"R", "1,notaweight\n", []CSVColumn{CSVInt}}, // bad weight
		{"R", "1,1\n", []CSVColumn{CSVInt, CSVInt}},  // wrong kinds arity
	}
	for _, c := range cases {
		if _, err := db.ImportCSV(c.rel, strings.NewReader(c.data), c.cols, false); err == nil {
			t.Errorf("ImportCSV(%q, %q) accepted", c.rel, c.data)
		}
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
