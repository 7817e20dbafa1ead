package engine

import (
	"math"
	"testing"
)

func TestCreateRelationErrors(t *testing.T) {
	db := NewDatabase()
	if _, err := db.CreateRelation("R", false, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateRelation("R", false, "a"); err == nil {
		t.Error("duplicate relation accepted")
	}
	if _, err := db.CreateRelation("S", false); err == nil {
		t.Error("zero-column relation accepted")
	}
	if _, err := db.CreateRelation("T", false, "a", "a"); err == nil {
		t.Error("duplicate column accepted")
	}
}

func TestInsertAndVars(t *testing.T) {
	db := NewDatabase()
	db.MustCreateRelation("R", false, "a")
	db.MustCreateRelation("D", true, "a", "b")

	v1 := db.MustInsert("R", 1.0, Int(1))
	v2 := db.MustInsert("R", 3.0, Int(2))
	if v1 != 1 || v2 != 2 {
		t.Fatalf("vars = %d,%d want 1,2", v1, v2)
	}
	if db.NumVars() != 2 {
		t.Fatalf("NumVars = %d", db.NumVars())
	}
	rel, tup, err := db.VarTuple(v2)
	if err != nil || rel != "R" || !tup.Vals[0].Equal(Int(2)) {
		t.Fatalf("VarTuple(%d) = %s %v %v", v2, rel, tup, err)
	}
	if p := db.Prob(v1); math.Abs(p-0.5) > 1e-12 {
		t.Errorf("Prob(v1)=%v want 0.5", p)
	}
	if p := db.Prob(v2); math.Abs(p-0.75) > 1e-12 {
		t.Errorf("Prob(v2)=%v want 0.75", p)
	}

	if err := db.InsertDet("D", Int(1), Str("x")); err != nil {
		t.Fatal(err)
	}
	if db.NumVars() != 2 {
		t.Error("deterministic insert consumed a variable")
	}
	// Deterministic relation rejects weighted insert.
	if _, err := db.Insert("D", 0.5, Int(2), Str("y")); err == nil {
		t.Error("weighted insert into deterministic relation accepted")
	}
	// But accepts weight=Deterministic through Insert.
	if _, err := db.Insert("D", Deterministic, Int(2), Str("y")); err != nil {
		t.Error(err)
	}
}

func TestInsertErrors(t *testing.T) {
	db := NewDatabase()
	db.MustCreateRelation("R", false, "a", "b")
	if _, err := db.Insert("Nope", 1, Int(1), Int(2)); err == nil {
		t.Error("insert into unknown relation accepted")
	}
	if _, err := db.Insert("R", 1, Int(1)); err == nil {
		t.Error("arity mismatch accepted")
	}
	db.MustInsert("R", 1, Int(1), Int(2))
	if _, err := db.Insert("R", 2, Int(1), Int(2)); err == nil {
		t.Error("duplicate tuple accepted")
	}
}

func TestProbsVector(t *testing.T) {
	db := NewDatabase()
	db.MustCreateRelation("R", false, "a")
	db.MustInsert("R", 1.0, Int(1))  // p = 0.5
	db.MustInsert("R", -0.5, Int(2)) // p = -1 (negative probability)
	ps := db.Probs()
	if len(ps) != 3 {
		t.Fatalf("len(Probs)=%d", len(ps))
	}
	if math.Abs(ps[1]-0.5) > 1e-12 || math.Abs(ps[2]+1) > 1e-12 {
		t.Errorf("Probs = %v", ps)
	}
}

func TestMatchingIndexes(t *testing.T) {
	db := NewDatabase()
	db.MustCreateRelation("R", false, "a", "b")
	db.MustInsert("R", 1, Int(1), Int(10))
	db.MustInsert("R", 1, Int(2), Int(20))
	db.MustInsert("R", 1, Int(1), Int(30))
	r := db.Relation("R")
	got := positions(r.Match(0, Int(1)))
	if len(got) != 2 {
		t.Fatalf("Match = %v", got)
	}
	// Index stays consistent after further inserts.
	db.MustInsert("R", 1, Int(1), Int(40))
	got = positions(r.Match(0, Int(1)))
	if len(got) != 3 {
		t.Fatalf("Match after insert = %v", got)
	}
	if got = positions(r.Match(1, Int(20))); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Match col1 = %v", got)
	}
	if got = positions(r.Match(0, Int(99))); len(got) != 0 {
		t.Fatalf("Match missing value = %v", got)
	}
}

func TestStats(t *testing.T) {
	db := NewDatabase()
	db.MustCreateRelation("R", false, "a")
	db.MustCreateRelation("D", true, "a")
	db.MustInsert("R", 1, Int(1))
	db.MustInsertDet("D", Int(1))
	db.MustInsertDet("D", Int(2))
	st := db.Stats()
	if len(st) != 2 || st[0].Relation != "R" || st[0].Tuples != 1 || st[1].Tuples != 2 || !st[1].Deterministic {
		t.Errorf("Stats = %+v", st)
	}
}

func TestVarRefRange(t *testing.T) {
	db := NewDatabase()
	db.MustCreateRelation("R", false, "a")
	db.MustInsert("R", 1, Int(1))
	if _, err := db.VarRef(0); err == nil {
		t.Error("VarRef(0) accepted")
	}
	if _, err := db.VarRef(2); err == nil {
		t.Error("VarRef(2) accepted")
	}
	if _, err := db.VarRef(1); err != nil {
		t.Error(err)
	}
}

func TestClone(t *testing.T) {
	db := NewDatabase()
	db.MustCreateRelation("R", false, "a")
	v := db.MustInsert("R", 1, Int(1))
	c := db.Clone()
	// Mutating the clone must not affect the original.
	c.MustCreateRelation("S", false, "b")
	c.MustInsert("S", 2, Int(9))
	c.Relation("R").Tuples[0].Weight = 9
	if db.Relation("S") != nil {
		t.Error("clone leaked relation into original")
	}
	if db.Weight(v) != 1 {
		t.Error("clone leaked weight change")
	}
	if c.NumVars() != 2 || db.NumVars() != 1 {
		t.Errorf("vars: clone=%d orig=%d", c.NumVars(), db.NumVars())
	}
	if c.Relation("R").Lookup([]Value{Int(1)}) != 0 {
		t.Error("clone lost lookup index")
	}
}

func TestSortedIndexAndRangeScan(t *testing.T) {
	db := NewDatabase()
	db.MustCreateRelation("P", true, "y")
	for _, y := range []int64{2008, 2001, 2015, 2001, -3} {
		// duplicate 2001 would collide; vary via second column
		_ = y
	}
	db2 := NewDatabase()
	db2.MustCreateRelation("P", true, "pid", "y")
	years := []int64{2008, 2001, 2015, 2003, 1999}
	for i, y := range years {
		db2.MustInsertDet("P", Int(int64(i)), Int(y))
	}
	r := db2.Relation("P")
	ix := r.SortedIndex(1)
	prev := int64(-1 << 62)
	for _, ti := range ix {
		y := r.Tuples[ti].Vals[1].Int
		if y < prev {
			t.Fatalf("not sorted: %v", ix)
		}
		prev = y
	}
	lo := Int(2001)
	got := r.RangeScan(1, &lo, false, nil, false) // y > 2001
	if len(got) != 3 {
		t.Errorf("y > 2001: %d tuples", len(got))
	}
	got = r.RangeScan(1, &lo, true, nil, false) // y >= 2001
	if len(got) != 4 {
		t.Errorf("y >= 2001: %d tuples", len(got))
	}
	hi := Int(2008)
	got = r.RangeScan(1, &lo, true, &hi, false) // 2001 <= y < 2008
	if len(got) != 2 {
		t.Errorf("range: %d tuples", len(got))
	}
	if got = r.RangeScan(1, &hi, false, &lo, false); got != nil {
		t.Errorf("empty range returned %v", got)
	}
	// Staleness: insert then re-scan.
	db2.MustInsertDet("P", Int(99), Int(2002))
	got = r.RangeScan(1, &lo, true, &hi, false)
	if len(got) != 3 {
		t.Errorf("after insert: %d tuples", len(got))
	}
}
