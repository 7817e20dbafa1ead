package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// TestConcurrentIndexBuild races goroutines on the first probes of fresh
// relations: every column's hash index is built lazily by whichever reader
// gets there first and then read without a lock, so under -race this checks
// the publication, and every probe must still see the full bucket in tuple
// order.
func TestConcurrentIndexBuild(t *testing.T) {
	const goroutines = 8
	for round := 0; round < 20; round++ {
		db := NewDatabase()
		db.MustCreateRelation("M", false, "i", "s", "mixed")
		for k := 0; k < 200; k++ {
			mixed := Int(int64(k % 5))
			if k%3 == 0 {
				mixed = Str(fmt.Sprint(k % 5))
			}
			db.MustInsert("M", 1, Int(int64(k%17)), Str(fmt.Sprintf("s%d", k%11)), mixed)
		}
		r := db.Relation("M")
		probes := []struct {
			col int
			v   Value
		}{
			{0, Int(3)}, {0, Int(16)}, {0, Int(99)},
			{1, Str("s4")}, {1, Str("none")}, {1, Int(4)},
			{2, Int(2)}, {2, Str("2")}, {2, Str("x")},
		}
		want := make([][]int, len(probes))
		for i, p := range probes {
			for pos, tup := range r.Tuples {
				if tup.Vals[p.col].Equal(p.v) {
					want[i] = append(want[i], pos)
				}
			}
		}
		var wg sync.WaitGroup
		errs := make(chan string, goroutines*len(probes))
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := range probes {
					i := (k + g) % len(probes) // stagger so each column's first probe varies
					if got := positions(r.Match(probes[i].col, probes[i].v)); !slices.Equal(got, want[i]) {
						errs <- fmt.Sprintf("col %d value %v: got %v want %v", probes[i].col, probes[i].v, got, want[i])
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatal(e)
		}
	}
}

// TestIndexPatchedInPlace checks that inserts and deletes after a column's
// index is built keep every bucket holding exactly the positions a fresh
// scan finds (a delete's swap-remove re-points one entry in place, so the
// order within a bucket is not checked).
func TestIndexPatchedInPlace(t *testing.T) {
	db := NewDatabase()
	db.MustCreateRelation("M", false, "a", "b", "key")
	for k := 0; k < 30; k++ {
		db.MustInsert("M", 1, Int(int64(k%4)), Str(fmt.Sprint(k%3)), Int(int64(k)))
	}
	r := db.Relation("M")
	check := func(step string) {
		t.Helper()
		for col, vals := range [][]Value{{Int(0), Int(1), Int(2), Int(3), Int(9)}, {Str("0"), Str("1"), Str("2"), Int(0)}} {
			for _, v := range vals {
				var want []int
				for pos, tup := range r.Tuples {
					if tup.Vals[col].Equal(v) {
						want = append(want, pos)
					}
				}
				got := positions(r.Match(col, v))
				slices.Sort(got)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: col %d value %v: got %v want %v", step, col, v, got, want)
				}
			}
		}
	}
	check("built")
	for k := 0; k < 10; k++ {
		if _, err := db.DeleteTuple("M", append([]Value(nil), r.Tuples[(k*7)%r.Len()].Vals...)); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("delete %d", k))
		db.MustInsert("M", 1, Int(int64(k%4)), Str(fmt.Sprint(k%5)), Int(int64(100+k)))
		check(fmt.Sprintf("insert %d", k))
	}
}

// positions walks a Matches into a slice, in index order.
func positions(m Matches) []int {
	var out []int
	for p := m.First(); p >= 0; p = m.Next(p) {
		out = append(out, p)
	}
	if len(out) != m.Len() {
		panic(fmt.Sprintf("walk visits %d positions, Len says %d", len(out), m.Len()))
	}
	return out
}

// modelTuple is a tuple of the naive model TestTablesAgainstModel checks the
// key table and column indexes against: stamp is the tuple's insertion
// number, which a swap-remove carries along to the tuple's new position.
type modelTuple struct {
	vals   []Value
	weight float64
	stamp  int
}

// TestTablesAgainstModel runs random insert, delete, reweight and lookup
// sequences over int and string values, through keys of one to three
// columns, against a naive model: a slice the model swap-removes like the
// engine does, scanned on every question. After every operation Lookup and
// HasTuple must answer what the scan answers, and each column's walk must
// list the scan's positions for the value in insertion order (the column
// indexes are built before the first delete, so that is the chain order,
// with a moved tuple keeping its place). Every few operations a Clone and a
// FromSnapshot(Snapshot()) must answer the same, their freshly built walks
// listing the positions in ascending order.
func TestTablesAgainstModel(t *testing.T) {
	// Few distinct values, so keys repeat and chains grow long; Int(1) and
	// Str("1") share a spelling but not a kind.
	domain := []Value{Int(0), Int(1), Int(-7), Int(1 << 40), Str("1"), Str(""), Str("ab"), Str("a\x00b")}
	for arity := 1; arity <= 3; arity++ {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed*10 + int64(arity)))
			cols := []string{"a", "b", "c"}[:arity]
			db := NewDatabase()
			db.MustCreateRelation("R", false, cols...)
			r := db.Relation("R")
			var model []modelTuple
			stamp := 0
			randVals := func() []Value {
				vals := make([]Value, arity)
				for i := range vals {
					vals[i] = domain[rng.Intn(len(domain))]
				}
				return vals
			}
			find := func(vals []Value) int {
				for i, m := range model {
					if slices.EqualFunc(m.vals, vals, Value.Equal) {
						return i
					}
				}
				return -1
			}
			// check compares a relation with the model; byStamp selects the
			// live chain order (by stamp) over a fresh build's (by position).
			check := func(step string, db *Database, byStamp bool) {
				t.Helper()
				r := db.Relation("R")
				if r.Len() != len(model) {
					t.Fatalf("arity %d seed %d %s: %d tuples, model %d", arity, seed, step, r.Len(), len(model))
				}
				for i, m := range model {
					if tp := r.Tuples[i]; !slices.EqualFunc(tp.Vals, m.vals, Value.Equal) || tp.Weight != m.weight {
						t.Fatalf("arity %d seed %d %s: position %d holds %v w=%v, model %v w=%v", arity, seed, step, i, tp.Vals, tp.Weight, m.vals, m.weight)
					}
				}
				for k := 0; k < 20; k++ {
					vals := randVals()
					if got, want := r.Lookup(vals), find(vals); got != want {
						t.Fatalf("arity %d seed %d %s: Lookup%v = %d, model %d", arity, seed, step, FormatTuple(vals), got, want)
					}
					if got, want := db.HasTuple("R", vals), find(vals) >= 0; got != want {
						t.Fatalf("arity %d seed %d %s: HasTuple%v = %v, model %v", arity, seed, step, FormatTuple(vals), got, want)
					}
				}
				for i, m := range model {
					if got := r.Lookup(m.vals); got != i {
						t.Fatalf("arity %d seed %d %s: Lookup%v = %d, model %d", arity, seed, step, FormatTuple(m.vals), got, i)
					}
				}
				for col := range cols {
					for _, v := range domain {
						var want []int
						for i, m := range model {
							if m.vals[col].Equal(v) {
								want = append(want, i)
							}
						}
						if byStamp {
							slices.SortFunc(want, func(a, b int) int { return model[a].stamp - model[b].stamp })
						}
						if got := positions(r.Match(col, v)); !slices.Equal(got, want) {
							t.Fatalf("arity %d seed %d %s: column %d value %v walks %v, model %v", arity, seed, step, col, v, got, want)
						}
					}
				}
			}
			for op := 0; op < 400; op++ {
				vals := randVals()
				at := find(vals)
				if len(model) > 0 && rng.Intn(2) == 0 {
					at = rng.Intn(len(model)) // aim at a present tuple half the time
					vals = slices.Clone(model[at].vals)
				}
				var step string
				var err error
				wantErr := at < 0 // deletes and reweights of absent tuples fail
				switch k := rng.Intn(10); {
				case op < 20 || k < 4:
					step = fmt.Sprintf("op %d insert%v", op, FormatTuple(vals))
					wantErr = at >= 0 // duplicates fail
					w := float64(rng.Intn(9) + 1)
					_, err = db.Insert("R", w, vals...)
					if at < 0 {
						model = append(model, modelTuple{vals: vals, weight: w, stamp: stamp})
						stamp++
					}
				case k < 7:
					step = fmt.Sprintf("op %d delete%v", op, FormatTuple(vals))
					_, err = db.DeleteTuple("R", vals)
					if at >= 0 {
						last := len(model) - 1
						model[at] = model[last]
						model = model[:last]
					}
				default:
					step = fmt.Sprintf("op %d reweight%v", op, FormatTuple(vals))
					w := float64(rng.Intn(9) + 1)
					_, err = db.UpdateWeight("R", vals, w)
					if at >= 0 {
						model[at].weight = w
					}
				}
				if (err != nil) != wantErr {
					t.Fatalf("arity %d seed %d %s: err %v, want an error %v", arity, seed, step, err, wantErr)
				}
				// The first check builds every column index, before any delete.
				check(step, db, true)
				if op%25 == 24 {
					clone := db.Clone()
					check(step+" clone", clone, false)
					if len(model) > 0 {
						if _, err := clone.DeleteTuple("R", model[0].vals); err != nil || r.Lookup(model[0].vals) != 0 {
							t.Fatalf("arity %d seed %d %s: a delete on the clone (err %v) reached the original", arity, seed, step, err)
						}
					}
					back, err := FromSnapshot(db.Snapshot())
					if err != nil {
						t.Fatalf("arity %d seed %d %s: restore: %v", arity, seed, step, err)
					}
					check(step+" restored", back, false)
				}
			}
		}
	}
}
