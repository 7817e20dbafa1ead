package engine

import (
	"fmt"
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
					if got := r.MatchingIndexes(probes[i].col, probes[i].v); !slices.Equal(got, want[i]) {
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
				got := slices.Clone(r.MatchingIndexes(col, v))
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
