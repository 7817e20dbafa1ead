package baseline

import (
	"sync"
	"testing"

	"mvdb/internal/core"
	"mvdb/internal/engine"
	"mvdb/internal/ucq"
)

// example1 translates the MVDB of Example 1: Tup = {R(a), S(a)} with
// weights w1, w2 and one MarkoView V(x)[w] :- R(x), S(x).
func example1(t *testing.T, w1, w2, w float64) *core.Translation {
	t.Helper()
	db := engine.NewDatabase()
	db.MustCreateRelation("R", false, "x")
	db.MustCreateRelation("S", false, "x")
	db.MustInsert("R", w1, engine.Int(1))
	db.MustInsert("S", w2, engine.Int(1))
	m := core.New(db)
	v, err := core.ParseView("V(x) :- R(x), S(x)", core.ConstWeight(w))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddView(v); err != nil {
		t.Fatal(err)
	}
	tr, err := m.Translate(core.TranslateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestConcurrentFirstOBDD: goroutines that race to the first OBDD use of
// one fresh Evaluator compile W once between them, and each gets the value a
// sequential call gives. Run under -race.
func TestConcurrentFirstOBDD(t *testing.T) {
	q := ucq.MustParse("Q() :- R(x), S(x)")
	want, err := New(example1(t, 2, 3, 0.5)).ProbBoolean(q.UCQ, OBDD)
	if err != nil {
		t.Fatal(err)
	}
	e := New(example1(t, 2, 3, 0.5))
	got, errs := make([]float64, 4), make([]error, 4)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g], errs[g] = e.ProbBoolean(q.UCQ, OBDD)
		}()
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil || got[g] != want {
			t.Errorf("goroutine %d: %v, %v; want %v", g, got[g], errs[g], want)
		}
	}
}
