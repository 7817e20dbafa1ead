package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"mvdb/internal/budget"
	"mvdb/internal/engine"
	"mvdb/internal/ucq"
)

// budgetMVDB builds a chain-structured MVDB large enough for node budgets to
// bite: n students with 1-2 advisor candidates and one weighted view.
func budgetMVDB(n int64, seed int64) *MVDB {
	rng := rand.New(rand.NewSource(seed))
	db := engine.NewDatabase()
	db.MustCreateRelation("Adv", false, "s", "a")
	for s := int64(1); s <= n; s++ {
		db.MustInsert("Adv", 0.5+rng.Float64(), engine.Int(s), engine.Int(100+s))
		if rng.Intn(2) == 0 {
			db.MustInsert("Adv", 0.5+rng.Float64(), engine.Int(s), engine.Int(200+s))
		}
	}
	m := New(db)
	v, err := ParseView("V(s) :- Adv(s,a)", ConstWeight(2.5))
	if err != nil {
		panic(err)
	}
	if err := m.AddView(v); err != nil {
		panic(err)
	}
	return m
}

func TestQueryContextDeadline(t *testing.T) {
	m := budgetMVDB(10, 41)
	q := ucq.MustParse("Q(s) :- Adv(s,a)")
	past := budget.Budget{Deadline: time.Now().Add(-time.Second)}
	for _, meth := range []Method{MethodOBDD, MethodDPLL} {
		tr, err := m.Translate(TranslateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		_, err = tr.QueryContext(context.Background(), q, meth, past)
		if !errors.Is(err, budget.ErrCanceled) {
			t.Errorf("%v: err = %v, want ErrCanceled", meth, err)
		}
	}
}

func TestQueryContextCancel(t *testing.T) {
	m := budgetMVDB(10, 43)
	tr, err := m.Translate(TranslateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := ucq.MustParse("Q(s) :- Adv(s,a)")
	if _, err := tr.QueryContext(ctx, q, MethodOBDD, budget.Budget{}); !errors.Is(err, budget.ErrCanceled) {
		t.Errorf("canceled ctx: err = %v, want ErrCanceled", err)
	}
}

// TestQueryContextNodeBudget: a starved MaxNodes aborts compiling W with
// ErrBudgetExceeded, caches nothing, and a later generous call on the same
// Translation succeeds with the same answers as the unbounded path.
func TestQueryContextNodeBudget(t *testing.T) {
	m := budgetMVDB(14, 47)
	q := ucq.MustParse("Q(s) :- Adv(s,a)")

	ref, err := m.Translate(TranslateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Query(q, MethodOBDD)
	if err != nil {
		t.Fatal(err)
	}

	tr, err := m.Translate(TranslateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = tr.QueryContext(context.Background(), q, MethodOBDD, budget.Budget{MaxNodes: 4})
	if !errors.Is(err, budget.ErrBudgetExceeded) {
		t.Fatalf("MaxNodes=4: err = %v, want ErrBudgetExceeded", err)
	}
	got, err := tr.QueryContext(context.Background(), q, MethodOBDD, budget.Budget{MaxNodes: 1 << 22})
	if err != nil {
		t.Fatalf("generous budget after starved attempt: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("answers: %d want %d", len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i].Prob-want[i].Prob) > 1e-12 {
			t.Errorf("answer %d: P = %v want %v", i, got[i].Prob, want[i].Prob)
		}
	}
	// The shared manager must be disarmed between queries.
	if st := tr.obdd; st == nil || st.m.Budgeted() {
		t.Error("shared manager left armed after a budgeted query")
	}
}

func TestProbBooleanContextDeadline(t *testing.T) {
	m := budgetMVDB(8, 53)
	tr, err := m.Translate(TranslateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q := ucq.MustParse("Q() :- Adv(s,a)")
	past := budget.Budget{Deadline: time.Now().Add(-time.Second)}
	if _, err := tr.ProbBooleanContext(context.Background(), q.UCQ, MethodOBDD, past); !errors.Is(err, budget.ErrCanceled) {
		t.Errorf("expired deadline: err = %v, want ErrCanceled", err)
	}
	// Unbounded evaluation on the same Translation still works.
	if _, err := tr.ProbBoolean(q.UCQ, MethodOBDD); err != nil {
		t.Errorf("unbounded after bounded failure: %v", err)
	}
}

// TestAnswerRowsStopsBetweenAnswers: the loop runs on the caller, in row
// order, and a cancellation that arrives while one answer is computed stops
// the query before the next; nothing partial comes back.
func TestAnswerRowsStopsBetweenAnswers(t *testing.T) {
	rows := []ucq.AnswerRow{
		{Head: []engine.Value{engine.Int(1)}},
		{Head: []engine.Value{engine.Int(2)}},
		{Head: []engine.Value{engine.Int(3)}},
	}
	var seen []int64
	prob := func(r ucq.AnswerRow) (float64, error) {
		seen = append(seen, r.Head[0].Int)
		return float64(r.Head[0].Int) / 10, nil
	}
	out, err := AnswerRows(nil, time.Time{}, rows, prob)
	if err != nil || len(out) != 3 || out[0].Prob != 0.1 || out[2].Prob != 0.3 || out[1].Head[0].Int != 2 {
		t.Fatalf("unbounded: %v, %v", out, err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	seen = nil
	out, err = AnswerRows(ctx, time.Time{}, rows, func(r ucq.AnswerRow) (float64, error) {
		cancel()
		return prob(r)
	})
	if !errors.Is(err, budget.ErrCanceled) || out != nil {
		t.Errorf("canceled during the first answer: %v, %v; want nil, ErrCanceled", out, err)
	}
	if len(seen) != 1 || seen[0] != 1 {
		t.Errorf("answers computed after the cancellation: %v, want [1]", seen)
	}
}
