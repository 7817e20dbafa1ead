package mvindex

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"mvdb/internal/budget"
	"mvdb/internal/ucq"
)

// TestIntersectPairBudget: a pair-visit budget far below the traversal's real
// cost aborts with ErrBudgetExceeded, in both the map-memo and the
// cache-conscious layout; a generous budget returns the exact answer.
func TestIntersectPairBudget(t *testing.T) {
	m := chainMVDB(16, 21)
	_, ix := buildIndex(t, m)
	q := ucq.MustParse("Q() :- Adv(s,a)")

	want, err := ix.ProbBoolean(q.UCQ, IntersectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, cc := range []bool{false, true} {
		_, err := ix.ProbBoolean(q.UCQ, IntersectOptions{
			CacheConscious: cc,
			Budget:         budget.Budget{MaxPairs: 2},
		})
		if !errors.Is(err, budget.ErrBudgetExceeded) {
			t.Errorf("cc=%v MaxPairs=2: err = %v, want ErrBudgetExceeded", cc, err)
		}
		got, err := ix.ProbBoolean(q.UCQ, IntersectOptions{
			CacheConscious: cc,
			Budget:         budget.Budget{MaxPairs: 1 << 20},
		})
		if err != nil {
			t.Errorf("cc=%v generous budget: %v", cc, err)
		} else if math.Abs(got-want) > 1e-12 {
			t.Errorf("cc=%v budgeted P = %v, want %v", cc, got, want)
		}
	}
}

// TestQueryNodeBudget: MaxNodes bounds the per-answer query-OBDD synthesis in
// the scratch manager without touching the shared frozen manager.
func TestQueryNodeBudget(t *testing.T) {
	m := chainMVDB(16, 33)
	_, ix := buildIndex(t, m)
	q := ucq.MustParse("Q() :- Adv(s,a)")
	_, err := ix.ProbBoolean(q.UCQ, IntersectOptions{Budget: budget.Budget{MaxNodes: 2}})
	if !errors.Is(err, budget.ErrBudgetExceeded) {
		t.Errorf("MaxNodes=2: err = %v, want ErrBudgetExceeded", err)
	}
	if ix.Manager().Budgeted() {
		t.Error("shared manager armed by a budgeted query")
	}
}

// TestQueryDeadline: an expired deadline fails fast with ErrCanceled.
func TestQueryDeadline(t *testing.T) {
	m := chainMVDB(12, 7)
	_, ix := buildIndex(t, m)
	q := ucq.MustParse("Q(s) :- Adv(s,a)")
	past := budget.Budget{Deadline: time.Now().Add(-time.Second)}
	if _, err := ix.Query(q, IntersectOptions{Budget: past}); !errors.Is(err, budget.ErrCanceled) {
		t.Errorf("err = %v, want ErrCanceled", err)
	}
}

// TestQueryCancelContext: canceling the context mid-query aborts with
// ErrCanceled rather than finishing all answers.
func TestQueryCancelContext(t *testing.T) {
	m := chainMVDB(12, 13)
	_, ix := buildIndex(t, m)
	q := ucq.MustParse("Q(s) :- Adv(s,a)")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ix.Query(q, IntersectOptions{Ctx: ctx}); !errors.Is(err, budget.ErrCanceled) {
		t.Errorf("err = %v, want ErrCanceled", err)
	}
}

// TestExplainAndMarginalBudget pins the budget plumbing of the two remaining
// read-path entry points.
func TestExplainAndMarginalBudget(t *testing.T) {
	m := chainMVDB(16, 3)
	tr, ix := buildIndex(t, m)
	q := ucq.MustParse("Q() :- Adv(s,a)")
	if _, err := ix.ExplainBoolean(q.UCQ, IntersectOptions{Budget: budget.Budget{MaxPairs: 2}}); !errors.Is(err, budget.ErrBudgetExceeded) {
		t.Errorf("ExplainBoolean MaxPairs=2: err = %v, want ErrBudgetExceeded", err)
	}
	ex, err := ix.ExplainBoolean(q.UCQ, IntersectOptions{Budget: budget.Budget{MaxPairs: 1 << 20}})
	if err != nil {
		t.Errorf("ExplainBoolean generous: %v", err)
	} else if ex.PairsVisited == 0 {
		t.Error("ExplainBoolean generous: no pairs visited")
	}

	tup := tr.DB.Relation("Adv").Tuples[0]
	want, err := ix.TupleMarginal(tup.Var, IntersectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.TupleMarginal(tup.Var, IntersectOptions{Budget: budget.Budget{MaxPairs: 1}}); !errors.Is(err, budget.ErrBudgetExceeded) {
		t.Errorf("TupleMarginal MaxPairs=1: err = %v, want ErrBudgetExceeded", err)
	}
	got, err := ix.TupleMarginal(tup.Var, IntersectOptions{Budget: budget.Budget{MaxPairs: 1 << 20}})
	if err != nil || math.Abs(got-want) > 1e-12 {
		t.Errorf("TupleMarginal generous: got %v, %v; want %v", got, err, want)
	}
}

// TestBudgetIsolation: a budget-starved query racing unbudgeted queries on
// the same frozen index must not perturb them — guards and scratch managers
// are strictly per call. Run with -race.
func TestBudgetIsolation(t *testing.T) {
	m := chainMVDB(16, 29)
	_, ix := buildIndex(t, m)
	q := ucq.MustParse("Q() :- Adv(s,a)")
	want, err := ix.ProbBoolean(q.UCQ, IntersectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				if i%2 == 0 {
					_, err := ix.ProbBoolean(q.UCQ, IntersectOptions{
						CacheConscious: j%2 == 0,
						Budget:         budget.Budget{MaxPairs: 2},
					})
					if !errors.Is(err, budget.ErrBudgetExceeded) {
						errs <- errf("starved query: err = %v, want ErrBudgetExceeded", err)
					}
					continue
				}
				got, err := ix.ProbBoolean(q.UCQ, IntersectOptions{CacheConscious: j%2 == 0})
				if err != nil {
					errs <- errf("unbudgeted query: %v", err)
				} else if math.Abs(got-want) > 1e-12 {
					errs <- errf("unbudgeted query perturbed: P = %v, want %v", got, want)
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
