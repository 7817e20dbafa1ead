package obdd

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"mvdb/internal/budget"
	"mvdb/internal/ucq"
)

func TestCompileNodeBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db := randSepDB(rng, 24)
	q := ucq.MustParse("Q() :- R(x), S(x,y)").UCQ
	sep, _ := q.FindSeparator()
	pi := SeparatorFirstPerm(db, sep)

	// Unlimited compile succeeds and tells us the real node count.
	var m *Manager
	var err error
	atProcs(1, func() { m, _, _, err = Compile(db, q, pi, CompileOptions{}) })
	if err != nil {
		t.Fatal(err)
	}
	full := m.NumNodes()
	if full < 8 {
		t.Skipf("instance too small (%d nodes)", full)
	}

	for _, par := range []int{1, 4} {
		var err, err2 error
		var m2 *Manager
		var f2 NodeID
		atProcs(par, func() {
			_, _, _, err = Compile(db, q, pi, CompileOptions{
				Budget: budget.Budget{MaxNodes: full / 2},
			})
			// A generous budget must not interfere.
			m2, f2, _, err2 = Compile(db, q, pi, CompileOptions{
				Budget: budget.Budget{MaxNodes: 100 * full},
			})
		})
		if !errors.Is(err, budget.ErrBudgetExceeded) {
			t.Errorf("par=%d: MaxNodes=%d on a %d-node compile: err = %v, want ErrBudgetExceeded",
				par, full/2, full, err)
		}
		if err := err2; err != nil {
			t.Errorf("par=%d: generous budget failed: %v", par, err)
		} else if m2.lim != nil {
			t.Errorf("par=%d: manager still armed after compile", par)
		} else if m2.IsTerminal(f2) {
			t.Errorf("par=%d: unexpected terminal result", par)
		}
	}
}

func TestCompileDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := randSepDB(rng, 16)
	q := ucq.MustParse("Q() :- R(x), S(x,y)").UCQ
	sep, _ := q.FindSeparator()
	pi := SeparatorFirstPerm(db, sep)
	_, _, _, err := Compile(db, q, pi, CompileOptions{
		Budget: budget.Budget{Deadline: time.Now().Add(-time.Second)},
	})
	if !errors.Is(err, budget.ErrCanceled) {
		t.Errorf("expired deadline: err = %v, want ErrCanceled", err)
	}
}

// TestCompileFaultInjection pins the test-only block hook: failing at the
// Nth block aborts the compile with exactly that error, sequentially and on
// four workers.
func TestCompileFaultInjection(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := randSepDB(rng, 12)
	q := ucq.MustParse("Q() :- R(x), S(x,y)").UCQ
	sep, _ := q.FindSeparator()
	pi := SeparatorFirstPerm(db, sep)
	boom := fmt.Errorf("injected fault")
	for _, par := range []int{1, 4} {
		var err error
		atProcs(par, func() {
			_, _, _, err = Compile(db, q, pi, CompileOptions{
				blockHook: func(block int) error {
					if block == 2 {
						return boom
					}
					return nil
				},
			})
		})
		if !errors.Is(err, boom) {
			t.Errorf("par=%d: err = %v, want the injected fault", par, err)
		}
	}
}

// TestCompileCancelMidCompile stalls the compiler at a fixed block until the
// caller cancels the context, proving the compile loops observe cancellation
// mid-flight (not only at entry) and return ErrCanceled.
func TestCompileCancelMidCompile(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	db := randSepDB(rng, 12)
	q := ucq.MustParse("Q() :- R(x), S(x,y)").UCQ
	sep, _ := q.FindSeparator()
	pi := SeparatorFirstPerm(db, sep)
	for _, par := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		reached := make(chan struct{})
		var once sync.Once
		go func() {
			<-reached
			cancel()
		}()
		var err error
		atProcs(par, func() {
			_, _, _, err = Compile(db, q, pi, CompileOptions{
				Ctx: ctx,
				blockHook: func(block int) error {
					if block == 1 {
						once.Do(func() { close(reached) })
						<-ctx.Done() // stall until the caller cancels
					}
					return nil
				},
			})
		})
		cancel()
		if !errors.Is(err, budget.ErrCanceled) {
			t.Errorf("par=%d: err = %v, want ErrCanceled", par, err)
		}
	}
}

// TestParallelCancelNoLeak hammers cancellation of parallel compiles under
// -race: every iteration stalls a worker mid-compile, cancels, and checks the
// compile returns ErrCanceled. Afterwards the goroutine count must return to
// its baseline — no worker may outlive a canceled compile.
func TestParallelCancelNoLeak(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	db := randSepDB(rng, 20)
	q := ucq.MustParse("Q() :- R(x), S(x,y)").UCQ
	sep, _ := q.FindSeparator()
	pi := SeparatorFirstPerm(db, sep)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	baseline := runtime.NumGoroutine()
	for i := 0; i < 25; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		reached := make(chan struct{})
		var once sync.Once
		go func() {
			<-reached
			cancel()
		}()
		_, _, _, err := Compile(db, q, pi, CompileOptions{
			Ctx: ctx,
			blockHook: func(block int) error {
				if block == 1 {
					once.Do(func() { close(reached) })
					<-ctx.Done()
				}
				return nil
			},
		})
		cancel()
		if !errors.Is(err, budget.ErrCanceled) {
			t.Fatalf("iteration %d: err = %v, want ErrCanceled", i, err)
		}
	}
	// Workers exit before Compile returns (the owner waits on the group), so
	// only the canceller goroutines may still be draining; give them a beat.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline+2 {
		t.Errorf("goroutines leaked: baseline %d, now %d", baseline, n)
	}
}

// TestScratchInheritsBudget: a scratch manager created from an armed manager
// shares the allocation counter, so the budget bounds the total.
func TestScratchInheritsBudget(t *testing.T) {
	m := NewManager([]int{1, 2, 3, 4, 5, 6, 7, 8})
	m.SetBudget(nil, budget.Budget{MaxNodes: 6})
	s := m.NewScratch()
	err := budget.Catch(func() {
		for v := 1; v <= 8; v++ {
			m.Var(v)
			s.Var(v)
		}
	})
	if !errors.Is(err, budget.ErrBudgetExceeded) {
		t.Errorf("shared counter: err = %v, want ErrBudgetExceeded", err)
	}
	// Disarmed managers allocate freely again.
	m.SetBudget(nil, budget.Budget{})
	if err := budget.Catch(func() {
		for v := 1; v <= 8; v++ {
			m.Var(v)
		}
	}); err != nil {
		t.Errorf("disarmed manager still budgeted: %v", err)
	}
}

// TestSetBudgetRearmKeepsSharedCounter: re-arming an armed manager must keep
// the allocation counter shared with scratch managers created under the old
// budget, so their allocations still count toward the new limit.
func TestSetBudgetRearmKeepsSharedCounter(t *testing.T) {
	m := NewManager([]int{1, 2, 3, 4, 5, 6, 7, 8})
	m.SetBudget(nil, budget.Budget{MaxNodes: 1 << 20})
	s := m.NewScratch()
	for v := 1; v <= 5; v++ {
		s.Var(v)
	}
	// Tighten the budget below what the scratch has already consumed plus a
	// few more allocations. A re-arm that resets the counter would let the
	// main manager allocate 4 fresh nodes without tripping.
	m.SetBudget(nil, budget.Budget{MaxNodes: 8})
	err := budget.Catch(func() {
		for v := 1; v <= 4; v++ {
			m.Var(v)
		}
	})
	if !errors.Is(err, budget.ErrBudgetExceeded) {
		t.Errorf("re-armed budget ignored scratch allocations: err = %v, want ErrBudgetExceeded", err)
	}
	// And the scratch armed under the old budget keeps counting too: its own
	// limit still reflects the budget it inherited, but the counter is live.
	if got := m.lim.nodes.Load(); got <= 7 {
		t.Errorf("shared counter = %d, want > 7 (scratch + main allocations)", got)
	}
}
