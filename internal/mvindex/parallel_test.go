package mvindex

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"mvdb/internal/core"
	"mvdb/internal/engine"
	"mvdb/internal/obdd"
	"mvdb/internal/ucq"
)

// atProcs runs f with GOMAXPROCS set to n — the width of the compile's
// block fan-out — and restores the previous setting.
func atProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// TestParallelBuildMatchesSequential: an index built from W compiled on four
// workers must be indistinguishable from the sequential reference
// (GOMAXPROCS 1) — same size, width, blocks, and bitwise-equal P0(¬W) — and
// answer queries with the same probabilities under either intersection.
func TestParallelBuildMatchesSequential(t *testing.T) {
	build := func(procs int) *Index {
		tr, err := chainMVDB(12, 42).Translate(core.TranslateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var ix *Index
		atProcs(procs, func() { ix, err = Build(tr) })
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	seq := build(1)
	par := build(4)
	if a, b := seq.Size(), par.Size(); a != b {
		t.Errorf("size: %d vs %d", a, b)
	}
	if a, b := seq.Width(), par.Width(); a != b {
		t.Errorf("width: %d vs %d", a, b)
	}
	if a, b := seq.Blocks(), par.Blocks(); a != b {
		t.Errorf("blocks: %d vs %d", a, b)
	}
	la, sa := seq.LogProbNotW()
	lb, sb := par.LogProbNotW()
	if la != lb || sa != sb {
		t.Errorf("LogProbNotW: (%v,%d) vs (%v,%d) — must be bitwise equal", la, sa, lb, sb)
	}
	q := ucq.MustParse("Q(s) :- Adv(s,a)")
	want, err := seq.Query(q, IntersectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := par.Query(q, IntersectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d vs %d answers", len(got), len(want))
	}
	for i := range got {
		if engine.TupleKey(got[i].Head) != engine.TupleKey(want[i].Head) {
			t.Errorf("answer %d head mismatch", i)
		}
		if math.Abs(got[i].Prob-want[i].Prob) > 1e-12 {
			t.Errorf("answer %d prob %v vs %v", i, got[i].Prob, want[i].Prob)
		}
	}
	checkPointer(t, par, q, got)
}

// TestConcurrentIntersectHammer fires 32 goroutines at one shared index —
// mixing intersectOn, IntersectLineage, ProbBoolean, Query, Explain,
// marginals, and one shared pointer MVIntersect — and checks every call
// returns the same answer its sequential twin did. Run under -race this is
// the shared-read-path safety proof.
func TestConcurrentIntersectHammer(t *testing.T) {
	m := chainMVDB(10, 7)
	tr, ix := buildIndex(t, m)
	qb := ucq.MustParse("Q() :- Adv(3,a)\nQ() :- Adv(7,b)").UCQ
	qn := ucq.MustParse("Q(s) :- Adv(s,a)")

	// Pre-build a query OBDD inside the frozen shared manager, single
	// threaded, so concurrent intersections only read it.
	lin, err := ucq.EvalBoolean(tr.DB, qb)
	if err != nil {
		t.Fatal(err)
	}
	fQ := obdd.BuildDNF(ix.Manager(), lin)

	wantP, err := ix.intersectOn(ix.Manager(), fQ, IntersectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ptr := ix.MVIntersect()
	wantPtr, err := ptr(lin, IntersectOptions{})
	if err != nil || math.Abs(wantPtr-wantP) > 1e-12 {
		t.Fatalf("pointer MVIntersect: %v, %v; CC-MVIntersect %v", wantPtr, err, wantP)
	}
	wantRows, err := ix.Query(qn, IntersectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantM, err := ix.TupleMarginal(1, IntersectOptions{})
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 32
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*8)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				if p, err := ix.intersectOn(ix.Manager(), fQ, IntersectOptions{}); err != nil || p != wantP {
					errs <- errf("intersectOn: p=%v err=%v want %v", p, err, wantP)
				}
				if p, err := ix.IntersectLineage(lin, IntersectOptions{}); err != nil || math.Abs(p-wantP) > 1e-12 {
					errs <- errf("IntersectLineage: p=%v err=%v want %v", p, err, wantP)
				}
				if p, err := ptr(lin, IntersectOptions{}); err != nil || p != wantPtr {
					errs <- errf("pointer MVIntersect: p=%v err=%v want %v", p, err, wantPtr)
				}
				rows, err := ix.Query(qn, IntersectOptions{})
				if err != nil || len(rows) != len(wantRows) {
					errs <- errf("Query: %d rows err=%v want %d", len(rows), err, len(wantRows))
					continue
				}
				for i := range rows {
					if rows[i].Prob != wantRows[i].Prob {
						errs <- errf("Query row %d: %v want %v", i, rows[i].Prob, wantRows[i].Prob)
					}
				}
				if _, err := ix.ExplainLineage(lin, IntersectOptions{}); err != nil {
					errs <- errf("ExplainLineage: %v", err)
				}
				if p, err := ix.TupleMarginal(1, IntersectOptions{}); err != nil || p != wantM {
					errs <- errf("TupleMarginal: p=%v err=%v want %v", p, err, wantM)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func errf(format string, args ...any) error { return fmt.Errorf(format, args...) }
