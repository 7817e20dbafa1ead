package bench

import (
	"errors"
	"fmt"
	"time"

	"mvdb/internal/baseline"
	"mvdb/internal/core"
	"mvdb/internal/dblp"
	"mvdb/internal/lift"
	"mvdb/internal/mvindex"
	"mvdb/internal/ucq"
)

// AblationEntryShortcut quantifies the contribution of the MV-index's
// reachability entry shortcut and probUnder cutoff (Section 4.3): the same
// single-block query is answered with the shortcut on and off, for both
// intersection layouts.
func AblationEntryShortcut(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	t := &Table{
		ID:      "ablate-entry",
		Title:   "ablation: reachability entry shortcut on vs off (single-block query)",
		Columns: []string{"aid domain", "with-shortcut(s)", "no-shortcut(s)", "speedup"},
	}
	for _, n := range opts.Domains {
		d, _, tr, err := pipeline(n, opts.Seed, "123")
		if err != nil {
			return nil, err
		}
		ix, err := buildIndex(tr)
		if err != nil {
			return nil, err
		}
		s := d.Students[len(d.Students)/2]
		q := dblp.QueryAdvisorOfStudent(s)
		const reps = 10
		measure := func(o mvindex.IntersectOptions) (time.Duration, error) {
			if _, err := ix.Query(q, o); err != nil {
				return 0, err
			}
			t0 := time.Now()
			for i := 0; i < reps; i++ {
				if _, err := ix.Query(q, o); err != nil {
					return 0, err
				}
			}
			return time.Since(t0) / reps, nil
		}
		on, err := measure(mvindex.IntersectOptions{CacheConscious: true})
		if err != nil {
			return nil, err
		}
		off, err := measure(mvindex.IntersectOptions{CacheConscious: true, NoEntryShortcut: true})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), seconds(on), seconds(off), fmt.Sprintf("%.1fx", off.Seconds()/on.Seconds()),
		})
		t.addSeries("domain", float64(n))
		t.addSeries("with", on.Seconds())
		t.addSeries("without", off.Seconds())
	}
	return t, nil
}

// MethodsCompare runs the same Boolean query through every exact evaluation
// method on the translated database — the engineering trade-off behind the
// paper's choice of OBDD compilation: lifted plans are fastest when they
// exist, the MV-index is fast and general, DPLL is general but
// per-query-exponential in the worst case.
func MethodsCompare(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	t := &Table{
		ID:      "methods",
		Title:   "exact methods on the same query: mv-index vs obdd vs dpll vs lifted",
		Columns: []string{"aid domain", "mv-index(s)", "obdd-cached(s)", "dpll(s)", "lifted"},
	}
	for _, n := range opts.Domains {
		d, _, tr, err := pipeline(n, opts.Seed, "12")
		if err != nil {
			return nil, err
		}
		ix, err := buildIndex(tr)
		if err != nil {
			return nil, err
		}
		s := d.Students[len(d.Students)/2]
		q := dblp.QueryAdvisorOfStudent(s)
		b := ucq.UCQ{Disjuncts: q.Disjuncts} // Boolean: head variable becomes existential

		t0 := time.Now()
		pIx, err := ix.ProbBoolean(b, mvindex.IntersectOptions{CacheConscious: true})
		if err != nil {
			return nil, err
		}
		dIx := time.Since(t0)

		// The obdd-cached leg times synthesis against an already compiled W.
		ev := baseline.New(tr)
		if _, _, err := ev.OBDD(); err != nil {
			return nil, err
		}
		t0 = time.Now()
		pOb, err := ev.ProbBoolean(b, baseline.OBDD)
		if err != nil {
			return nil, err
		}
		dOb := time.Since(t0)

		t0 = time.Now()
		pDp, err := ev.ProbBoolean(b, baseline.DPLL)
		if err != nil {
			return nil, err
		}
		dDp := time.Since(t0)

		lifted := "unsafe"
		t0 = time.Now()
		if pLf, err := ev.ProbBoolean(b, baseline.Lifted); err == nil {
			lifted = fmt.Sprintf("%.6fs", time.Since(t0).Seconds())
			if diff(pLf, pIx) > 1e-9 {
				return nil, fmt.Errorf("bench: lifted %v disagrees with index %v", pLf, pIx)
			}
		} else if !errors.Is(err, lift.ErrUnsafe) {
			return nil, err
		}
		if diff(pIx, pOb) > 1e-9 || diff(pIx, pDp) > 1e-9 {
			return nil, fmt.Errorf("bench: methods disagree: index %v obdd %v dpll %v", pIx, pOb, pDp)
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(n), seconds(dIx), seconds(dOb), seconds(dDp), lifted})
		t.addSeries("domain", float64(n))
		t.addSeries("mv-index", dIx.Seconds())
		t.addSeries("obdd", dOb.Seconds())
		t.addSeries("dpll", dDp.Seconds())
	}
	return t, nil
}

func diff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}

// Marginals measures the paper's motivating workload — reading off the
// corrected marginal of every probabilistic tuple (the inferred advisor /
// affiliation relations) — using the one-pass augmented-OBDD formula of
// Section 4.1.
func Marginals(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	t := &Table{
		ID:      "marginals",
		Title:   "all-tuple corrected marginals (one pass over the MV-index)",
		Columns: []string{"aid domain", "tuples", "time(s)", "avg |Δ| on constrained", "max boost"},
	}
	for _, n := range opts.Domains {
		_, _, tr, err := pipeline(n, opts.Seed, "123")
		if err != nil {
			return nil, err
		}
		ix, err := buildIndex(tr)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		marg, err := ix.AllTupleMarginals()
		if err != nil {
			return nil, err
		}
		el := time.Since(t0)
		probs := tr.DB.Probs()
		sumDelta, constrained, maxBoost := 0.0, 0, 0.0
		for v := 1; v < len(marg); v++ {
			if tr.IsNVVar(v) {
				continue // internal bookkeeping tuples, not facts
			}
			d := marg[v] - probs[v]
			if d != 0 {
				constrained++
				if d < 0 {
					sumDelta -= d
				} else {
					sumDelta += d
				}
				if d > maxBoost {
					maxBoost = d
				}
			}
		}
		avg := 0.0
		if constrained > 0 {
			avg = sumDelta / float64(constrained)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(len(marg) - 1), seconds(el),
			fmt.Sprintf("%.4f", avg), fmt.Sprintf("%.4f", maxBoost),
		})
		t.addSeries("domain", float64(n))
		t.addSeries("time", el.Seconds())
		t.addSeries("avgdelta", avg)
	}
	return t, nil
}

// Exactness cross-checks the MV-index against exhaustive Definition 4
// enumeration on micro datasets and reports the maximum absolute error —
// the "all probability computations are exact" claim of Section 5.4 made
// measurable. Errors are floating-point only (~1e-15).
func Exactness(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	t := &Table{
		ID:      "exactness",
		Title:   "MV-index vs exhaustive enumeration (micro datasets)",
		Columns: []string{"seed", "tuple vars", "queries", "max |error|"},
	}
	for seed := int64(1); seed <= 5; seed++ {
		d, err := dblp.Generate(dblp.Config{NumAuthors: 4, AdvisorEvery: 2, Seed: seed, SecondAdvisorPct: 100})
		if err != nil {
			return nil, err
		}
		if d.DB.NumVars() > 20 {
			continue
		}
		m, err := d.MVDB()
		if err != nil {
			return nil, err
		}
		tr, err := m.Translate(core.TranslateOptions{})
		if err != nil {
			return nil, err
		}
		ix, err := buildIndex(tr)
		if err != nil {
			return nil, err
		}
		maxErr, queries := 0.0, 0
		for _, s := range d.Students {
			q := dblp.QueryAdvisorOfStudent(s)
			rows, err := ix.Query(q, mvindex.IntersectOptions{CacheConscious: true})
			if err != nil {
				return nil, err
			}
			for _, r := range rows {
				b, err := q.Bind(r.Head)
				if err != nil {
					return nil, err
				}
				want, err := baseline.ProbExact(m, b)
				if err != nil {
					return nil, err
				}
				queries++
				if e := diff(r.Prob, want); e > maxErr {
					maxErr = e
				}
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(seed), fmt.Sprint(d.DB.NumVars()), fmt.Sprint(queries), fmt.Sprintf("%.2e", maxErr),
		})
		t.addSeries("maxerr", maxErr)
	}
	if len(t.Rows) == 0 {
		return nil, fmt.Errorf("bench: no micro dataset small enough for enumeration")
	}
	return t, nil
}
