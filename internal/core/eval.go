package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mvdb/internal/budget"
	"mvdb/internal/engine"
	"mvdb/internal/lift"
	"mvdb/internal/lineage"
	"mvdb/internal/obdd"
	"mvdb/internal/qcache"
	"mvdb/internal/ucq"
	"mvdb/internal/wmc"
)

// bounds bundles the optional cancellation context and resource budget of
// one evaluation. The zero value imposes nothing.
type bounds struct {
	ctx context.Context
	b   budget.Budget
}

func (bo bounds) bounded() bool { return bo.ctx != nil || !bo.b.IsZero() }

func (bo bounds) check() error {
	if !bo.bounded() {
		return nil
	}
	return budget.Check(bo.ctx, bo.b.Deadline)
}

// Method selects how P0 probabilities on the translated INDB are computed.
type Method int

// Evaluation methods.
const (
	// MethodBruteForce enumerates assignments of the combined lineage —
	// exact, exponential, only for small instances and tests.
	MethodBruteForce Method = iota
	// MethodOBDD compiles W once with ConOBDD (cached on the Translation)
	// and synthesizes each query's lineage against it.
	MethodOBDD
	// MethodLifted runs safe-plan lifted inference on W and Q ∨ W; it fails
	// with lift.ErrUnsafe when either query has no safe plan.
	MethodLifted
	// MethodDPLL runs the Davis-Putnam-style weighted model counter on the
	// combined lineage: exact, no compilation, valid for negative
	// probabilities — the MystiQ-style baseline of Section 6.
	MethodDPLL
)

func (m Method) String() string {
	switch m {
	case MethodBruteForce:
		return "brute-force"
	case MethodOBDD:
		return "obdd"
	case MethodLifted:
		return "lifted"
	case MethodDPLL:
		return "dpll"
	}
	return fmt.Sprintf("method(%d)", int(m))
}

// Answer is one output tuple with its marginal probability.
type Answer struct {
	Head []engine.Value
	Prob float64
}

type obddState struct {
	mu    sync.Mutex // serializes query-OBDD synthesis on the shared manager
	m     *obdd.Manager
	fW    obdd.NodeID
	pW    float64
	stats obdd.CompileStats

	// roots memoizes synthesized query-OBDD roots on the shared manager,
	// keyed by the canonical lineage hash: two answers (of the same or of
	// different queries) with the same lineage share one synthesis. Guarded
	// by mu like every other write to the shared manager; roots stay valid
	// forever because the node store is append-only and the Translation is
	// immutable after compilation. Bounded by maxRootMemo.
	roots map[qcache.Key]obdd.NodeID

	// negPending marks a state installed by AttachNegOBDD whose manager, fW
	// and pW have not been derived from notW yet (see resolve).
	negPending atomic.Bool
	notW       func() (*obdd.Manager, obdd.NodeID)
}

// resolve builds the manager and fW = ¬notW, and computes pW, on the first
// use after AttachNegOBDD, under st.mu like every other write to the
// manager.
func (st *obddState) resolve(db *engine.Database) {
	if !st.negPending.Load() {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.negPending.Load() {
		m, notW := st.notW()
		st.m, st.fW = m, m.Not(notW)
		st.pW = m.Prob(st.fW, db.Probs())
		st.negPending.Store(false)
	}
}

// maxRootMemo caps the shared-manager root memo; past it, synthesis still
// runs (hash-consing keeps node growth bounded) but no new roots are
// remembered.
const maxRootMemo = 1 << 16

// ensureOBDD compiles W once, with the separator-first permutation when W
// has a separator, and caches the manager. The Translation must not be
// mutated afterwards.
func (t *Translation) ensureOBDD() (*obddState, error) {
	return t.ensureOBDDBounded(bounds{})
}

// ensureOBDDBounded is ensureOBDD under the given bounds: the compile of W
// honors cancellation and MaxNodes, and a failed compile caches nothing, so
// a later call with a looser budget can still succeed.
func (t *Translation) ensureOBDDBounded(bo bounds) (*obddState, error) {
	if t.obdd != nil {
		t.obdd.resolve(t.DB)
		return t.obdd, nil
	}
	m, fW, stats, err := t.CompileW(obdd.CompileOptions{Ctx: bo.ctx, Budget: bo.b})
	if err != nil {
		return nil, err
	}
	st := &obddState{m: m, fW: fW, stats: stats, roots: map[qcache.Key]obdd.NodeID{}}
	st.pW = m.Prob(fW, t.DB.Probs())
	t.obdd = st
	return st, nil
}

// CompileStats exposes how W was compiled (after ensureOBDD has run).
func (t *Translation) CompileStats() (obdd.CompileStats, error) {
	st, err := t.ensureOBDD()
	if err != nil {
		return obdd.CompileStats{}, err
	}
	return st.stats, nil
}

// WLineage returns the lineage of W on the translated database — the
// quantity plotted in Figure 4.
func (t *Translation) WLineage() (lineage.DNF, error) {
	return ucq.EvalBoolean(t.DB, t.W)
}

// ProbW computes P0(W).
func (t *Translation) ProbW(method Method) (float64, error) {
	if !t.HasConstraints() {
		return 0, nil
	}
	switch method {
	case MethodBruteForce:
		lin, err := t.WLineage()
		if err != nil {
			return 0, err
		}
		return lineage.BruteForceProb(lin, t.DB.Probs())
	case MethodOBDD:
		st, err := t.ensureOBDD()
		if err != nil {
			return 0, err
		}
		return st.pW, nil
	case MethodLifted:
		return lift.Prob(t.DB, t.W)
	case MethodDPLL:
		lin, err := t.WLineage()
		if err != nil {
			return 0, err
		}
		return wmc.Prob(lin, t.DB.Probs()), nil
	}
	return 0, fmt.Errorf("core: unknown method %v", method)
}

// ProbBoolean computes P(Q) for a Boolean query over the original schema via
// Theorem 1.
func (t *Translation) ProbBoolean(q ucq.UCQ, method Method) (float64, error) {
	return t.probBoolean(q, method, bounds{})
}

// ProbBooleanContext is ProbBoolean under a cancellation context and resource
// budget: compiling W (MethodOBDD) and synthesizing the query OBDD observe
// ctx, the deadline, and MaxNodes, failing with errors wrapping
// budget.ErrCanceled or budget.ErrBudgetExceeded. For MethodOBDD, MaxNodes
// bounds the total size of the shared manager (W plus synthesized queries).
// The other methods check the bounds at coarser granularity.
func (t *Translation) ProbBooleanContext(ctx context.Context, q ucq.UCQ, method Method, b budget.Budget) (float64, error) {
	return t.probBoolean(q, method, bounds{ctx: ctx, b: b})
}

func (t *Translation) probBoolean(q ucq.UCQ, method Method, bo bounds) (float64, error) {
	if err := t.checkQuery(q); err != nil {
		return 0, err
	}
	if err := bo.check(); err != nil {
		return 0, err
	}
	if method != MethodLifted {
		lin, err := ucq.EvalBoolean(t.DB, q)
		if err != nil {
			return 0, err
		}
		return t.probFromLineage(lin, method, bo)
	}
	// Lifted: evaluate P0(Q ∨ W) and P0(W) as UCQs.
	pW, err := t.ProbW(method)
	if err != nil {
		return 0, err
	}
	qw := ucq.UCQ{Disjuncts: append(append([]ucq.CQ{}, q.Disjuncts...), t.W.Disjuncts...)}
	pQW, err := lift.Prob(t.DB, qw)
	if err != nil {
		return 0, err
	}
	return theorem1(pQW, pW)
}

// probFromLineage applies Theorem 1 given the query's lineage on the
// translated database.
func (t *Translation) probFromLineage(linQ lineage.DNF, method Method, bo bounds) (float64, error) {
	switch method {
	case MethodBruteForce:
		if !t.HasConstraints() {
			return lineage.BruteForceProb(linQ, t.DB.Probs())
		}
		linW, err := t.WLineage()
		if err != nil {
			return 0, err
		}
		probs := t.DB.Probs()
		pW, err := lineage.BruteForceProb(linW, probs)
		if err != nil {
			return 0, err
		}
		pQW, err := lineage.BruteForceProb(lineage.Or(linQ, linW), probs)
		if err != nil {
			return 0, err
		}
		return theorem1(pQW, pW)
	case MethodOBDD:
		st, err := t.ensureOBDDBounded(bo)
		if err != nil {
			return 0, err
		}
		// Query OBDDs are synthesized on the shared manager (reusing its
		// hash-consing across answers), so concurrent callers serialize
		// here; the other methods run lock-free. Arming the manager is a
		// write, so it happens under the same lock; the bounds apply to this
		// synthesis only and the manager is disarmed before unlocking.
		st.mu.Lock()
		defer st.mu.Unlock()
		if bo.bounded() {
			st.m.SetBudget(bo.ctx, bo.b)
			defer st.m.SetBudget(nil, budget.Budget{})
		}
		// Root memo: answers that share a canonical lineage (within one query
		// or across queries) reuse the synthesized root instead of replaying
		// BuildDNF. Hash-consing means a replay would return the identical
		// NodeID anyway; the memo saves the walk, not just the nodes.
		hi, lo := linQ.Hash()
		rkey := qcache.Key{Hi: hi, Lo: lo}
		var pQW float64
		if err := budget.Catch(func() {
			fQ, memod := st.roots[rkey]
			if !memod {
				fQ = obdd.BuildDNF(st.m, linQ)
				if len(st.roots) < maxRootMemo {
					st.roots[rkey] = fQ
				}
			}
			probs := t.DB.Probs()
			pQW = st.m.Prob(st.m.Or(fQ, st.fW), probs)
		}); err != nil {
			return 0, err
		}
		return theorem1(pQW, st.pW)
	case MethodDPLL:
		if !t.HasConstraints() {
			return wmc.Prob(linQ, t.DB.Probs()), nil
		}
		linW, err := t.WLineage()
		if err != nil {
			return 0, err
		}
		probs := t.DB.Probs()
		s := wmc.NewSolver(probs)
		pW := s.Prob(linW)
		pQW := s.Prob(lineage.Or(linQ, linW))
		return theorem1(pQW, pW)
	}
	return 0, fmt.Errorf("core: method %v cannot evaluate from lineage", method)
}

// theorem1 is Equation 5: P(Q) = (P0(Q∨W) - P0(W)) / (1 - P0(W)).
//
// The subtraction is numerically safe only while P0(¬W) = 1 - P0(W) is well
// above float64 epsilon; past that the global methods lose all precision
// (P0(W) and P0(Q∨W) agree to 16 digits), so they refuse rather than return
// garbage. The MV-index evaluates the equivalent ratio P0(Q∧¬W)/P0(¬W)
// block-locally and has no such limit.
func theorem1(pQW, pW float64) (float64, error) {
	denom := 1 - pW
	if math.Abs(denom) < 1e-300 {
		return 0, fmt.Errorf("core: P0(¬W) = 0 — the MarkoViews are inconsistent (no possible world satisfies them)")
	}
	if math.Abs(denom) < 1e-9 {
		return 0, fmt.Errorf("core: P0(¬W) = %.3g is below the numerical floor of the global methods; use the MV-index (mvindex.Build), which evaluates block-locally", denom)
	}
	return (pQW - pW) / denom, nil
}

// Query evaluates a named query over the MVDB and returns each answer tuple
// with its marginal probability, sorted by head tuple. Tuples whose
// probability is numerically zero are still reported (they are possible
// answers in some world).
func (t *Translation) Query(q *ucq.Query, method Method) ([]Answer, error) {
	return t.queryBounded(q, method, bounds{})
}

// QueryContext is Query under a cancellation context and resource budget.
// Cancellation and the deadline are observed between answers and inside
// MethodOBDD's compile and synthesis steps; MaxNodes bounds the shared
// manager's total size (see ProbBooleanContext). A violation aborts the
// whole query with an error wrapping budget.ErrCanceled or
// budget.ErrBudgetExceeded — no partial answer set is returned.
func (t *Translation) QueryContext(ctx context.Context, q *ucq.Query, method Method, b budget.Budget) ([]Answer, error) {
	return t.queryBounded(q, method, bounds{ctx: ctx, b: b})
}

func (t *Translation) queryBounded(q *ucq.Query, method Method, bo bounds) ([]Answer, error) {
	if err := t.checkQuery(q.UCQ); err != nil {
		return nil, err
	}
	if err := bo.check(); err != nil {
		return nil, err
	}
	rows, err := ucq.Eval(t.DB, q)
	if err != nil {
		return nil, err
	}
	return AnswerRows(bo.ctx, bo.b.Deadline, rows, func(r ucq.AnswerRow) (float64, error) {
		if method == MethodLifted {
			b, err := q.Bind(r.Head)
			if err != nil {
				return 0, err
			}
			return t.probBoolean(b, method, bo)
		}
		return t.probFromLineage(r.Lineage, method, bo)
	})
}

// AnswerRows is the one rows → answers loop, behind Translation.Query and
// mvindex.Index.Query alike: prob runs once per row, in row order, on the
// calling goroutine. A query has two or three answers and each costs at most
// its span (Prop. 3), so there is nothing for a worker pool to win. ctx and
// the deadline (both optional) are checked before every row, so a canceled
// query stops after the current answer; any error aborts the whole query and
// no partial answer set is returned.
func AnswerRows(ctx context.Context, deadline time.Time, rows []ucq.AnswerRow, prob func(ucq.AnswerRow) (float64, error)) ([]Answer, error) {
	out := make([]Answer, len(rows))
	for i, r := range rows {
		if err := budget.Check(ctx, deadline); err != nil {
			return nil, err
		}
		p, err := prob(r)
		if err != nil {
			return nil, err
		}
		out[i] = Answer{Head: r.Head, Prob: p}
	}
	return out, nil
}

// OBDD returns the manager and the OBDD root of W, compiling and caching it
// on first use. The Translation must not be mutated afterwards; callers may
// extend the manager with query OBDDs sharing the same order.
func (t *Translation) OBDD() (*obdd.Manager, obdd.NodeID, error) {
	st, err := t.ensureOBDD()
	if err != nil {
		return nil, obdd.False, err
	}
	return st.m, st.fW, nil
}

// WPerm returns the attribute permutation used to compile W: separator-first
// when W has a (determinism-aware) separator, identity otherwise. Callers
// must not modify it.
func (t *Translation) WPerm() obdd.Perm { return t.perm }

// CompileW compiles W into a fresh manager with the given options — used by
// the Figure 8 construction-time comparison; the cached OBDD path
// (ensureOBDD) is unaffected.
func (t *Translation) CompileW(opts obdd.CompileOptions) (*obdd.Manager, obdd.NodeID, obdd.CompileStats, error) {
	return obdd.Compile(t.DB, t.W, t.WPerm(), opts)
}

// ProbConditional computes P(Q | E) = P(Q ∧ E) / P(E) on the MVDB, both
// probabilities through Theorem 1. It errors when P(E) = 0.
func (t *Translation) ProbConditional(q, e ucq.UCQ, method Method) (float64, error) {
	if err := t.checkQuery(q); err != nil {
		return 0, err
	}
	if err := t.checkQuery(e); err != nil {
		return 0, err
	}
	pE, err := t.ProbBoolean(e, method)
	if err != nil {
		return 0, err
	}
	if pE == 0 {
		return 0, fmt.Errorf("core: conditioning on an impossible event")
	}
	pQE, err := t.ProbBoolean(ucq.Conjoin(q, e), method)
	if err != nil {
		return 0, err
	}
	return pQE / pE, nil
}

// TopK returns the k highest-probability answers (ties broken by head
// tuple), without mutating the input.
func TopK(answers []Answer, k int) []Answer {
	out := append([]Answer(nil), answers...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Prob != out[j].Prob {
			return out[i].Prob > out[j].Prob
		}
		return engine.TupleKey(out[i].Head) < engine.TupleKey(out[j].Head)
	})
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// AttachOBDD installs an externally restored OBDD of W (e.g. from a saved
// MV-index) so evaluation does not recompile it. The manager must use the
// order of WPerm over the same database.
func (t *Translation) AttachOBDD(m *obdd.Manager, fW obdd.NodeID) {
	st := &obddState{m: m, fW: fW, roots: map[qcache.Key]obdd.NodeID{}}
	st.pW = m.Prob(fW, t.DB.Probs())
	t.obdd = st
}

// AttachNegOBDD is AttachOBDD for a caller that can produce the OBDD of ¬W
// — the MV-index — rather than holding W: it costs O(1), and notW, which
// must return a manager of the translation's own (W's nodes and query OBDDs
// are allocated on it), runs on the first evaluation that needs the OBDD;
// W's root and P0(W) are derived from it then. The index re-attaches after
// every maintenance step, so weight changes never leave a stale P0(W).
func (t *Translation) AttachNegOBDD(notW func() (*obdd.Manager, obdd.NodeID)) {
	st := &obddState{notW: notW, roots: map[qcache.Key]obdd.NodeID{}}
	st.negPending.Store(true)
	t.obdd = st
}

// Evidence fixes the truth value of specific probabilistic tuples (by
// Boolean variable id): true asserts presence, false absence.
type Evidence map[int]bool

// ProbGivenTuples computes P(Q | E) on the MVDB, where E asserts the
// presence or absence of probabilistic tuples. Conditioning a
// tuple-independent product measure on tuple values is exactly overriding
// their probabilities with 1 or 0, so the Theorem 1 ratio is evaluated
// under the conditioned probability vector:
//
//	P(Q | E) = P0'(Q ∧ ¬W) / P0'(¬W)
//
// (the conditioning of [17], Koch & Olteanu, specialised to tuple
// evidence). Evaluation uses the DPLL weighted model counter.
func (t *Translation) ProbGivenTuples(q ucq.UCQ, ev Evidence, method Method) (float64, error) {
	if err := t.checkQuery(q); err != nil {
		return 0, err
	}
	probs := t.DB.Probs()
	for v, present := range ev {
		if v < 1 || v >= len(probs) {
			return 0, fmt.Errorf("core: evidence variable %d out of range", v)
		}
		if t.IsNVVar(v) {
			return 0, fmt.Errorf("core: evidence on internal NV variable %d", v)
		}
		if present {
			probs[v] = 1
		} else {
			probs[v] = 0
		}
	}
	if method != MethodDPLL && method != MethodBruteForce {
		return 0, fmt.Errorf("core: ProbGivenTuples supports MethodDPLL and MethodBruteForce, not %v", method)
	}
	linQ, err := ucq.EvalBoolean(t.DB, q)
	if err != nil {
		return 0, err
	}
	var pNotW, pQNotW float64
	if t.HasConstraints() {
		linW, err := t.WLineage()
		if err != nil {
			return 0, err
		}
		notW := lineage.Not{F: lineage.FromDNF(linW)}
		qAndNotW := lineage.And{lineage.FromDNF(linQ), notW}
		if method == MethodBruteForce {
			if pNotW, err = lineage.BruteForceProbFormula(notW, probs); err != nil {
				return 0, err
			}
			if pQNotW, err = lineage.BruteForceProbFormula(qAndNotW, probs); err != nil {
				return 0, err
			}
		} else {
			s := wmc.NewSolver(probs)
			pW := s.Prob(linW)
			pQW := s.Prob(lineage.Or(linQ, linW))
			pNotW = 1 - pW
			pQNotW = pQW - pW
		}
	} else {
		pNotW = 1
		if method == MethodBruteForce {
			var err error
			if pQNotW, err = lineage.BruteForceProb(linQ, probs); err != nil {
				return 0, err
			}
		} else {
			pQNotW = wmc.Prob(linQ, probs)
		}
	}
	if math.Abs(pNotW) < 1e-12 {
		return 0, fmt.Errorf("core: evidence is inconsistent with the MarkoViews (P0'(¬W) = 0)")
	}
	return pQNotW / pNotW, nil
}
