// Package baseline holds the global exact evaluations of Theorem 1 on a
// translated MVDB — brute-force enumeration, OBDD synthesis against a
// compiled W, lifted inference and DPLL model counting — and the Definition 4
// oracle: exact enumeration and MC-SAT over the ground Markov Logic Network.
// They are Section 6's comparisons and the tests' ground truth. Serving
// answers through the MV-index (package mvindex) and never links them.
package baseline

import (
	"fmt"
	"math"
	"sync"
	"time"

	"mvdb/internal/core"
	"mvdb/internal/lift"
	"mvdb/internal/lineage"
	"mvdb/internal/mln"
	"mvdb/internal/obdd"
	"mvdb/internal/ucq"
	"mvdb/internal/wmc"
)

// Method selects how P0 probabilities on the translated INDB are computed.
type Method int

// Evaluation methods.
const (
	// BruteForce enumerates assignments of the combined lineage — exact,
	// exponential, only for small instances and tests.
	BruteForce Method = iota
	// OBDD compiles W once with ConOBDD (kept by the Evaluator) and
	// synthesizes each query's lineage against it.
	OBDD
	// Lifted runs safe-plan lifted inference on W and Q ∨ W; it fails with
	// lift.ErrUnsafe when either query has no safe plan.
	Lifted
	// DPLL runs the Davis-Putnam-style weighted model counter on the
	// combined lineage: exact, no compilation, valid for negative
	// probabilities — the MystiQ-style baseline of Section 6.
	DPLL
)

func (m Method) String() string {
	switch m {
	case BruteForce:
		return "brute-force"
	case OBDD:
		return "obdd"
	case Lifted:
		return "lifted"
	case DPLL:
		return "dpll"
	}
	return fmt.Sprintf("method(%d)", int(m))
}

// Evaluator evaluates queries on one translation by the global methods. It
// describes the translation as it was when New was called: after a mutation
// of the translation (ApplyDelta, a reweight), build a new Evaluator. Safe
// for concurrent use.
type Evaluator struct {
	tr *core.Translation

	// mu serializes compiling W and every query-OBDD synthesis on the
	// shared manager m; the other methods run lock-free.
	mu sync.Mutex
	m  *obdd.Manager // nil until the first OBDD use
	fW obdd.NodeID
	pW float64
}

// New returns an Evaluator over tr. It costs O(1): W is compiled on the
// first OBDD use.
func New(tr *core.Translation) *Evaluator { return &Evaluator{tr: tr} }

// compileW compiles W once, with the translation's compile permutation, and
// computes P0(W). The caller holds e.mu. A failed compile keeps nothing, so
// a later call tries again.
func (e *Evaluator) compileW() error {
	if e.m != nil {
		return nil
	}
	m, fW, _, err := e.tr.CompileW(obdd.CompileOptions{})
	if err != nil {
		return err
	}
	e.m, e.fW, e.pW = m, fW, m.Prob(fW, e.tr.DB.Probs())
	return nil
}

// OBDD returns the manager and the OBDD root of W, compiling it on first
// use. Callers may extend the manager with query OBDDs sharing its order,
// but not while the Evaluator is in use by another goroutine.
func (e *Evaluator) OBDD() (*obdd.Manager, obdd.NodeID, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.compileW(); err != nil {
		return nil, obdd.False, err
	}
	return e.m, e.fW, nil
}

// ProbW computes P0(W).
func (e *Evaluator) ProbW(method Method) (float64, error) {
	t := e.tr
	if !t.HasConstraints() {
		return 0, nil
	}
	switch method {
	case BruteForce:
		lin, err := t.WLineage()
		if err != nil {
			return 0, err
		}
		return lineage.BruteForceProb(lin, t.DB.Probs())
	case OBDD:
		e.mu.Lock()
		defer e.mu.Unlock()
		if err := e.compileW(); err != nil {
			return 0, err
		}
		return e.pW, nil
	case Lifted:
		return lift.Prob(t.DB, t.W)
	case DPLL:
		lin, err := t.WLineage()
		if err != nil {
			return 0, err
		}
		return wmc.Prob(lin, t.DB.Probs()), nil
	}
	return 0, fmt.Errorf("baseline: unknown method %v", method)
}

// ProbBoolean computes P(Q) for a Boolean query over the original schema via
// Theorem 1.
func (e *Evaluator) ProbBoolean(q ucq.UCQ, method Method) (float64, error) {
	if err := e.tr.ValidateQuery(q); err != nil {
		return 0, err
	}
	if method != Lifted {
		lin, err := ucq.EvalBoolean(e.tr.DB, q)
		if err != nil {
			return 0, err
		}
		return e.probFromLineage(lin, method)
	}
	// Lifted: evaluate P0(Q ∨ W) and P0(W) as UCQs.
	pW, err := e.ProbW(method)
	if err != nil {
		return 0, err
	}
	qw := ucq.UCQ{Disjuncts: append(append([]ucq.CQ{}, q.Disjuncts...), e.tr.W.Disjuncts...)}
	pQW, err := lift.Prob(e.tr.DB, qw)
	if err != nil {
		return 0, err
	}
	return theorem1(pQW, pW)
}

// probFromLineage applies Theorem 1 given the query's lineage on the
// translated database.
func (e *Evaluator) probFromLineage(linQ lineage.DNF, method Method) (float64, error) {
	t := e.tr
	switch method {
	case BruteForce:
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
	case OBDD:
		// Query OBDDs are synthesized on the shared manager (reusing its
		// hash-consing across answers), so concurrent callers serialize here.
		e.mu.Lock()
		defer e.mu.Unlock()
		if err := e.compileW(); err != nil {
			return 0, err
		}
		fQ := obdd.BuildDNF(e.m, linQ)
		pQW := e.m.Prob(e.m.Or(fQ, e.fW), t.DB.Probs())
		return theorem1(pQW, e.pW)
	case DPLL:
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
	return 0, fmt.Errorf("baseline: method %v cannot evaluate from lineage", method)
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
		return 0, fmt.Errorf("baseline: P0(¬W) = 0 — the MarkoViews are inconsistent (no possible world satisfies them)")
	}
	if math.Abs(denom) < 1e-9 {
		return 0, fmt.Errorf("baseline: P0(¬W) = %.3g is below the numerical floor of the global methods; use the MV-index (mvindex.Build), which evaluates block-locally", denom)
	}
	return (pQW - pW) / denom, nil
}

// Query evaluates a named query over the MVDB and returns each answer tuple
// with its marginal probability, sorted by head tuple. Tuples whose
// probability is numerically zero are still reported (they are possible
// answers in some world).
func (e *Evaluator) Query(q *ucq.Query, method Method) ([]core.Answer, error) {
	if err := e.tr.ValidateQuery(q.UCQ); err != nil {
		return nil, err
	}
	rows, err := ucq.Eval(e.tr.DB, q)
	if err != nil {
		return nil, err
	}
	return core.AnswerRows(nil, time.Time{}, rows, func(r ucq.AnswerRow) (float64, error) {
		if method == Lifted {
			b, err := q.Bind(r.Head)
			if err != nil {
				return 0, err
			}
			return e.ProbBoolean(b, method)
		}
		return e.probFromLineage(r.Lineage, method)
	})
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
// evidence). Evaluation uses DPLL or BruteForce.
func (e *Evaluator) ProbGivenTuples(q ucq.UCQ, ev Evidence, method Method) (float64, error) {
	t := e.tr
	if err := t.ValidateQuery(q); err != nil {
		return 0, err
	}
	probs := t.DB.Probs()
	for v, present := range ev {
		if v < 1 || v >= len(probs) {
			return 0, fmt.Errorf("baseline: evidence variable %d out of range", v)
		}
		if t.IsNVVar(v) {
			return 0, fmt.Errorf("baseline: evidence on internal NV variable %d", v)
		}
		if present {
			probs[v] = 1
		} else {
			probs[v] = 0
		}
	}
	if method != DPLL && method != BruteForce {
		return 0, fmt.Errorf("baseline: ProbGivenTuples supports DPLL and BruteForce, not %v", method)
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
		if method == BruteForce {
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
		if method == BruteForce {
			var err error
			if pQNotW, err = lineage.BruteForceProb(linQ, probs); err != nil {
				return 0, err
			}
		} else {
			pQNotW = wmc.Prob(linQ, probs)
		}
	}
	if math.Abs(pNotW) < 1e-12 {
		return 0, fmt.Errorf("baseline: evidence is inconsistent with the MarkoViews (P0'(¬W) = 0)")
	}
	return pQNotW / pNotW, nil
}

// GroundMLN builds the Markov Logic Network of Definition 4 for m: one
// feature (X_t, w(t)) per probabilistic tuple and one feature (Q_i(t̄),
// w_V(t)) per view tuple. Deterministic tuples are present in every world and
// do not appear as variables; nor do deleted tuples, nor the NV tuples a
// translation adds to the variable id space the MVDB shares with it. Its
// variables keep their database ids. Intended as exact ground truth on small
// instances.
func GroundMLN(m *core.MVDB) (*mln.Network, error) {
	var feats []mln.Feature
	var vars []int
	for v := 1; v <= m.DB.NumVars(); v++ {
		if !m.DB.Alive(v) {
			continue
		}
		w := m.DB.Weight(v)
		if w < 0 {
			return nil, fmt.Errorf("baseline: tuple variable %d has negative weight %v; MVDB weights must be non-negative", v, w)
		}
		feats = append(feats, mln.Feature{F: lineage.Var(v), Weight: w})
		vars = append(vars, v)
	}
	tuples, err := m.Materialize()
	if err != nil {
		return nil, err
	}
	for _, t := range tuples {
		feats = append(feats, mln.Feature{F: lineage.FromDNF(t.Lineage), Weight: t.Weight})
	}
	return mln.New(vars, feats)
}

// ProbExact computes P(Q) on m directly from the Definition 4 semantics by
// enumerating all possible worlds. Only feasible on small instances; the
// ground truth that Theorem 1 is tested against.
func ProbExact(m *core.MVDB, q ucq.UCQ) (float64, error) {
	net, err := GroundMLN(m)
	if err != nil {
		return 0, err
	}
	lin, err := ucq.EvalBoolean(m.DB, q)
	if err != nil {
		return 0, err
	}
	return net.MarginalExact(lineage.FromDNF(lin))
}
