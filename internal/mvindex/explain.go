package mvindex

import (
	"fmt"

	"mvdb/internal/budget"
	"mvdb/internal/lineage"
	"mvdb/internal/ucq"
)

// Explain describes how one intersection ran — the observable counterpart
// of Proposition 3 (runtime O(span · width)).
type Explain struct {
	QuerySize    int // nodes of the query OBDD
	QueryVars    int // variables in the query lineage
	EntryBlock   int // chain block the traversal entered at
	LastBlock    int // chain block of the query's last variable
	Blocks       int // total chain blocks in the index
	SpanLevels   int // levels between the query's first and last variable
	IndexLevels  int // total levels in the index
	PairsVisited int // memoized (query node, index node) pairs touched
	Prob         float64
}

func (e Explain) String() string {
	return fmt.Sprintf("query: %d nodes / %d vars; blocks %d-%d of %d; span %d of %d levels; %d pairs visited; P = %.6g",
		e.QuerySize, e.QueryVars, e.EntryBlock, e.LastBlock, e.Blocks, e.SpanLevels, e.IndexLevels, e.PairsVisited, e.Prob)
}

// ExplainBoolean evaluates P(Q) like ProbBoolean and reports traversal
// statistics. The cancellation, budget and NoEntryShortcut fields of opts
// apply; the answer cache is not consulted.
func (ix *Index) ExplainBoolean(q ucq.UCQ, opts IntersectOptions) (Explain, error) {
	linQ, err := ucq.EvalBoolean(ix.tr.DB, q)
	if err != nil {
		return Explain{}, err
	}
	return ix.ExplainLineage(linQ, opts)
}

// ExplainLineage is ExplainBoolean for a precomputed lineage.
func (ix *Index) ExplainLineage(linQ lineage.DNF, opts IntersectOptions) (Explain, error) {
	if err := budget.Check(opts.Ctx, opts.Budget.Deadline); err != nil {
		return Explain{}, err
	}
	if _, sign := ix.LogProbNotW(); sign == 0 {
		return Explain{}, errInconsistent
	}
	ex := Explain{
		Blocks:      ix.Blocks(),
		IndexLevels: ix.ch.ord.NumVars(),
		QueryVars:   len(linQ.Vars()),
	}
	if linQ.IsFalse() {
		return ex, nil
	}
	qm, fQ, err := ix.queryOBDD(linQ, opts)
	if err != nil {
		return Explain{}, err
	}
	ex.QuerySize = qm.Size(fQ)
	if span := int(qm.MaxLevel(fQ)) - int(qm.NodeLevel(fQ)) + 1; span > 0 {
		ex.SpanLevels = span
	}
	var s span
	ex.Prob, s, ex.PairsVisited, err = ix.walk(qm, fQ, opts, (*Index).intersectCC)
	if err != nil {
		return Explain{}, err
	}
	ex.EntryBlock, ex.LastBlock = s.first, s.last
	return ex, nil
}

// TupleMarginal computes the marginal probability of one probabilistic
// tuple under the MVDB semantics: P(X_t) = P0(X_t ∧ ¬W) / P0(¬W). This is
// the paper's motivating use case — reading off the corrected likelihood of
// an inferred fact (an advisor edge, an affiliation) after the MarkoViews
// reweight it.
func (ix *Index) TupleMarginal(v int, opts IntersectOptions) (float64, error) {
	if ix.ch.ord.Level(v) < 0 {
		return 0, fmt.Errorf("mvindex: variable %d not in the index order", v)
	}
	qm := ix.ch.ord.NewScratch()
	return ix.intersectOn(qm, qm.Var(v), opts)
}

// AllTupleMarginals computes the corrected marginal probability of every
// probabilistic tuple in one pass over the augmented OBDD. For a variable v
// whose nodes u₁..u_c all sit in chain block k (IntraBddIndex), with
// block-local reach/probUnder and block probability b_k:
//
//	P(X_v) = [Σᵢ reach(uᵢ)·p_v·probUnder(hi(uᵢ)) + p_v·(b_k − Σᵢ reach(uᵢ)·probUnder(uᵢ))] / b_k
//
// — the first sum covers accepting paths through v's nodes, the second term
// the accepting block mass on paths that skip v's level (where v is free);
// all other blocks cancel in the ratio. Variables not in the index are
// independent of the views and keep their prior. The result is indexed by
// variable id; entry 0 is unused.
func (ix *Index) AllTupleMarginals() ([]float64, error) {
	if _, sign := ix.LogProbNotW(); sign == 0 {
		return nil, errInconsistent
	}
	out := make([]float64, len(ix.probs))
	for v := 1; v < len(ix.probs); v++ {
		p := ix.probs[v]
		k, run := ix.ch.levelRun(v)
		if len(run) == 0 {
			out[v] = p // not constrained by any view
			continue
		}
		s := ix.ch.segs[k]
		if s.b == 0 {
			return nil, fmt.Errorf("mvindex: block %d has probability 0 — inconsistent MarkoViews", k)
		}
		through := 0.0 // accepting block mass through v's nodes with v = 1
		touched := 0.0 // total block mass through v's nodes
		for _, i := range run {
			switch c := s.hi[i]; c {
			case ccFalse:
			case ccExit:
				through += s.reach[i] * p
			default:
				through += s.reach[i] * p * s.probUnder[c]
			}
			touched += s.reach[i] * s.probUnder[i]
		}
		out[v] = (through + p*(s.b-touched)) / s.b
	}
	return out, nil
}
