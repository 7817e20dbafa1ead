// Package lift implements lifted inference (safe-plan evaluation) for
// Boolean UCQs over tuple-independent databases: independent union,
// independent join, independent project over a separator variable, and
// inclusion-exclusion. Queries on which no rule applies are reported unsafe
// (ErrUnsafe); for those, callers fall back to lineage-based methods such as
// OBDD compilation.
//
// All rules are polynomial identities over the product measure and therefore
// remain valid for the negative probabilities produced by the MarkoView
// translation (Section 3.3 of the paper).
package lift

import (
	"errors"
	"fmt"
	"sort"

	"mvdb/internal/engine"
	"mvdb/internal/ucq"
)

// ErrUnsafe is returned when the query admits no safe plan; evaluation is
// #P-hard in general and the caller should use a lineage-based method.
var ErrUnsafe = errors.New("lift: query is unsafe (no safe plan)")

// maxIEDisjuncts bounds inclusion-exclusion blowup.
const maxIEDisjuncts = 16

// Prob computes P(u) on the tuple-independent database by lifted inference.
func Prob(db *engine.Database, u ucq.UCQ) (float64, error) {
	e := &evaluator{db: db}
	return e.ucq(u)
}

// IsSafe reports whether the query has a safe plan, by running the lifted
// rules structurally (domain values replaced by one representative marker).
func IsSafe(u ucq.UCQ) bool {
	return structSafe(u, 0)
}

type evaluator struct {
	db *engine.Database
}

func (e *evaluator) ucq(u ucq.UCQ) (float64, error) {
	// Simplify constant predicates; drop unsatisfiable disjuncts.
	var live []ucq.CQ
	for _, d := range u.Disjuncts {
		if sd, ok := simplifyCQ(d); ok {
			live = append(live, sd)
		}
	}
	if len(live) == 0 {
		return 0, nil
	}
	u = ucq.UCQ{Disjuncts: live}
	// Logical simplification: drop subsumed disjuncts and minimize each
	// conjunct (Chandra-Merlin cores). Semantics-preserving, and it turns
	// several syntactically-unsafe shapes into safe ones.
	u = removeRedundantDisjuncts(u, nil)

	// Independent union: relation-disjoint groups of disjuncts.
	if groups := u.UnionGroups(); len(groups) > 1 {
		prod := 1.0
		for _, g := range groups {
			p, err := e.ucq(g)
			if err != nil {
				return 0, err
			}
			prod *= 1 - p
		}
		return 1 - prod, nil
	}

	if len(u.Disjuncts) == 1 {
		return e.cq(u.Disjuncts[0])
	}

	// Independent project over a strict separator of the whole union: the
	// separator must occur in every atom that can contribute Boolean
	// variables (deterministic atoms are exempt, ground probabilistic atoms
	// are not).
	if sep, ok := u.FindSeparatorSkip(e.liftSkip()); ok {
		return e.project(u, sep)
	}

	// Inclusion-exclusion over the disjuncts.
	if len(u.Disjuncts) > maxIEDisjuncts {
		return 0, fmt.Errorf("lift: inclusion-exclusion over %d disjuncts: %w", len(u.Disjuncts), ErrUnsafe)
	}
	total := 0.0
	n := len(u.Disjuncts)
	for mask := 1; mask < 1<<uint(n); mask++ {
		merged := mergeCQs(u.Disjuncts, mask)
		p, err := e.cq(merged)
		if err != nil {
			return 0, err
		}
		if popcount(mask)%2 == 1 {
			total += p
		} else {
			total -= p
		}
	}
	return total, nil
}

func (e *evaluator) cq(d ucq.CQ) (float64, error) {
	d, ok := simplifyCQ(d)
	if !ok {
		return 0, nil
	}
	d = minimize(collapseEquivalentAtoms(d, nil), nil)
	if len(d.Vars()) == 0 {
		return e.ground(d)
	}
	// A conjunct over deterministic relations only is an existence check:
	// its lineage is constant true or false.
	if e.allDeterministic(d) {
		lin, err := ucq.EvalBoolean(e.db, ucq.UCQ{Disjuncts: []ucq.CQ{d}})
		if err != nil {
			return 0, err
		}
		if lin.IsTrue() {
			return 1, nil
		}
		return 0, nil
	}

	// Independent join: variable-disjoint components that also share no
	// relation symbols (otherwise their lineages may overlap).
	comps := d.Components()
	if len(comps) > 1 && relationDisjoint(comps) {
		prod := 1.0
		for _, c := range comps {
			p, err := e.cq(c)
			if err != nil {
				return 0, err
			}
			prod *= p
		}
		return prod, nil
	}

	// Independent project over a strict separator.
	uu := ucq.UCQ{Disjuncts: []ucq.CQ{d}}
	if sep, ok := uu.FindSeparatorSkip(e.liftSkip()); ok {
		return e.project(uu, sep)
	}
	return 0, fmt.Errorf("lift: no rule applies to %s: %w", d, ErrUnsafe)
}

// project applies the independent-project rule: the separator touches
// disjoint sets of tuples for different domain values, so
// P(∃z φ) = 1 - Π_a (1 - P(φ[a/z])).
func (e *evaluator) project(u ucq.UCQ, sep ucq.Separator) (float64, error) {
	domain := e.separatorDomain(sep)
	prod := 1.0
	for _, a := range domain {
		sub := ucq.UCQ{}
		for di, d := range u.Disjuncts {
			sub.Disjuncts = append(sub.Disjuncts,
				d.Subst(map[string]engine.Value{sep.PerDisjunct[di]: a}))
		}
		p, err := e.ucq(sub)
		if err != nil {
			return 0, err
		}
		prod *= 1 - p
	}
	return 1 - prod, nil
}

// liftSkip exempts deterministic atoms (they carry no Boolean variables)
// but keeps ground probabilistic atoms, whose shared tuple would break
// block independence.
func (e *evaluator) liftSkip() ucq.AtomSkip {
	return ucq.SkipDeterministic(func(rel string) bool {
		r := e.db.Relation(rel)
		return r != nil && r.Deterministic
	}, ucq.SkipNegated)
}

// allDeterministic reports whether every atom is over a deterministic
// relation.
func (e *evaluator) allDeterministic(d ucq.CQ) bool {
	for _, a := range d.Atoms {
		r := e.db.Relation(a.Rel)
		if r == nil || !r.Deterministic {
			return false
		}
	}
	return true
}

func (e *evaluator) separatorDomain(sep ucq.Separator) []engine.Value {
	seen := map[string]engine.Value{}
	for rel, pos := range sep.RelPos {
		r := e.db.Relation(rel)
		if r == nil {
			continue
		}
		for _, t := range r.Tuples {
			v := t.Vals[pos]
			seen[v.Key()] = v
		}
	}
	out := make([]engine.Value, 0, len(seen))
	for _, v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// ground evaluates a variable-free conjunct: the product of the marginal
// probabilities of its distinct probabilistic tuples (and 0/1 for missing /
// deterministic tuples and negated atoms).
func (e *evaluator) ground(d ucq.CQ) (float64, error) {
	seen := map[int]bool{}
	prod := 1.0
	for _, a := range d.Atoms {
		rel := e.db.Relation(a.Rel)
		if rel == nil {
			return 0, fmt.Errorf("lift: unknown relation %s", a.Rel)
		}
		if len(a.Args) != rel.Arity() {
			return 0, fmt.Errorf("lift: relation %s arity mismatch", a.Rel)
		}
		vals := make([]engine.Value, len(a.Args))
		for i, t := range a.Args {
			if !t.IsConst {
				return 0, fmt.Errorf("lift: ground conjunct has variable %s", t.Var)
			}
			vals[i] = t.Const
		}
		ti := rel.Lookup(vals)
		if a.Negated {
			if !rel.Deterministic {
				return 0, fmt.Errorf("lift: negation on probabilistic relation %s", a.Rel)
			}
			if ti >= 0 {
				return 0, nil
			}
			continue
		}
		if ti < 0 {
			return 0, nil
		}
		t := rel.Tuples[ti]
		if t.Var == 0 || seen[t.Var] {
			continue
		}
		seen[t.Var] = true
		prod *= engine.WeightToProb(t.Weight)
	}
	return prod, nil
}

// mergeCQs builds the conjunction of the selected disjuncts, renaming
// variables apart so the merged conjunct is a plain CQ.
func mergeCQs(ds []ucq.CQ, mask int) ucq.CQ {
	var out ucq.CQ
	for i, d := range ds {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		prefix := fmt.Sprintf("d%d·", i)
		rename := func(t ucq.Term) ucq.Term {
			if t.IsConst {
				return t
			}
			return ucq.V(prefix + t.Var)
		}
		for _, a := range d.Atoms {
			na := ucq.Atom{Rel: a.Rel, Negated: a.Negated, Args: make([]ucq.Term, len(a.Args))}
			for j, t := range a.Args {
				na.Args[j] = rename(t)
			}
			out.Atoms = append(out.Atoms, na)
		}
		for _, p := range d.Preds {
			out.Preds = append(out.Preds, ucq.Pred{Op: p.Op, L: rename(p.L), R: rename(p.R), Offset: p.Offset})
		}
	}
	return out
}

func relationDisjoint(comps []ucq.CQ) bool {
	seen := map[string]int{}
	for i, c := range comps {
		for _, a := range c.Atoms {
			if j, ok := seen[a.Rel]; ok && j != i {
				return false
			}
			seen[a.Rel] = i
		}
	}
	return true
}

func simplifyCQ(d ucq.CQ) (ucq.CQ, bool) {
	out := ucq.CQ{Atoms: d.Atoms}
	for _, p := range d.Preds {
		if p.L.IsConst && p.R.IsConst {
			if !p.EvalBound(p.L.Const, p.R.Const) {
				return ucq.CQ{}, false
			}
			continue
		}
		out.Preds = append(out.Preds, p)
	}
	return out, true
}

func popcount(x int) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// structSafe mirrors the evaluator's rule order on the query structure only:
// one marker constant stands in for the whole separator domain.
func structSafe(u ucq.UCQ, depth int) bool {
	if depth > 64 {
		return false
	}
	var live []ucq.CQ
	for _, d := range u.Disjuncts {
		if len(d.Vars()) > 0 {
			live = append(live, d)
		}
	}
	if len(live) == 0 {
		return true
	}
	u = ucq.UCQ{Disjuncts: live}

	if groups := u.UnionGroups(); len(groups) > 1 {
		for _, g := range groups {
			if !structSafe(g, depth+1) {
				return false
			}
		}
		return true
	}
	if len(u.Disjuncts) == 1 {
		d := collapseEquivalentAtoms(u.Disjuncts[0], nil)
		u = ucq.UCQ{Disjuncts: []ucq.CQ{d}}
		if len(d.Vars()) == 0 {
			return true
		}
		comps := d.Components()
		if len(comps) > 1 && relationDisjoint(comps) {
			for _, c := range comps {
				if !structSafe(ucq.UCQ{Disjuncts: []ucq.CQ{c}}, depth+1) {
					return false
				}
			}
			return true
		}
	}
	if sep, ok := u.FindSeparatorSkip(ucq.SkipNegated); ok {
		marker := engine.Str("\x00safe")
		sub := ucq.UCQ{}
		for di, d := range u.Disjuncts {
			sub.Disjuncts = append(sub.Disjuncts,
				d.Subst(map[string]engine.Value{sep.PerDisjunct[di]: marker}))
		}
		return structSafe(sub, depth+1)
	}
	if len(u.Disjuncts) > 1 && len(u.Disjuncts) <= maxIEDisjuncts {
		for mask := 1; mask < 1<<uint(len(u.Disjuncts)); mask++ {
			merged := mergeCQs(u.Disjuncts, mask)
			if !structSafe(ucq.UCQ{Disjuncts: []ucq.CQ{merged}}, depth+1) {
				return false
			}
		}
		return true
	}
	return false
}
