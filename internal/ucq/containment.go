package ucq

import "mvdb/internal/engine"

// HomomorphismTo searches for a homomorphism from c to d: a mapping of c's
// variables to d's terms that is the identity on constants and maps every
// atom of c onto some atom of d (same relation, same polarity). By the
// Chandra-Merlin theorem, for Boolean CQs without predicates a homomorphism
// c → d exists iff d ⊆ c (every model of d satisfies c).
//
// Comparison predicates are handled conservatively: a homomorphism is only
// accepted if every predicate of c maps to a syntactically identical
// predicate of d (or to a trivially true constant comparison). This keeps
// the relation sound — a reported homomorphism always implies containment —
// at the price of completeness.
func (c CQ) HomomorphismTo(d CQ) (map[string]Term, bool) {
	h := map[string]Term{}
	if c.homSearch(d, 0, h) && c.predsPreserved(d, h) {
		return h, true
	}
	return nil, false
}

func (c CQ) homSearch(d CQ, atom int, h map[string]Term) bool {
	if atom == len(c.Atoms) {
		return true
	}
	a := c.Atoms[atom]
	for _, b := range d.Atoms {
		if b.Rel != a.Rel || b.Negated != a.Negated || len(b.Args) != len(a.Args) {
			continue
		}
		// Try mapping a onto b.
		var bound []string
		ok := true
		for i := range a.Args {
			ta, tb := a.Args[i], b.Args[i]
			if ta.IsConst {
				if !tb.IsConst || !ta.Const.Equal(tb.Const) {
					ok = false
					break
				}
				continue
			}
			if prev, exists := h[ta.Var]; exists {
				if !termEqual(prev, tb) {
					ok = false
					break
				}
				continue
			}
			h[ta.Var] = tb
			bound = append(bound, ta.Var)
		}
		if ok && c.homSearch(d, atom+1, h) {
			return true
		}
		for _, v := range bound {
			delete(h, v)
		}
	}
	return false
}

func termEqual(a, b Term) bool {
	if a.IsConst != b.IsConst {
		return false
	}
	if a.IsConst {
		return a.Const.Equal(b.Const)
	}
	return a.Var == b.Var
}

// predsPreserved checks that each predicate of c, after applying h, appears
// verbatim in d or is a true constant comparison.
func (c CQ) predsPreserved(d CQ, h map[string]Term) bool {
	apply := func(t Term) Term {
		if t.IsConst {
			return t
		}
		if m, ok := h[t.Var]; ok {
			return m
		}
		return t
	}
	for _, p := range c.Preds {
		mp := Pred{Op: p.Op, L: apply(p.L), R: apply(p.R), Offset: p.Offset}
		if mp.L.IsConst && mp.R.IsConst && mp.EvalBound(mp.L.Const, mp.R.Const) {
			continue
		}
		found := false
		for _, q := range d.Preds {
			if q.Op == mp.Op && q.Offset == mp.Offset && termEqual(q.L, mp.L) && termEqual(q.R, mp.R) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Minimize computes a core of the Boolean CQ: it repeatedly drops an atom
// if the full conjunct still maps homomorphically into the reduced one
// (which makes them equivalent). Head variables of a non-Boolean query must
// be passed as protected so they are never collapsed.
func (c CQ) Minimize(protected []string) CQ {
	cur := c
	// Freeze protected variables by treating them as constants during the
	// equivalence check: a marker constant per protected variable.
	freeze := map[string]engine.Value{}
	for i, v := range protected {
		freeze[v] = engine.Str("\x00frozen" + string(rune('0'+i%10)) + v)
	}
	for {
		improved := false
		for i := range cur.Atoms {
			if len(cur.Atoms) == 1 {
				break
			}
			reduced := CQ{Preds: cur.Preds}
			reduced.Atoms = append(reduced.Atoms, cur.Atoms[:i]...)
			reduced.Atoms = append(reduced.Atoms, cur.Atoms[i+1:]...)
			if !bindsAllPredVars(reduced) {
				continue // dropping this atom would unbind a predicate variable
			}
			// cur ⊇ reduced always (dropping atoms weakens); equivalence
			// needs reduced ⊆ cur, i.e. a homomorphism cur → reduced, with
			// protected variables pinned.
			fc := cur.Subst(freeze)
			fr := reduced.Subst(freeze)
			if _, ok := fc.HomomorphismTo(fr); ok {
				cur = reduced
				improved = true
				break
			}
		}
		if !improved {
			return cur
		}
	}
}

// bindsAllPredVars reports whether every predicate variable occurs in some
// positive atom (a requirement for the conjunct to be evaluable).
func bindsAllPredVars(c CQ) bool {
	pos := map[string]bool{}
	for _, v := range c.PositiveVars() {
		pos[v] = true
	}
	for _, p := range c.Preds {
		if !p.L.IsConst && !pos[p.L.Var] {
			return false
		}
		if !p.R.IsConst && !pos[p.R.Var] {
			return false
		}
	}
	return true
}

// RemoveRedundantDisjuncts drops disjuncts subsumed by another disjunct: if
// dᵢ ⊆ dⱼ (there is a homomorphism dⱼ → dᵢ), then dᵢ is redundant in the
// union. Each surviving disjunct is also minimized. Protected variables
// (head variables) are pinned.
func (u UCQ) RemoveRedundantDisjuncts(protected []string) UCQ {
	freeze := map[string]engine.Value{}
	for i, v := range protected {
		freeze[v] = engine.Str("\x00frozen" + string(rune('0'+i%10)) + v)
	}
	kept := make([]CQ, 0, len(u.Disjuncts))
	for i, d := range u.Disjuncts {
		redundant := false
		for j, e := range u.Disjuncts {
			if i == j {
				continue
			}
			// d ⊆ e via homomorphism e -> d; to break ties between
			// equivalent disjuncts keep the earlier one.
			fe := e.Subst(freeze)
			fd := d.Subst(freeze)
			if _, ok := fe.HomomorphismTo(fd); ok {
				if _, back := fd.HomomorphismTo(fe); back && j > i {
					continue // equivalent; the later one will be dropped
				}
				redundant = true
				break
			}
		}
		if !redundant {
			kept = append(kept, d.Minimize(protected))
		}
	}
	return UCQ{Disjuncts: kept}
}

// ContainsUCQ reports whether the Boolean UCQ c contains d (d ⊆ c): every
// disjunct of d must be contained in some disjunct of c (sound and complete
// for predicate-free UCQs by Sagiv-Yannakakis; conservative with
// predicates, like HomomorphismTo).
func ContainsUCQ(c, d UCQ) bool {
	for _, dd := range d.Disjuncts {
		found := false
		for _, cc := range c.Disjuncts {
			if _, ok := cc.HomomorphismTo(dd); ok {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// EquivalentBool reports whether two Boolean UCQs are logically equivalent
// (mutual containment, same caveats as ContainsUCQ).
func EquivalentBool(a, b UCQ) bool {
	return ContainsUCQ(a, b) && ContainsUCQ(b, a)
}
