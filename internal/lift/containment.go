package lift

import (
	"mvdb/internal/engine"
	"mvdb/internal/ucq"
)

// homomorphismTo searches for a homomorphism from c to d: a mapping of c's
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
func homomorphismTo(c, d ucq.CQ) (map[string]ucq.Term, bool) {
	h := map[string]ucq.Term{}
	if homSearch(c, d, 0, h) && predsPreserved(c, d, h) {
		return h, true
	}
	return nil, false
}

func homSearch(c, d ucq.CQ, atom int, h map[string]ucq.Term) bool {
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
		if ok && homSearch(c, d, atom+1, h) {
			return true
		}
		for _, v := range bound {
			delete(h, v)
		}
	}
	return false
}

func termEqual(a, b ucq.Term) bool {
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
func predsPreserved(c, d ucq.CQ, h map[string]ucq.Term) bool {
	apply := func(t ucq.Term) ucq.Term {
		if t.IsConst {
			return t
		}
		if m, ok := h[t.Var]; ok {
			return m
		}
		return t
	}
	for _, p := range c.Preds {
		mp := ucq.Pred{Op: p.Op, L: apply(p.L), R: apply(p.R), Offset: p.Offset}
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

// minimize computes a core of the Boolean CQ: it repeatedly drops an atom
// if the full conjunct still maps homomorphically into the reduced one
// (which makes them equivalent). Head variables of a non-Boolean query must
// be passed as protected so they are never collapsed.
func minimize(c ucq.CQ, protected []string) ucq.CQ {
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
			reduced := ucq.CQ{Preds: cur.Preds}
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
			if _, ok := homomorphismTo(fc, fr); ok {
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
func bindsAllPredVars(c ucq.CQ) bool {
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

// removeRedundantDisjuncts drops disjuncts subsumed by another disjunct: if
// dᵢ ⊆ dⱼ (there is a homomorphism dⱼ → dᵢ), then dᵢ is redundant in the
// union. Each surviving disjunct is also minimized. Protected variables
// (head variables) are pinned.
func removeRedundantDisjuncts(u ucq.UCQ, protected []string) ucq.UCQ {
	freeze := map[string]engine.Value{}
	for i, v := range protected {
		freeze[v] = engine.Str("\x00frozen" + string(rune('0'+i%10)) + v)
	}
	kept := make([]ucq.CQ, 0, len(u.Disjuncts))
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
			if _, ok := homomorphismTo(fe, fd); ok {
				if _, back := homomorphismTo(fd, fe); back && j > i {
					continue // equivalent; the later one will be dropped
				}
				redundant = true
				break
			}
		}
		if !redundant {
			kept = append(kept, minimize(d, protected))
		}
	}
	return ucq.UCQ{Disjuncts: kept}
}

// collapseEquivalentAtoms removes positive atoms that are duplicates of
// another atom up to renaming of variables local to the atom (variables that
// occur nowhere else in the conjunct and not in protected). For example,
// ∃y1 S(a,y1) ∧ ∃y2 S(a,y2) collapses to ∃y S(a,y). This is a sound
// logical simplification used before independence checks.
func collapseEquivalentAtoms(c ucq.CQ, protected []string) ucq.CQ {
	// Count variable occurrences across atoms, predicates and protected set.
	occurs := map[string]int{}
	for _, a := range c.Atoms {
		seen := map[string]bool{}
		for _, t := range a.Args {
			if !t.IsConst && !seen[t.Var] {
				seen[t.Var] = true
				occurs[t.Var]++
			}
		}
	}
	for _, p := range c.Preds {
		if !p.L.IsConst {
			occurs[p.L.Var] += 2
		}
		if !p.R.IsConst {
			occurs[p.R.Var] += 2
		}
	}
	for _, v := range protected {
		occurs[v] += 2
	}
	keyOf := func(a ucq.Atom) string {
		local := map[string]int{}
		key := a.Rel
		if a.Negated {
			key = "!" + key
		}
		for _, t := range a.Args {
			switch {
			case t.IsConst:
				key += "|c" + t.Const.Key()
			case occurs[t.Var] > 1:
				key += "|g" + t.Var
			default:
				id, ok := local[t.Var]
				if !ok {
					id = len(local)
					local[t.Var] = id
				}
				key += "|l" + string(rune('0'+id))
			}
		}
		return key
	}
	seen := map[string]bool{}
	out := ucq.CQ{Preds: c.Preds}
	for _, a := range c.Atoms {
		k := keyOf(a)
		if seen[k] {
			continue
		}
		seen[k] = true
		out.Atoms = append(out.Atoms, a)
	}
	return out
}
