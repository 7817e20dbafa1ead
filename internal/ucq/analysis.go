package ucq

import "sort"

// rootVarsSkip returns the root variables of a CQ (Section 4.2: "a root
// variable appears in all atoms of Q"): the variables occurring in every atom
// the filter keeps; no roots if every atom is skipped. Candidates are seeded
// from the first kept atom and filtered against the rest — atoms hold a
// handful of terms, so linear scans over a small slice beat per-atom maps.
func (c CQ) rootVarsSkip(skip AtomSkip) []string {
	var cand []string
	seeded := false
	for _, a := range c.Atoms {
		if skip(a) {
			continue
		}
		if !seeded {
			seeded = true
			for _, t := range a.Args {
				if !t.IsConst && !containsStr(cand, t.Var) {
					cand = append(cand, t.Var)
				}
			}
			if len(cand) == 0 {
				return nil
			}
			continue
		}
		kept := cand[:0]
		for _, v := range cand {
			if atomHasVar(a, v) {
				kept = append(kept, v)
			}
		}
		cand = kept
		if len(cand) == 0 {
			return nil
		}
	}
	if !seeded {
		return nil
	}
	sort.Strings(cand) // match the historical Vars()-sorted order
	return cand
}

func containsStr(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

func atomHasVar(a Atom, v string) bool {
	for _, t := range a.Args {
		if !t.IsConst && t.Var == v {
			return true
		}
	}
	return false
}

// Separator describes a separator variable choice for a UCQ: one root
// variable per disjunct, such that any two atoms with the same relation
// symbol carry the separator at the same attribute position (Section 4.2).
type Separator struct {
	PerDisjunct []string       // chosen root variable in each disjunct
	RelPos      map[string]int // the separator's position in each relation
}

// AtomSkip decides which atoms root-variable and separator analysis may
// ignore. Skipped atoms contribute no Boolean variables (negated atoms,
// ground atoms, atoms over deterministic relations), so the separator need
// not occur in them for the per-value blocks to be tuple-independent.
type AtomSkip func(Atom) bool

// SkipGround ignores negated atoms and atoms without variables — the
// default for OBDD concatenation analysis on a purely probabilistic schema.
func SkipGround(a Atom) bool { return a.Negated || !atomHasVars(a) }

// SkipNegated ignores only negated atoms — the strict notion needed by the
// independent-project rule of lifted inference.
func SkipNegated(a Atom) bool { return a.Negated }

// SkipDeterministic combines a determinism oracle with the given base skip:
// atoms over deterministic relations never contribute Boolean variables.
func SkipDeterministic(isDet func(rel string) bool, base AtomSkip) AtomSkip {
	return func(a Atom) bool { return base(a) || isDet(a.Rel) }
}

// FindSeparatorSkip searches for a separator of the UCQ, skipping the atoms
// the filter names. It enumerates combinations of root variables across
// disjuncts (these sets are tiny in practice) and checks position
// consistency per relation symbol.
func (u UCQ) FindSeparatorSkip(skip AtomSkip) (Separator, bool) {
	if len(u.Disjuncts) == 0 {
		return Separator{}, false
	}
	roots := make([][]string, len(u.Disjuncts))
	for i, d := range u.Disjuncts {
		roots[i] = d.rootVarsSkip(skip)
		if len(roots[i]) == 0 {
			return Separator{}, false
		}
	}
	choice := make([]string, len(u.Disjuncts))
	var try func(i int) (Separator, bool)
	try = func(i int) (Separator, bool) {
		if i == len(u.Disjuncts) {
			if relPos, ok := consistentPositionsSkip(u, choice, skip); ok {
				return Separator{PerDisjunct: append([]string(nil), choice...), RelPos: relPos}, true
			}
			return Separator{}, false
		}
		for _, r := range roots[i] {
			choice[i] = r
			if s, ok := try(i + 1); ok {
				return s, true
			}
		}
		return Separator{}, false
	}
	return try(0)
}

// consistentPositionsSkip checks whether, with the given root-variable
// choice, each relation symbol sees the root variable at one common position
// in all of its kept atoms across all disjuncts; it returns that position
// per relation.
func consistentPositionsSkip(u UCQ, choice []string, skip AtomSkip) (map[string]int, bool) {
	// candidate position sets per relation
	cand := map[string]map[int]bool{}
	for di, d := range u.Disjuncts {
		z := choice[di]
		for _, a := range d.Atoms {
			if skip(a) {
				continue
			}
			positions := map[int]bool{}
			for i, t := range a.Args {
				if !t.IsConst && t.Var == z {
					positions[i] = true
				}
			}
			if len(positions) == 0 {
				return nil, false // root var missing from an atom (cannot happen for true roots)
			}
			if prev, ok := cand[a.Rel]; ok {
				for p := range prev {
					if !positions[p] {
						delete(prev, p)
					}
				}
				if len(prev) == 0 {
					return nil, false
				}
			} else {
				cand[a.Rel] = positions
			}
		}
	}
	out := map[string]int{}
	for rel, ps := range cand {
		best := -1
		for p := range ps {
			if best == -1 || p < best {
				best = p
			}
		}
		out[rel] = best
	}
	return out, true
}

// connectedComponents splits a CQ's positive atoms into groups connected by
// shared variables. Negated atoms and predicates are attached to the
// component containing their variables (or to the first component if they
// have none). Each returned CQ is an independent conjunct.
func (c CQ) connectedComponents() []CQ {
	n := len(c.Atoms)
	if n == 0 {
		return nil
	}
	if n == 1 {
		// One atom: a single component carrying every predicate — skip the
		// union-find and grouping maps (the compiler's residual conjuncts hit
		// this constantly).
		return []CQ{c}
	}
	var parentBuf [16]int
	parent := parentBuf[:]
	if n > len(parentBuf) {
		parent = make([]int, n)
	}
	parent = parent[:n]
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	// atomFor returns the first atom carrying the variable, or -1 — the same
	// mapping the old var->atom map encoded, but n is tiny here (residual
	// conjuncts after separator substitution), so a scan costs nothing and
	// the map allocation dominated this function's profile.
	atomFor := func(v string) int {
		for i, a := range c.Atoms {
			for _, t := range a.Args {
				if !t.IsConst && t.Var == v {
					return i
				}
			}
		}
		return -1
	}
	for i := 1; i < n; i++ {
		for _, t := range c.Atoms[i].Args {
			if t.IsConst {
				continue
			}
			if j := atomFor(t.Var); j >= 0 && j < i {
				parent[find(i)] = find(j)
			}
		}
	}
	// Predicates connect their variables' components.
	for _, p := range c.Preds {
		if !p.L.IsConst && !p.R.IsConst {
			if a, b := atomFor(p.L.Var), atomFor(p.R.Var); a >= 0 && b >= 0 {
				parent[find(a)] = find(b)
			}
		}
	}
	// Single component — the overwhelmingly common outcome — needs no group
	// bookkeeping at all.
	root := find(0)
	single := true
	for i := 1; i < n; i++ {
		if find(i) != root {
			single = false
			break
		}
	}
	if single {
		return []CQ{c}
	}
	var rootsBuf [16]int
	roots := rootsBuf[:0]
	idx := func(r int) int {
		for k, x := range roots {
			if x == r {
				return k
			}
		}
		return -1
	}
	out := make([]CQ, 0, 2)
	for i, a := range c.Atoms {
		r := find(i)
		k := idx(r)
		if k < 0 {
			roots = append(roots, r)
			out = append(out, CQ{})
			k = len(out) - 1
		}
		out[k].Atoms = append(out[k].Atoms, a)
	}
	for _, p := range c.Preds {
		target := -1
		if !p.L.IsConst {
			if a := atomFor(p.L.Var); a >= 0 {
				target = idx(find(a))
			}
		}
		if target == -1 && !p.R.IsConst {
			if a := atomFor(p.R.Var); a >= 0 {
				target = idx(find(a))
			}
		}
		if target == -1 {
			target = 0
		}
		out[target].Preds = append(out[target].Preds, p)
	}
	return out
}

// Components returns the independent conjuncts of the CQ (exported wrapper).
func (c CQ) Components() []CQ { return c.connectedComponents() }

// unionGroups splits the UCQ's disjuncts into groups that share no relation
// symbols; distinct groups are independent disjunctions.
func (u UCQ) unionGroups() []UCQ {
	n := len(u.Disjuncts)
	if n == 0 {
		return nil
	}
	if n == 1 {
		return []UCQ{u}
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	relDisj := map[string]int{}
	for i, d := range u.Disjuncts {
		for _, a := range d.Atoms {
			if a.Negated {
				continue
			}
			if j, ok := relDisj[a.Rel]; ok {
				parent[find(i)] = find(j)
			} else {
				relDisj[a.Rel] = i
			}
		}
	}
	groups := map[int]*UCQ{}
	var order []int
	for i, d := range u.Disjuncts {
		r := find(i)
		g, ok := groups[r]
		if !ok {
			g = &UCQ{}
			groups[r] = g
			order = append(order, r)
		}
		g.Disjuncts = append(g.Disjuncts, d)
	}
	out := make([]UCQ, 0, len(order))
	for _, r := range order {
		out = append(out, *groups[r])
	}
	return out
}

// UnionGroups returns the relation-disjoint groups of disjuncts.
func (u UCQ) UnionGroups() []UCQ { return u.unionGroups() }

func atomHasVars(a Atom) bool {
	for _, t := range a.Args {
		if !t.IsConst {
			return true
		}
	}
	return false
}
