package obdd

import (
	"fmt"
	"sort"

	"mvdb/internal/engine"
	"mvdb/internal/ucq"
)

// Perm assigns to each relation a permutation of its attribute positions —
// the π of Section 4.2. Relations absent from the map use the identity
// permutation.
type Perm map[string][]int

// IdentityPerm returns the identity permutation for every relation of the
// database.
func IdentityPerm(db *engine.Database) Perm {
	p := Perm{}
	for _, name := range db.Relations() {
		r := db.Relation(name)
		idx := make([]int, r.Arity())
		for i := range idx {
			idx[i] = i
		}
		p[name] = idx
	}
	return p
}

// SeparatorFirstPerm returns a permutation that places the separator's
// attribute position first in every relation it mentions and keeps the
// remaining attributes in schema order — the heuristic of Section 4.2
// ("every attribute holding a separator variable occurs first").
func SeparatorFirstPerm(db *engine.Database, sep ucq.Separator) Perm {
	p := IdentityPerm(db)
	for rel, pos := range sep.RelPos {
		r := db.Relation(rel)
		if r == nil {
			continue
		}
		perm := make([]int, 0, r.Arity())
		perm = append(perm, pos)
		for i := 0; i < r.Arity(); i++ {
			if i != pos {
				perm = append(perm, i)
			}
		}
		p[rel] = perm
	}
	return p
}

// Validate checks that the permutation is a bijection on each relation's
// attribute positions.
func (p Perm) Validate(db *engine.Database) error {
	for rel, perm := range p {
		r := db.Relation(rel)
		if r == nil {
			return fmt.Errorf("obdd: permutation for unknown relation %s", rel)
		}
		if len(perm) != r.Arity() {
			return fmt.Errorf("obdd: permutation for %s has length %d, arity is %d", rel, len(perm), r.Arity())
		}
		seen := make([]bool, r.Arity())
		for _, i := range perm {
			if i < 0 || i >= r.Arity() || seen[i] {
				return fmt.Errorf("obdd: permutation for %s is not a bijection: %v", rel, perm)
			}
			seen[i] = true
		}
	}
	return nil
}

// TupleOrder computes the variable order Π of Section 4.2: probabilistic
// tuples are ordered by the lexicographic comparison of their permuted value
// sequences (prefix-first, so a tuple whose permuted key is a prefix of
// another's comes earlier, mirroring the recursive grouping of the paper);
// ties across relations break by arity ("order the relation names from
// smaller to larger arities"), then by relation name. Tuple keys are unique
// within a relation, so the order is total.
func TupleOrder(db *engine.Database, pi Perm) []int {
	type entry struct {
		v   int
		off int // start of the permuted key in the shared backing array
		n   int // key length (= arity)
		rel string
	}
	// All keys live in one backing array instead of one small slice per
	// probabilistic tuple — TupleOrder runs once per full compilation over
	// every tuple, and the per-tuple allocations dominated its profile.
	var keys []engine.Value
	var entries []entry
	for _, name := range db.Relations() {
		r := db.Relation(name)
		if r.Deterministic {
			continue
		}
		perm := pi.of(r)
		for _, t := range r.Tuples {
			if t.Var == 0 {
				continue
			}
			off := len(keys)
			for _, c := range perm {
				keys = append(keys, t.Vals[c])
			}
			entries = append(entries, entry{v: t.Var, off: off, n: len(perm), rel: name})
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		return compareKeys(keys[a.off:a.off+a.n], a.rel, keys[b.off:b.off+b.n], b.rel) < 0
	})
	out := make([]int, len(entries))
	for i, e := range entries {
		out[i] = e.v
	}
	return out
}

// of returns the permutation of a relation's attribute positions (identity
// for relations the Perm does not mention).
func (p Perm) of(r *engine.Relation) []int {
	if perm, ok := p[r.Name]; ok {
		return perm
	}
	perm := make([]int, r.Arity())
	for i := range perm {
		perm[i] = i
	}
	return perm
}

// compareKeys is Π's comparison of two permuted tuple keys: lexicographic,
// prefix (smaller arity) first, then relation name.
func compareKeys(ka []engine.Value, relA string, kb []engine.Value, relB string) int {
	for k := 0; k < len(ka) && k < len(kb); k++ {
		if c := ka[k].Compare(kb[k]); c != 0 {
			return c
		}
	}
	switch {
	case len(ka) != len(kb):
		return len(ka) - len(kb)
	case relA < relB:
		return -1
	case relA > relB:
		return 1
	}
	return 0
}

// patchOrder derives the variable order of a mutated database from the order
// a manager was compiled under before the mutation, in O(vars + k log vars)
// for k changed tuples instead of re-sorting every tuple: variables varMap
// drops (deleted tuples) are removed, and every changed tuple that now exists
// is inserted at its Π position among the survivors, found by binary search.
//
// When old is the static Π order the result is exactly TupleOrder(db, pi).
// When old is a learned (sifted) order, survivors keep their learned relative
// order — so every clean block can be copied level by level — and the binary
// search still lands a new variable inside its own separator-value region.
// That rests on the learned order keeping every separator value's variables
// contiguous — the caller's sifting windows must not span two values (the
// MV-index's span one chain block's own levels, never the unconstrained
// tuples between blocks): the "precedes the new tuple" predicate is then
// monotone outside the region, also an empty one, and the search can only
// stop at a transition inside it (or at its edges).
func patchOrder(old []int, varMap func(int) (int, bool), db *engine.Database, pi Perm, changed []ChangedTuple) []int {
	survivors := make([]int, 0, len(old))
	for _, v := range old {
		if nv, ok := varMap(v); ok {
			survivors = append(survivors, nv)
		}
	}
	type insertion struct {
		at, v int
		key   []engine.Value
		rel   string
	}
	var ins []insertion
	permuted := func(r *engine.Relation, vals []engine.Value) []engine.Value {
		perm := pi.of(r)
		key := make([]engine.Value, len(perm))
		for i, c := range perm {
			key[i] = vals[c]
		}
		return key
	}
next:
	for _, ct := range changed {
		r := db.Relation(ct.Rel)
		if r == nil || r.Deterministic {
			continue
		}
		ti := r.Lookup(ct.Vals)
		if ti < 0 || r.Tuples[ti].Var == 0 {
			continue // deleted (or deterministic): nothing to insert
		}
		v := r.Tuples[ti].Var
		for _, in := range ins {
			if in.v == v {
				continue next // listed twice (delete + re-insert in one batch)
			}
		}
		key := permuted(r, ct.Vals)
		at := sort.Search(len(survivors), func(i int) bool {
			rel, t, err := db.VarTuple(survivors[i])
			if err != nil {
				return false
			}
			return compareKeys(permuted(db.Relation(rel), t.Vals), rel, key, ct.Rel) >= 0
		})
		ins = append(ins, insertion{at: at, v: v, key: key, rel: ct.Rel})
	}
	if len(ins) == 0 {
		return survivors
	}
	sort.Slice(ins, func(i, j int) bool {
		if ins[i].at != ins[j].at {
			return ins[i].at < ins[j].at
		}
		return compareKeys(ins[i].key, ins[i].rel, ins[j].key, ins[j].rel) < 0
	})
	out := make([]int, 0, len(survivors)+len(ins))
	from := 0
	for _, in := range ins {
		out = append(out, survivors[from:in.at]...)
		out = append(out, in.v)
		from = in.at
	}
	return append(out, survivors[from:]...)
}
