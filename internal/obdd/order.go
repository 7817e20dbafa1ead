package obdd

import (
	"fmt"
	"slices"
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

// PatchOrder returns an empty manager over the variable order of a mutated
// database, derived from the order old was compiled under without re-sorting:
// variables of deleted tuples are removed and every changed tuple that now
// exists is inserted at its Π position, found by binary search. Node stores
// compiled over the result share its order tables.
//
// varMap translates old variable ids into the new database's and reports
// deleted tuples' variables as unmapped; nil means the database was mutated
// in place, which never renumbers (deletes tombstone, inserts append) and
// names every freed variable in a changed tuple's Var. That route touches
// only the changed variables plus one flat copy of the two level arrays.
//
// When old is the static Π order the result is exactly TupleOrder(db, pi).
// When old is a learned (sifted) order, survivors keep their learned relative
// order — so every clean block keeps its shape — and the binary search still
// lands a new variable inside its own separator-value region. That rests on
// the learned order keeping every separator value's variables contiguous —
// the caller's sifting windows must not span two values (the MV-index's span
// one chain block's own levels, never the unconstrained tuples between
// blocks): the "precedes the new tuple" predicate is then monotone outside
// the region, also an empty one, and the search can only stop at a
// transition inside it (or at its edges).
func PatchOrder(old *Manager, varMap func(int) (int, bool), db *engine.Database, pi Perm, changed []ChangedTuple) *Manager {
	if varMap != nil {
		// Renumbered: carry the survivors over, then insert as in place.
		var survivors []int
		for _, v := range old.levelVar {
			if nv, ok := varMap(int(v)); ok {
				survivors = append(survivors, nv)
			}
		}
		old = NewManager(survivors)
	}
	// The search runs over the old levels, where a deleted variable still
	// sits under its tuple's key, taken from the changed list.
	gone := map[int]ChangedTuple{}
	var dels []int // levels of the deleted variables, ascending
	for _, ct := range changed {
		if l := old.Level(ct.Var); l >= 0 && !db.Alive(ct.Var) {
			if _, dup := gone[ct.Var]; !dup {
				gone[ct.Var] = ct
				dels = append(dels, l)
			}
		}
	}
	sort.Ints(dels)
	ins := insertions(db, pi, changed, len(old.levelVar), func(i int) (string, []engine.Value, bool) {
		if ct, ok := gone[int(old.levelVar[i])]; ok {
			return ct.Rel, ct.Vals, true
		}
		rel, t, err := db.VarTuple(int(old.levelVar[i]))
		return rel, t.Vals, err == nil
	})
	from := len(old.levelVar) // the first level that changes
	if len(dels) > 0 {
		from = dels[0]
	}
	if len(ins) > 0 {
		from = min(from, ins[0].at)
	}
	m := &Manager{
		nodes:    []node{{level: terminalLevel}, {level: terminalLevel}},
		maxLevel: []int32{-1, -1},
		// One allocation, of which only the part past from is cleared.
		levelVar: slices.Grow(old.levelVar[:from:from], len(ins)-len(dels)+len(old.levelVar)-from),
		varLevel: slices.Clone(old.varLevel),
	}
	m.unique.init()
	m.cache.init(old.cache.max)
	// The order: runs of old levels between the changes, copied whole.
	i, j := 0, 0 // next insertion, next deletion
	for l := from; ; {
		next := len(old.levelVar)
		if i < len(ins) {
			next = min(next, ins[i].at)
		}
		if j < len(dels) {
			next = min(next, dels[j])
		}
		m.levelVar = append(m.levelVar, old.levelVar[l:next]...)
		for ; i < len(ins) && ins[i].at == next; i++ {
			m.levelVar = append(m.levelVar, int32(ins[i].v))
		}
		if l = next; j < len(dels) && dels[j] == next {
			j, l = j+1, next+1
		} else if next == len(old.levelVar) {
			break
		}
	}
	// The level table: the old one, grown by the new variables, with the
	// levels from the first change on rewritten.
	for len(m.varLevel) <= db.NumVars() {
		m.varLevel = append(m.varLevel, -1)
	}
	for v := range gone {
		m.varLevel[v] = -1
	}
	for l := from; l < len(m.levelVar); l++ {
		m.varLevel[m.levelVar[l]] = int32(l)
	}
	return m
}

// insertion places one variable before position at of the order searched.
type insertion struct {
	at, v int
	key   []engine.Value
	rel   string
}

// insertions finds, for every changed tuple that exists in db with a
// variable, its Π position in an order of n variables whose i-th tuple keyAt
// reports (ok false: no tuple, never precedes), and returns them sorted by
// position, then key. A tuple listed twice (deleted and re-inserted in one
// batch) is placed once.
func insertions(db *engine.Database, pi Perm, changed []ChangedTuple, n int,
	keyAt func(i int) (rel string, vals []engine.Value, ok bool)) []insertion {
	permuted := func(r *engine.Relation, vals []engine.Value) []engine.Value {
		perm := pi.of(r)
		key := make([]engine.Value, len(perm))
		for i, c := range perm {
			key[i] = vals[c]
		}
		return key
	}
	var ins []insertion
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
				continue next
			}
		}
		key := permuted(r, ct.Vals)
		at := sort.Search(n, func(i int) bool {
			rel, vals, ok := keyAt(i)
			return ok && compareKeys(permuted(db.Relation(rel), vals), rel, key, ct.Rel) >= 0
		})
		ins = append(ins, insertion{at: at, v: v, key: key, rel: ct.Rel})
	}
	sort.Slice(ins, func(i, j int) bool {
		if ins[i].at != ins[j].at {
			return ins[i].at < ins[j].at
		}
		return compareKeys(ins[i].key, ins[i].rel, ins[j].key, ins[j].rel) < 0
	})
	return ins
}
