package engine

import (
	"fmt"
	"math"
	"slices"
)

// Mutations. The engine supports in-place deletion and reweighting of
// tuples in addition to insertion. Variable ids are never reused: deleting a
// probabilistic tuple tombstones its variable (saved as VarRef{Rel: "", Pos: -1}) so
// every id handed out earlier keeps meaning the same tuple forever. A dead
// variable has weight 0 — in the odds semantics of Definition 2 that is a
// tuple that is false in every positive-probability world, i.e. absent —
// so probability vectors built after a delete stay well-formed.
//
// Like inserts, mutations must be exclusive: no reader may run alongside one
// (internal/server holds its write lock across a batch).

// Dead reports whether the reference is a tombstone left by DeleteTuple.
func (ref VarRef) Dead() bool { return ref.Rel == "" }

// HasTuple reports whether the relation holds a tuple with exactly these
// values.
func (db *Database) HasTuple(rel string, vals []Value) bool {
	r := db.rels[rel]
	return r != nil && r.Lookup(vals) >= 0
}

// DeleteTuple removes the tuple with exactly the given values. The vacated
// slot is filled by swapping in the relation's last tuple (the variable
// registry is re-pointed at the new position), the hash indexes are patched
// in place, the sorted indexes are invalidated, and a probabilistic tuple's
// variable is tombstoned. It returns the freed variable id (0 for
// deterministic tuples).
func (db *Database) DeleteTuple(rel string, vals []Value) (int, error) {
	r := db.rels[rel]
	if r == nil {
		return 0, fmt.Errorf("engine: unknown relation %s", rel)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	key := string(AppendTupleKey(nil, vals))
	idx, ok := r.byKey[key]
	if !ok {
		return 0, fmt.Errorf("engine: no tuple %s%s", rel, FormatTuple(vals))
	}
	t := r.Tuples[idx]
	last := len(r.Tuples) - 1
	moved := r.Tuples[last]
	if idx != last {
		r.Tuples[idx] = moved
		r.byKey[string(AppendTupleKey(nil, moved.Vals))] = idx
		if moved.Var != 0 {
			db.vars.slots[moved.Var-1].pos = idx
		}
	}
	r.Tuples[last] = Tuple{}
	r.Tuples = r.Tuples[:last]
	delete(r.byKey, key)
	// Patch the hash indexes in place — drop the deleted tuple's entry, then
	// re-point the swapped-in tuple's entry from last to idx. Rebuilding them
	// wholesale would make every delete O(relation), which the live-update
	// path cannot afford.
	for col := range r.indexes {
		ix := r.indexes[col].Load()
		if ix == nil {
			continue
		}
		ix.drop(t.Vals[col], idx)
		if idx != last {
			b := ix.bucket(moved.Vals[col])
			if i := slices.Index(b, last); i >= 0 {
				b[i] = idx
			}
		}
	}
	// Sorted indexes hold positions ordered by value; a swap-remove cannot be
	// patched cheaply, so let the next range scan rebuild.
	r.sorted = nil
	if t.Var != 0 {
		db.vars.slots[t.Var-1] = varSlot{}
	}
	return t.Var, nil
}

// UpdateWeight sets the weight (odds) of the probabilistic tuple with
// exactly the given values and returns its variable id.
func (db *Database) UpdateWeight(rel string, vals []Value, w float64) (int, error) {
	r := db.rels[rel]
	if r == nil {
		return 0, fmt.Errorf("engine: unknown relation %s", rel)
	}
	if r.Deterministic {
		return 0, fmt.Errorf("engine: relation %s is deterministic", rel)
	}
	if math.IsNaN(w) {
		return 0, fmt.Errorf("engine: weight for %s%s is NaN", rel, FormatTuple(vals))
	}
	idx := r.Lookup(vals)
	if idx < 0 {
		return 0, fmt.Errorf("engine: no tuple %s%s", rel, FormatTuple(vals))
	}
	r.Tuples[idx].Weight = w
	return r.Tuples[idx].Var, nil
}
