package engine

import (
	"fmt"
	"math"
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
// registry is re-pointed at the new position), the key table and column
// indexes are patched in place, the sorted indexes are invalidated, and a
// probabilistic tuple's variable is tombstoned. It returns the freed variable
// id (0 for deterministic tuples).
func (db *Database) DeleteTuple(rel string, vals []Value) (int, error) {
	r := db.rels[rel]
	if r == nil {
		return 0, fmt.Errorf("engine: unknown relation %s", rel)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	slot, idx := r.keys.find(r.Tuples, vals)
	if idx < 0 {
		return 0, fmt.Errorf("engine: no tuple %s%s", rel, FormatTuple(vals))
	}
	t := r.Tuples[idx]
	last := len(r.Tuples) - 1
	moved := r.Tuples[last]
	// Patch the key table and the column indexes in place while the tuples
	// they hash still stand where they were: drop the deleted tuple, then
	// relabel the swapped-in one from last to idx, keeping its place in its
	// chains. Rebuilding them wholesale would make every delete O(relation),
	// which the live-update path cannot afford.
	r.keys.remove(r.Tuples, slot)
	if idx != last {
		movedSlot, _ := r.keys.find(r.Tuples, moved.Vals)
		r.keys.slots[movedSlot] = int32(idx + 1)
	}
	for col := range r.indexes {
		ix := r.indexes[col].Load()
		if ix == nil {
			continue
		}
		ix.drop(r.Tuples, idx)
		if idx != last {
			ix.move(r.Tuples, last, idx)
		}
		ix.next = ix.next[:last]
	}
	if idx != last {
		r.Tuples[idx] = moved
		if moved.Var != 0 {
			db.vars.slots[moved.Var-1].pos = idx
		}
	}
	r.Tuples[last] = Tuple{}
	r.Tuples = r.Tuples[:last]
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
