package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"sort"

	"mvdb/internal/engine"
	"mvdb/internal/ucq"
)

// MutationOp names one kind of base-table mutation.
type MutationOp string

// The supported mutations. Reweight changes the odds of an existing
// probabilistic tuple; insert and delete change the set of possible tuples
// (and therefore the view materializations and the translated W lineage).
const (
	MutInsert   MutationOp = "insert"
	MutDelete   MutationOp = "delete"
	MutReweight MutationOp = "reweight"
)

// Mutation is one base-table change. Vals identifies the tuple (the full
// tuple is the key, as everywhere in the engine); Weight is the new odds for
// insert and reweight and ignored for delete.
type Mutation struct {
	Op     MutationOp
	Rel    string
	Vals   []engine.Value
	Weight float64
}

func (mu Mutation) String() string {
	return fmt.Sprintf("%s %s%s", mu.Op, mu.Rel, engine.FormatTuple(mu.Vals))
}

// WeightOnly reports whether every mutation in the batch is a reweight —
// the fast path that leaves the translated database's structure (and its
// OBDD) untouched.
func WeightOnly(batch []Mutation) bool {
	for _, mu := range batch {
		if mu.Op != MutReweight {
			return false
		}
	}
	return len(batch) > 0
}

// ValidateBatch checks a mutation batch against the MVDB without applying
// anything, simulating the batch's sequential semantics (an insert followed
// by a delete of the same tuple is fine). A nil error guarantees Apply will
// succeed on the same state. Mutations may only target the base tables; the
// NV relations of a translation exist only in the translation's handle on
// the database, so they are unreachable here by construction.
func (m *MVDB) ValidateBatch(batch []Mutation) error {
	if len(batch) == 0 {
		return fmt.Errorf("core: empty mutation batch")
	}
	// exists[rel+key]: tri-state via two maps — overrides recorded by the
	// simulation shadow the database.
	override := map[string]bool{}
	key := func(mu Mutation) string { return mu.Rel + "\x00" + engine.TupleKey(mu.Vals) }
	exists := func(mu Mutation) bool {
		if v, ok := override[key(mu)]; ok {
			return v
		}
		return m.DB.HasTuple(mu.Rel, mu.Vals)
	}
	for i, mu := range batch {
		r := m.DB.Relation(mu.Rel)
		if r == nil {
			return fmt.Errorf("core: mutation %d: unknown relation %s", i, mu.Rel)
		}
		if len(mu.Vals) != r.Arity() {
			return fmt.Errorf("core: mutation %d: relation %s has arity %d, got %d values", i, mu.Rel, r.Arity(), len(mu.Vals))
		}
		switch mu.Op {
		case MutInsert:
			if exists(mu) {
				return fmt.Errorf("core: mutation %d: duplicate tuple %s%s", i, mu.Rel, engine.FormatTuple(mu.Vals))
			}
			if !r.Deterministic {
				if err := checkBaseWeight(mu.Weight); err != nil {
					return fmt.Errorf("core: mutation %d: %w", i, err)
				}
			}
			override[key(mu)] = true
		case MutDelete:
			if !exists(mu) {
				return fmt.Errorf("core: mutation %d: no tuple %s%s", i, mu.Rel, engine.FormatTuple(mu.Vals))
			}
			override[key(mu)] = false
		case MutReweight:
			if r.Deterministic {
				return fmt.Errorf("core: mutation %d: relation %s is deterministic", i, mu.Rel)
			}
			if !exists(mu) {
				return fmt.Errorf("core: mutation %d: no tuple %s%s", i, mu.Rel, engine.FormatTuple(mu.Vals))
			}
			if err := checkBaseWeight(mu.Weight); err != nil {
				return fmt.Errorf("core: mutation %d: %w", i, err)
			}
		default:
			return fmt.Errorf("core: mutation %d: unknown op %q", i, mu.Op)
		}
	}
	return nil
}

// checkBaseWeight enforces Definition 4's constraint on base-tuple weights:
// finite and non-negative (negative weights exist only on translated NV
// tuples, which are never mutated directly).
func checkBaseWeight(w float64) error {
	if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
		return fmt.Errorf("base tuple weight %v must be finite and non-negative", w)
	}
	return nil
}

// Apply applies a validated batch to the MVDB's base tables in order.
// Callers must run ValidateBatch first (Apply re-checks nothing beyond what
// the engine enforces) and must hold whatever lock protects the database.
func (m *MVDB) Apply(batch []Mutation) error {
	for i, mu := range batch {
		if _, err := apply(m.DB, mu); err != nil {
			return fmt.Errorf("core: applying mutation %d (%s): %w", i, mu, err)
		}
	}
	return nil
}

// apply applies one mutation to db and returns the variable it created,
// freed or reweighted (0 for deterministic tuples).
func apply(db *engine.Database, mu Mutation) (int, error) {
	switch mu.Op {
	case MutInsert:
		if db.Relation(mu.Rel).Deterministic {
			return 0, db.InsertDet(mu.Rel, mu.Vals...)
		}
		return db.Insert(mu.Rel, mu.Weight, mu.Vals...)
	case MutDelete:
		return db.DeleteTuple(mu.Rel, mu.Vals)
	case MutReweight:
		return db.UpdateWeight(mu.Rel, mu.Vals, mu.Weight)
	}
	return 0, fmt.Errorf("unknown op %q", mu.Op)
}

// EncodeMutations gobs a batch into the opaque record form carried by WAL
// frames and the replication stream — one codec, so a frame a follower
// receives is bit-identical to the one the primary logged.
func EncodeMutations(batch []Mutation) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(batch); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeMutations reverses EncodeMutations.
func DecodeMutations(rec []byte) ([]Mutation, error) {
	var batch []Mutation
	if err := gob.NewDecoder(bytes.NewReader(rec)).Decode(&batch); err != nil {
		return nil, err
	}
	return batch, nil
}

// WeightTable is a serializable weight assignment for a view's output
// tuples: a default weight plus per-head-tuple overrides keyed by
// engine.TupleKey of the head values. It replaces Go-closure WeightFns where
// the MVDB must survive snapshot/restore (the live-update write path).
type WeightTable struct {
	Default float64
	ByHead  map[string]float64
}

// Weight looks up the weight of one head tuple.
func (wt *WeightTable) Weight(head []engine.Value) float64 {
	if w, ok := wt.ByHead[engine.TupleKey(head)]; ok {
		return w
	}
	return wt.Default
}

// Set records a per-head override.
func (wt *WeightTable) Set(head []engine.Value, w float64) {
	if wt.ByHead == nil {
		wt.ByHead = map[string]float64{}
	}
	wt.ByHead[engine.TupleKey(head)] = w
}

// ViewSnapshot is the serializable form of one MarkoView. Only table-
// weighted views can be snapshotted; closure weights do not survive gob. The
// weight table is written as its default and its per-head overrides sorted
// by key — not as the map, which gob writes in Go's random iteration order —
// so two snapshots of one MVDB are byte-identical.
type ViewSnapshot struct {
	Name    string
	Head    []string
	Def     ucq.UCQ
	Default float64
	Heads   []HeadWeight
}

// HeadWeight is one per-head override of a WeightTable.
type HeadWeight struct {
	Key    string
	Weight float64
}

// ViewSnapshots captures the MVDB's view definitions with their weight
// tables — what the live server persists, beside the database, so mutations
// can be re-translated after recovery. It errors when a view carries only a
// closure WeightFn: such views cannot be restored (convert them to
// WeightTables).
func (m *MVDB) ViewSnapshots() ([]ViewSnapshot, error) {
	var out []ViewSnapshot
	for _, v := range m.Views {
		if v.Weights == nil {
			return nil, fmt.Errorf("core: view %s has closure weights; only WeightTable-backed views can be snapshotted", v.Name)
		}
		vs := ViewSnapshot{Name: v.Name, Head: append([]string(nil), v.Head...), Def: v.Def, Default: v.Weights.Default}
		for k, w := range v.Weights.ByHead {
			vs.Heads = append(vs.Heads, HeadWeight{k, w})
		}
		sort.Slice(vs.Heads, func(i, j int) bool { return vs.Heads[i].Key < vs.Heads[j].Key })
		out = append(out, vs)
	}
	return out, nil
}
