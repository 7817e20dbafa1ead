package engine

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// DatabaseSnapshot is the gob-serializable form of a Database, exported so
// callers can embed it in larger snapshot messages (the MV-index does).
type DatabaseSnapshot struct {
	Relations []RelationSnapshot
	Vars      []VarRef
}

// RelationSnapshot is one serialized relation.
type RelationSnapshot struct {
	Name          string
	Cols          []string
	Deterministic bool
	Tuples        []Tuple
}

// Snapshot captures the database's state: its relations and the variable
// registry, in which the variables of relations outside this handle are
// tombstones. Indexes are not stored: FromSnapshot rebuilds the key table,
// and the column indexes are rebuilt lazily.
func (db *Database) Snapshot() DatabaseSnapshot {
	s := DatabaseSnapshot{Vars: make([]VarRef, len(db.vars.slots))}
	for i, vs := range db.vars.slots {
		s.Vars[i] = VarRef{Pos: -1}
		if db.owns(vs) {
			s.Vars[i] = VarRef{Rel: vs.rel.Name, Pos: vs.pos}
		}
	}
	for _, name := range db.order {
		r := db.rels[name]
		s.Relations = append(s.Relations, RelationSnapshot{
			Name: r.Name, Cols: r.Cols, Deterministic: r.Deterministic, Tuples: r.Tuples,
		})
	}
	return s
}

// FromSnapshot rebuilds a database from a snapshot, validating each
// relation's tuples (arity, no repeats) and the variable registry against
// the relations.
func FromSnapshot(s DatabaseSnapshot) (*Database, error) {
	db := NewDatabase()
	for _, rs := range s.Relations {
		rel, err := db.CreateRelation(rs.Name, rs.Deterministic, rs.Cols...)
		if err != nil {
			return nil, err
		}
		if err := rel.restore(rs.Tuples); err != nil {
			return nil, err
		}
	}
	db.vars.slots = make([]varSlot, len(s.Vars))
	for i, ref := range s.Vars {
		if ref.Dead() {
			continue // tombstone of a deleted tuple
		}
		rel := db.rels[ref.Rel]
		if rel == nil || ref.Pos < 0 || ref.Pos >= len(rel.Tuples) {
			return nil, fmt.Errorf("engine: variable %d references missing tuple %s[%d]", i+1, ref.Rel, ref.Pos)
		}
		if rel.Tuples[ref.Pos].Var != i+1 {
			return nil, fmt.Errorf("engine: variable registry inconsistent at %d", i+1)
		}
		db.vars.slots[i] = varSlot{rel: rel, pos: ref.Pos}
	}
	return db, nil
}

// ExportCSV writes a relation as CSV; probabilistic relations get a
// trailing weight field.
func (db *Database) ExportCSV(rel string, w io.Writer) error {
	rl := db.Relation(rel)
	if rl == nil {
		return fmt.Errorf("engine: unknown relation %s", rel)
	}
	cw := csv.NewWriter(w)
	defer cw.Flush()
	for _, t := range rl.Tuples {
		rec := make([]string, 0, len(t.Vals)+1)
		for _, v := range t.Vals {
			if v.IsStr {
				rec = append(rec, v.Str)
			} else {
				rec = append(rec, strconv.FormatInt(v.Int, 10))
			}
		}
		if !rl.Deterministic {
			rec = append(rec, strconv.FormatFloat(t.Weight, 'g', -1, 64))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	return nil
}
