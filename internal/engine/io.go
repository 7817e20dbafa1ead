package engine

import (
	"encoding/csv"
	"encoding/gob"
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
// tombstones. Indexes are not stored; they are rebuilt lazily after
// restoring.
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

// FromSnapshot rebuilds a database from a snapshot, validating the variable
// registry against the relations.
func FromSnapshot(s DatabaseSnapshot) (*Database, error) {
	db := NewDatabase()
	for _, rs := range s.Relations {
		rel, err := db.CreateRelation(rs.Name, rs.Deterministic, rs.Cols...)
		if err != nil {
			return nil, err
		}
		rel.Tuples = rs.Tuples
		for i, t := range rs.Tuples {
			rel.byKey[string(AppendTupleKey(nil, t.Vals))] = i
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

// Save serializes the database with encoding/gob.
func (db *Database) Save(w io.Writer) error {
	return gob.NewEncoder(w).Encode(db.Snapshot())
}

// ReadDatabase deserializes a database written by Save.
func ReadDatabase(r io.Reader) (*Database, error) {
	var s DatabaseSnapshot
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("engine: decoding database: %w", err)
	}
	return FromSnapshot(s)
}

// CSVColumn describes one column when importing CSV data.
type CSVColumn int

// Column kinds for ImportCSV.
const (
	CSVInt CSVColumn = iota
	CSVString
)

// ImportCSV loads rows into an existing relation. For probabilistic
// relations the last CSV field is the tuple weight (odds); deterministic
// relations consume exactly one field per column. Header is the caller's
// business (skip it before calling, or pass hasHeader).
func (db *Database) ImportCSV(rel string, r io.Reader, cols []CSVColumn, hasHeader bool) (int, error) {
	rl := db.Relation(rel)
	if rl == nil {
		return 0, fmt.Errorf("engine: unknown relation %s", rel)
	}
	if len(cols) != rl.Arity() {
		return 0, fmt.Errorf("engine: relation %s has %d columns, got %d kinds", rel, rl.Arity(), len(cols))
	}
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	n := 0
	first := true
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return n, fmt.Errorf("engine: csv: %w", err)
		}
		if first && hasHeader {
			first = false
			continue
		}
		first = false
		wantFields := len(cols)
		if !rl.Deterministic {
			wantFields++
		}
		if len(rec) != wantFields {
			return n, fmt.Errorf("engine: csv row has %d fields, want %d", len(rec), wantFields)
		}
		vals := make([]Value, len(cols))
		for i, kind := range cols {
			switch kind {
			case CSVInt:
				x, err := strconv.ParseInt(rec[i], 10, 64)
				if err != nil {
					return n, fmt.Errorf("engine: csv column %d: %w", i, err)
				}
				vals[i] = Int(x)
			default:
				vals[i] = Str(rec[i])
			}
		}
		if rl.Deterministic {
			if err := db.InsertDet(rel, vals...); err != nil {
				return n, err
			}
		} else {
			w, err := strconv.ParseFloat(rec[len(rec)-1], 64)
			if err != nil {
				return n, fmt.Errorf("engine: csv weight: %w", err)
			}
			if _, err := db.Insert(rel, w, vals...); err != nil {
				return n, err
			}
		}
		n++
	}
	return n, nil
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
