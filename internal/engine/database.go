package engine

import (
	"fmt"
	"slices"
	"sort"
)

// VarRef locates the tuple behind a Boolean variable.
type VarRef struct {
	Rel string
	Pos int // index into the relation's Tuples
}

// Database is a collection of relations plus the registry of Boolean
// variables attached to probabilistic tuples. Variable ids start at 1; id 0
// is reserved for "no variable" (deterministic tuples).
//
// Several databases can be handles on one store (see Share): they hold the
// same *Relation objects and one variable registry, so a variable id means
// the same tuple in all of them.
type Database struct {
	rels  map[string]*Relation
	order []string

	vars *varTable
}

// varTable is the variable registry: slots[i-1] locates variable i.
type varTable struct{ slots []varSlot }

// varSlot locates the tuple behind one variable; rel is nil for a tombstone.
type varSlot struct {
	rel *Relation
	pos int
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{rels: make(map[string]*Relation), vars: &varTable{}}
}

// Share returns a second handle on db's store, copying nothing: the same
// *Relation objects and the same variable registry, minus the dropped
// relations. A tuple inserted into, deleted from or reweighted in a shared
// relation through either handle is seen by both, under one variable id; a
// relation created on one handle afterwards is private to it. A handle holds
// the variables of its own relations only: VarRef, Alive, Probs, Snapshot
// and Clone treat every other variable like a tombstone. The MarkoView
// translation is such a handle on its source MVDB's database.
func (db *Database) Share(drop ...string) *Database {
	out := &Database{rels: make(map[string]*Relation, len(db.rels)), vars: db.vars}
	for _, name := range db.order {
		if !slices.Contains(drop, name) {
			out.rels[name] = db.rels[name]
			out.order = append(out.order, name)
		}
	}
	return out
}

// owns reports whether the slot is a live variable of one of db's relations.
func (db *Database) owns(s varSlot) bool {
	return s.rel != nil && db.rels[s.rel.Name] == s.rel
}

// CreateRelation adds a new relation. Deterministic relations only accept
// tuples inserted with InsertDet.
func (db *Database) CreateRelation(name string, deterministic bool, cols ...string) (*Relation, error) {
	if _, exists := db.rels[name]; exists {
		return nil, fmt.Errorf("engine: relation %s already exists", name)
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("engine: relation %s must have at least one column", name)
	}
	seen := map[string]bool{}
	for _, c := range cols {
		if seen[c] {
			return nil, fmt.Errorf("engine: relation %s has duplicate column %s", name, c)
		}
		seen[c] = true
	}
	r := newRelation(name, deterministic, cols, 0)
	db.rels[name] = r
	db.order = append(db.order, name)
	return r, nil
}

// MustCreateRelation is CreateRelation but panics on error; intended for
// static schema setup in tests and generators.
func (db *Database) MustCreateRelation(name string, deterministic bool, cols ...string) *Relation {
	r, err := db.CreateRelation(name, deterministic, cols...)
	if err != nil {
		panic(err)
	}
	return r
}

// Relation returns the named relation, or nil.
func (db *Database) Relation(name string) *Relation { return db.rels[name] }

// Relations returns the relation names in creation order.
func (db *Database) Relations() []string { return append([]string(nil), db.order...) }

// InsertDet inserts a deterministic tuple.
func (db *Database) InsertDet(rel string, vals ...Value) error {
	r := db.rels[rel]
	if r == nil {
		return fmt.Errorf("engine: unknown relation %s", rel)
	}
	_, err := r.insert(Tuple{Vals: vals, Weight: Deterministic})
	return err
}

// Insert inserts a probabilistic tuple with the given weight (odds) and
// returns the fresh Boolean variable attached to it. Inserting into a
// deterministic relation is an error unless the weight is Deterministic.
func (db *Database) Insert(rel string, weight float64, vals ...Value) (int, error) {
	r := db.rels[rel]
	if r == nil {
		return 0, fmt.Errorf("engine: unknown relation %s", rel)
	}
	if r.Deterministic {
		if weight != Deterministic {
			return 0, fmt.Errorf("engine: relation %s is deterministic", rel)
		}
		_, err := r.insert(Tuple{Vals: vals, Weight: Deterministic})
		return 0, err
	}
	v := len(db.vars.slots) + 1
	pos, err := r.insert(Tuple{Vals: vals, Var: v, Weight: weight})
	if err != nil {
		return 0, err
	}
	db.vars.slots = append(db.vars.slots, varSlot{rel: r, pos: pos})
	return v, nil
}

// MustInsert is Insert but panics on error.
func (db *Database) MustInsert(rel string, weight float64, vals ...Value) int {
	v, err := db.Insert(rel, weight, vals...)
	if err != nil {
		panic(err)
	}
	return v
}

// MustInsertDet is InsertDet but panics on error.
func (db *Database) MustInsertDet(rel string, vals ...Value) {
	if err := db.InsertDet(rel, vals...); err != nil {
		panic(err)
	}
}

// NumVars returns the size of the variable id space: every id handed out
// so far, by this handle or another on the same store (see Share).
func (db *Database) NumVars() int { return len(db.vars.slots) }

// VarRef returns the location of variable v. Variables tombstoned by
// DeleteTuple are reported as errors: their tuples no longer exist; so are
// the variables of relations this handle does not hold.
func (db *Database) VarRef(v int) (VarRef, error) {
	if v < 1 || v > len(db.vars.slots) {
		return VarRef{}, fmt.Errorf("engine: variable %d out of range", v)
	}
	s := db.vars.slots[v-1]
	if !db.owns(s) {
		return VarRef{}, fmt.Errorf("engine: variable %d refers to a deleted tuple or to a relation outside this database", v)
	}
	return VarRef{Rel: s.rel.Name, Pos: s.pos}, nil
}

// Alive reports whether v is the variable of an existing tuple of one of
// db's relations (in range, not tombstoned by DeleteTuple).
func (db *Database) Alive(v int) bool {
	return v >= 1 && v <= len(db.vars.slots) && db.owns(db.vars.slots[v-1])
}

// VarTuple returns the tuple behind variable v.
func (db *Database) VarTuple(v int) (rel string, t Tuple, err error) {
	ref, err := db.VarRef(v)
	if err != nil {
		return "", Tuple{}, err
	}
	return ref.Rel, db.rels[ref.Rel].Tuples[ref.Pos], nil
}

// Weight returns the weight (odds) of variable v. A tombstoned variable has
// weight 0: odds 0 pins the tuple false in every world, which is exactly
// "deleted".
func (db *Database) Weight(v int) float64 {
	s := db.vars.slots[v-1]
	if s.rel == nil {
		return 0
	}
	return s.rel.Tuples[s.pos].Weight
}

// SetWeight overrides the weight of variable v; a no-op for tombstoned
// variables.
func (db *Database) SetWeight(v int, w float64) {
	if s := db.vars.slots[v-1]; s.rel != nil {
		s.rel.Tuples[s.pos].Weight = w
	}
}

// Prob returns the marginal probability of variable v: w/(1+w).
func (db *Database) Prob(v int) float64 { return WeightToProb(db.Weight(v)) }

// Probs returns a slice indexed by variable id (entry 0 unused) with the
// marginal probability of every variable of db's relations, 0 for the rest.
// This is the vector exact inference methods consume; entries may be
// negative.
func (db *Database) Probs() []float64 {
	ps := make([]float64, len(db.vars.slots)+1)
	for i, s := range db.vars.slots {
		if db.owns(s) {
			ps[i+1] = WeightToProb(s.rel.Tuples[s.pos].Weight)
		}
	}
	return ps
}

// ActiveDomain returns the sorted set of all values appearing anywhere in the
// database.
func (db *Database) ActiveDomain() []Value {
	seen := map[string]Value{}
	for _, name := range db.order {
		for _, t := range db.rels[name].Tuples {
			for _, v := range t.Vals {
				seen[v.Key()] = v
			}
		}
	}
	out := make([]Value, 0, len(seen))
	for _, v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// Stats summarizes the database: per-relation tuple counts.
type Stats struct {
	Relation      string
	Deterministic bool
	Tuples        int
}

// Stats returns per-relation statistics in creation order.
func (db *Database) Stats() []Stats {
	out := make([]Stats, 0, len(db.order))
	for _, name := range db.order {
		r := db.rels[name]
		out = append(out, Stats{Relation: name, Deterministic: r.Deterministic, Tuples: len(r.Tuples)})
	}
	return out
}

// Clone deep-copies the database: its relations, their tuples and its
// variables, which keep their ids (every other id of the store becomes a
// tombstone in the copy). Indexes are rebuilt lazily on the copy. The clone
// shares no mutable state with the original, so a mutation batch can be
// tried on it without touching the live store.
func (db *Database) Clone() *Database {
	out := &Database{
		rels:  make(map[string]*Relation, len(db.rels)),
		order: append([]string(nil), db.order...),
		vars:  &varTable{slots: make([]varSlot, len(db.vars.slots))},
	}
	for name, r := range db.rels {
		nr := newRelation(r.Name, r.Deterministic, r.Cols, len(r.byKey))
		nr.Tuples = make([]Tuple, len(r.Tuples))
		// One backing array for every tuple's values; each tuple's slice is
		// capped at its own length so an append can never spill into the next.
		vals := make([]Value, 0, len(r.Tuples)*len(r.Cols))
		for i, t := range r.Tuples {
			o := len(vals)
			vals = append(vals, t.Vals...)
			nr.Tuples[i] = Tuple{Vals: vals[o:len(vals):len(vals)], Var: t.Var, Weight: t.Weight}
		}
		for k, v := range r.byKey {
			nr.byKey[k] = v
		}
		out.rels[name] = nr
	}
	for i, s := range db.vars.slots {
		if db.owns(s) {
			out.vars.slots[i] = varSlot{rel: out.rels[s.rel.Name], pos: s.pos}
		}
	}
	return out
}
