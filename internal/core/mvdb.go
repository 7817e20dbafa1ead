// Package core implements the paper's contribution: MVDBs — probabilistic
// databases with MarkoViews (Section 2.4) — and their translation to a
// tuple-independent database (Definition 5) together with the Boolean UCQ W
// of Theorem 1:
//
//	P(Q) = (P0(Q ∨ W) - P0(W)) / (1 - P0(W))
//
// plus the mutations and the delta translation of live updates. The MV-index
// (package mvindex) evaluates the right-hand side; the global methods and the
// Definition 4 semantics live in package baseline.
package core

import (
	"fmt"
	"math"

	"mvdb/internal/engine"
	"mvdb/internal/lineage"
	"mvdb/internal/ucq"
)

// WeightFn computes the weight of one MarkoView output tuple from its head
// values. Weights are multiplicative MLN weights: 0 is a hard (denial)
// constraint, 1 independence, values above 1 positive correlation.
type WeightFn func(head []engine.Value) float64

// ConstWeight returns a WeightFn assigning the same weight to every tuple.
func ConstWeight(w float64) WeightFn {
	return func([]engine.Value) float64 { return w }
}

// MarkoView is a weighted UCQ view over the probabilistic and deterministic
// tables (Definition 3). Weights are given either as a closure (Weight) or
// as a serializable WeightTable (Weights); when both are set the table wins.
// Only table-weighted views survive MVDB snapshots.
type MarkoView struct {
	Name    string
	Head    []string
	Def     ucq.UCQ
	Weight  WeightFn
	Weights *WeightTable
}

// WeightOf resolves the view's weight for one head tuple, preferring the
// serializable table over the closure.
func (v *MarkoView) WeightOf(head []engine.Value) float64 {
	if v.Weights != nil {
		return v.Weights.Weight(head)
	}
	return v.Weight(head)
}

// MVDB is a probabilistic database together with its MarkoViews.
type MVDB struct {
	DB    *engine.Database
	Views []*MarkoView
}

// New wraps a database as an MVDB without views (equivalent to an INDB).
func New(db *engine.Database) *MVDB {
	return &MVDB{DB: db}
}

// AddView registers a MarkoView after validating it.
func (m *MVDB) AddView(v *MarkoView) error {
	if v.Name == "" {
		return fmt.Errorf("core: view needs a name")
	}
	for _, existing := range m.Views {
		if existing.Name == v.Name {
			return fmt.Errorf("core: view %s already defined", v.Name)
		}
	}
	if m.DB.Relation(v.Name) != nil {
		return fmt.Errorf("core: view %s clashes with a relation name", v.Name)
	}
	if v.Weight == nil && v.Weights == nil {
		return fmt.Errorf("core: view %s has no weight function", v.Name)
	}
	q := &ucq.Query{Name: v.Name, Head: v.Head, UCQ: v.Def}
	if err := q.Validate(); err != nil {
		return fmt.Errorf("core: view %s: %w", v.Name, err)
	}
	for _, d := range v.Def.Disjuncts {
		for _, a := range d.Atoms {
			rel := m.DB.Relation(a.Rel)
			if rel == nil {
				return fmt.Errorf("core: view %s uses unknown relation %s", v.Name, a.Rel)
			}
			if len(a.Args) != rel.Arity() {
				return fmt.Errorf("core: view %s: relation %s has arity %d, atom has %d arguments",
					v.Name, a.Rel, rel.Arity(), len(a.Args))
			}
		}
	}
	m.Views = append(m.Views, v)
	return nil
}

// ParseView parses "V(x,y) :- body" rules (one or more lines, same head)
// into a MarkoView with the given weight function.
func ParseView(src string, w WeightFn) (*MarkoView, error) {
	q, err := ucq.Parse(src)
	if err != nil {
		return nil, err
	}
	return &MarkoView{Name: q.Name, Head: q.Head, Def: q.UCQ, Weight: w}, nil
}

// ViewTuple is one materialized output tuple of a MarkoView.
type ViewTuple struct {
	View    string
	Head    []engine.Value
	Weight  float64     // the MarkoView weight w
	Lineage lineage.DNF // lineage of the view body at this head tuple
}

// Materialize evaluates every view over the set of possible tuples I_poss
// (Section 2.4: TupV) and returns the weighted view tuples.
func (m *MVDB) Materialize() ([]ViewTuple, error) {
	var out []ViewTuple
	for _, v := range m.Views {
		q := &ucq.Query{Name: v.Name, Head: v.Head, UCQ: v.Def}
		rows, err := ucq.Eval(m.DB, q)
		if err != nil {
			return nil, fmt.Errorf("core: materializing view %s: %w", v.Name, err)
		}
		for _, r := range rows {
			w := v.WeightOf(r.Head)
			if math.IsNaN(w) || w < 0 {
				return nil, fmt.Errorf("core: view %s assigns invalid weight %v to %s",
					v.Name, w, engine.FormatTuple(r.Head))
			}
			if math.IsInf(w, 1) {
				return nil, fmt.Errorf("core: view %s assigns weight +Inf to %s (degenerate translation; assert the tuples directly instead)",
					v.Name, engine.FormatTuple(r.Head))
			}
			out = append(out, ViewTuple{View: v.Name, Head: r.Head, Weight: w, Lineage: r.Lineage})
		}
	}
	return out, nil
}

// DefineProbTable materializes a probabilistic table from a query over
// deterministic tables — the middle layer of Figure 1, where each
// probabilistic table "is defined by a query, which also associates a
// weight to every output tuple" (e.g. Studentp(aid,year)[exp(1-.15(year-
// year'))] :- FirstPub(aid,year'), year'-1 <= year <= year'+5). It creates
// the relation named by the query head and inserts one weighted tuple per
// distinct answer; the weight function sees the head values. It returns the
// number of tuples inserted.
func DefineProbTable(db *engine.Database, q *ucq.Query, weight WeightFn) (int, error) {
	if weight == nil {
		return 0, fmt.Errorf("core: prob table %s needs a weight function", q.Name)
	}
	if len(q.Head) == 0 {
		return 0, fmt.Errorf("core: prob table %s needs head variables", q.Name)
	}
	for _, d := range q.Disjuncts {
		for _, a := range d.Atoms {
			rel := db.Relation(a.Rel)
			if rel == nil {
				return 0, fmt.Errorf("core: prob table %s uses unknown relation %s", q.Name, a.Rel)
			}
			if !rel.Deterministic {
				return 0, fmt.Errorf("core: prob table %s must be defined over deterministic tables; %s is probabilistic", q.Name, a.Rel)
			}
		}
	}
	rows, err := ucq.Eval(db, q)
	if err != nil {
		return 0, err
	}
	cols := make([]string, len(q.Head))
	copy(cols, q.Head)
	if _, err := db.CreateRelation(q.Name, false, cols...); err != nil {
		return 0, err
	}
	n := 0
	for _, r := range rows {
		w := weight(r.Head)
		if math.IsNaN(w) || w < 0 {
			return n, fmt.Errorf("core: prob table %s assigns invalid weight %v to %s", q.Name, w, engine.FormatTuple(r.Head))
		}
		if _, err := db.Insert(q.Name, w, r.Head...); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}
