// Package ucq defines Unions of Conjunctive Queries — the query language of
// the paper — together with a datalog-style parser, structural analyses
// (root variables, separator variables, inversion-freeness, hierarchy) and
// an evaluator that computes lineage over an engine.Database.
package ucq

import (
	"fmt"
	"sort"
	"strings"

	"mvdb/internal/engine"
)

// Term is a variable or a constant appearing in an atom or predicate.
type Term struct {
	Var     string // non-empty iff the term is a variable
	Const   engine.Value
	IsConst bool
}

// V returns a variable term.
func V(name string) Term { return Term{Var: name} }

// C returns a constant term.
func C(v engine.Value) Term { return Term{Const: v, IsConst: true} }

// CInt returns an integer constant term.
func CInt(i int64) Term { return C(engine.Int(i)) }

// CStr returns a string constant term.
func CStr(s string) Term { return C(engine.Str(s)) }

func (t Term) String() string {
	if t.IsConst {
		return t.Const.String()
	}
	return t.Var
}

// PredOp is a comparison operator.
type PredOp int

// Comparison operators; Like matches SQL LIKE with % and _.
const (
	OpLT PredOp = iota
	OpLE
	OpEQ
	OpNE
	OpGE
	OpGT
	OpLike
)

func (op PredOp) String() string {
	switch op {
	case OpLT:
		return "<"
	case OpLE:
		return "<="
	case OpEQ:
		return "="
	case OpNE:
		return "<>"
	case OpGE:
		return ">="
	case OpGT:
		return ">"
	case OpLike:
		return "like"
	}
	return "?"
}

// Eval applies the operator to two bound values.
func (op PredOp) Eval(l, r engine.Value) bool {
	switch op {
	case OpLike:
		return l.IsStr && r.IsStr && engine.Like(l.Str, r.Str)
	case OpEQ:
		return l.Equal(r)
	case OpNE:
		return !l.Equal(r)
	}
	c := l.Compare(r)
	switch op {
	case OpLT:
		return c < 0
	case OpLE:
		return c <= 0
	case OpGE:
		return c >= 0
	case OpGT:
		return c > 0
	}
	return false
}

// Pred is a comparison between two terms, e.g. year > 2004 or n like
// '%X%'. Offset shifts the right-hand side: "year <= yearp + 5" is
// Pred{OpLE, year, yearp, 5} — enough arithmetic to express the Figure 1
// probabilistic-table definitions (year' - 1 <= year <= year' + 5).
type Pred struct {
	Op     PredOp
	L, R   Term
	Offset int64
}

func (p Pred) String() string {
	switch {
	case p.Offset > 0:
		return fmt.Sprintf("%s %s %s + %d", p.L, p.Op, p.R, p.Offset)
	case p.Offset < 0:
		return fmt.Sprintf("%s %s %s - %d", p.L, p.Op, p.R, -p.Offset)
	}
	return fmt.Sprintf("%s %s %s", p.L, p.Op, p.R)
}

// EvalBound evaluates the predicate under bound values, applying the
// offset. Offsets only apply to integers; a non-zero offset against a
// string is false.
func (p Pred) EvalBound(l, r engine.Value) bool {
	if p.Offset != 0 {
		if l.IsStr || r.IsStr {
			return false
		}
		r = engine.Int(r.Int + p.Offset)
	}
	return p.Op.Eval(l, r)
}

// Atom is a relational atom R(t1,...,tk), possibly negated. Negation is only
// allowed on deterministic relations (enforced by the evaluator), matching
// the paper's restriction.
type Atom struct {
	Rel     string
	Args    []Term
	Negated bool
}

func (a Atom) String() string {
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	s := a.Rel + "(" + strings.Join(parts, ",") + ")"
	if a.Negated {
		return "not " + s
	}
	return s
}

// CQ is a conjunctive query body: positive/negated atoms plus comparison
// predicates. All variables are existentially quantified unless exported by
// the enclosing Query's head.
type CQ struct {
	Atoms []Atom
	Preds []Pred
}

// UCQ is a union (disjunction) of conjunctive queries.
type UCQ struct {
	Disjuncts []CQ
}

// Query is a named UCQ with head variables.
type Query struct {
	Name string
	Head []string
	UCQ
}

func (c CQ) String() string {
	parts := make([]string, 0, len(c.Atoms)+len(c.Preds))
	for _, a := range c.Atoms {
		parts = append(parts, a.String())
	}
	for _, p := range c.Preds {
		parts = append(parts, p.String())
	}
	return strings.Join(parts, ", ")
}

func (u UCQ) String() string {
	parts := make([]string, len(u.Disjuncts))
	for i, d := range u.Disjuncts {
		parts[i] = d.String()
	}
	return strings.Join(parts, " ∨ ")
}

func (q *Query) String() string {
	var b strings.Builder
	for i, d := range q.Disjuncts {
		if i > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "%s(%s) :- %s", q.Name, strings.Join(q.Head, ","), d)
	}
	return b.String()
}

// Vars returns the sorted set of variables in the CQ (atoms and predicates).
func (c CQ) Vars() []string {
	set := map[string]bool{}
	for _, a := range c.Atoms {
		for _, t := range a.Args {
			if !t.IsConst {
				set[t.Var] = true
			}
		}
	}
	for _, p := range c.Preds {
		if !p.L.IsConst {
			set[p.L.Var] = true
		}
		if !p.R.IsConst {
			set[p.R.Var] = true
		}
	}
	return sortedKeys(set)
}

// HasVars reports whether the CQ mentions any variable — equivalent to
// len(c.Vars()) > 0 without building the set (this sits on the compiler's
// per-block path).
func (c CQ) HasVars() bool {
	for _, a := range c.Atoms {
		for _, t := range a.Args {
			if !t.IsConst {
				return true
			}
		}
	}
	for _, p := range c.Preds {
		if !p.L.IsConst || !p.R.IsConst {
			return true
		}
	}
	return false
}

// PositiveVars returns the sorted variables occurring in positive atoms.
func (c CQ) PositiveVars() []string {
	set := map[string]bool{}
	for _, a := range c.Atoms {
		if a.Negated {
			continue
		}
		for _, t := range a.Args {
			if !t.IsConst {
				set[t.Var] = true
			}
		}
	}
	return sortedKeys(set)
}

// Relations returns the sorted set of relation names in the UCQ.
func (u UCQ) Relations() []string {
	set := map[string]bool{}
	for _, d := range u.Disjuncts {
		for _, a := range d.Atoms {
			set[a.Rel] = true
		}
	}
	return sortedKeys(set)
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Subst returns a copy of the CQ with variables replaced by constants
// according to the binding.
func (c CQ) Subst(binding map[string]engine.Value) CQ {
	out := CQ{Atoms: make([]Atom, len(c.Atoms)), Preds: make([]Pred, len(c.Preds))}
	substTerm := func(t Term) Term {
		if !t.IsConst {
			if v, ok := binding[t.Var]; ok {
				return C(v)
			}
		}
		return t
	}
	for i, a := range c.Atoms {
		na := Atom{Rel: a.Rel, Args: make([]Term, len(a.Args)), Negated: a.Negated}
		for j, t := range a.Args {
			na.Args[j] = substTerm(t)
		}
		out.Atoms[i] = na
	}
	for i, p := range c.Preds {
		out.Preds[i] = Pred{Op: p.Op, L: substTerm(p.L), R: substTerm(p.R), Offset: p.Offset}
	}
	return out
}

// Subst1 is Subst for a single-variable binding, without the map (the
// compiler substitutes one separator value per block, many thousands of
// times per compile).
func (c CQ) Subst1(name string, v engine.Value) CQ {
	subst := func(t Term) Term {
		if !t.IsConst && t.Var == name {
			return C(v)
		}
		return t
	}
	// One flat backing array serves every atom's argument list: Subst1 runs
	// once per disjunct per separator value, so the per-atom slices of the
	// generic Subst showed up hard in compile profiles.
	total := 0
	for _, a := range c.Atoms {
		total += len(a.Args)
	}
	args := make([]Term, total)
	out := CQ{Atoms: make([]Atom, len(c.Atoms))}
	off := 0
	for i, a := range c.Atoms {
		na := args[off : off+len(a.Args) : off+len(a.Args)]
		off += len(a.Args)
		for j, t := range a.Args {
			na[j] = subst(t)
		}
		out.Atoms[i] = Atom{Rel: a.Rel, Args: na, Negated: a.Negated}
	}
	if len(c.Preds) > 0 {
		out.Preds = make([]Pred, len(c.Preds))
		for i, p := range c.Preds {
			out.Preds[i] = Pred{Op: p.Op, L: subst(p.L), R: subst(p.R), Offset: p.Offset}
		}
	}
	return out
}

// Subst substitutes a binding in every disjunct.
func (u UCQ) Subst(binding map[string]engine.Value) UCQ {
	out := UCQ{Disjuncts: make([]CQ, len(u.Disjuncts))}
	for i, d := range u.Disjuncts {
		out.Disjuncts[i] = d.Subst(binding)
	}
	return out
}

// Bind turns a named query into a Boolean UCQ by substituting the head
// variables with the given values.
func (q *Query) Bind(vals []engine.Value) (UCQ, error) {
	if len(vals) != len(q.Head) {
		return UCQ{}, fmt.Errorf("ucq: query %s has %d head variables, got %d values", q.Name, len(q.Head), len(vals))
	}
	binding := map[string]engine.Value{}
	for i, h := range q.Head {
		binding[h] = vals[i]
	}
	return q.UCQ.Subst(binding), nil
}

// Validate performs static safety checks: head variables and predicate
// variables must occur in a positive atom of every disjunct; negated-atom
// variables likewise (safe negation).
func (q *Query) Validate() error {
	for di, d := range q.Disjuncts {
		pos := map[string]bool{}
		for _, v := range d.PositiveVars() {
			pos[v] = true
		}
		for _, h := range q.Head {
			if !pos[h] {
				return fmt.Errorf("ucq: head variable %s not bound by a positive atom in disjunct %d", h, di)
			}
		}
		for _, p := range d.Preds {
			for _, t := range []Term{p.L, p.R} {
				if !t.IsConst && !pos[t.Var] {
					return fmt.Errorf("ucq: predicate variable %s not bound by a positive atom in disjunct %d", t.Var, di)
				}
			}
		}
		for _, a := range d.Atoms {
			if !a.Negated {
				continue
			}
			for _, t := range a.Args {
				if !t.IsConst && !pos[t.Var] {
					return fmt.Errorf("ucq: variable %s of negated atom %s not bound by a positive atom", t.Var, a.Rel)
				}
			}
		}
		if len(d.Atoms) == 0 {
			return fmt.Errorf("ucq: disjunct %d has no atoms", di)
		}
	}
	if len(q.Disjuncts) == 0 {
		return fmt.Errorf("ucq: query %s has no disjuncts", q.Name)
	}
	return nil
}
