package lineage

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Formula is a general Boolean formula tree over positive-integer variables.
// It is the feature language of the MLN substrate and the ground-truth
// representation for tests.
type Formula interface {
	// Eval evaluates under the assignment.
	Eval(assign func(v int) bool) bool
	// CollectVars adds the formula's variables to the set.
	CollectVars(set map[int]bool)
	// String renders the formula.
	String() string
}

// Var is a variable leaf.
type Var int

// Eval implements Formula.
func (x Var) Eval(assign func(v int) bool) bool { return assign(int(x)) }

// CollectVars implements Formula.
func (x Var) CollectVars(set map[int]bool) { set[int(x)] = true }

func (x Var) String() string { return "x" + strconv.Itoa(int(x)) }

// Not negates a formula.
type Not struct{ F Formula }

// Eval implements Formula.
func (n Not) Eval(assign func(v int) bool) bool { return !n.F.Eval(assign) }

// CollectVars implements Formula.
func (n Not) CollectVars(set map[int]bool) { n.F.CollectVars(set) }

func (n Not) String() string { return "¬" + n.F.String() }

// And is a conjunction; the empty conjunction is true.
type And []Formula

// Eval implements Formula.
func (a And) Eval(assign func(v int) bool) bool {
	for _, f := range a {
		if !f.Eval(assign) {
			return false
		}
	}
	return true
}

// CollectVars implements Formula.
func (a And) CollectVars(set map[int]bool) {
	for _, f := range a {
		f.CollectVars(set)
	}
}

func (a And) String() string { return joinFormulas([]Formula(a), " ∧ ", "true") }

// Or is a disjunction; the empty disjunction is false.
type Or_ []Formula

// Eval implements Formula.
func (o Or_) Eval(assign func(v int) bool) bool {
	for _, f := range o {
		if f.Eval(assign) {
			return true
		}
	}
	return false
}

// CollectVars implements Formula.
func (o Or_) CollectVars(set map[int]bool) {
	for _, f := range o {
		f.CollectVars(set)
	}
}

func (o Or_) String() string { return joinFormulas([]Formula(o), " ∨ ", "false") }

func joinFormulas(fs []Formula, sep, empty string) string {
	if len(fs) == 0 {
		return empty
	}
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = f.String()
	}
	return "(" + strings.Join(parts, sep) + ")"
}

// FromDNF converts a DNF to a formula tree.
func FromDNF(d DNF) Formula {
	terms := make([]Formula, len(d))
	for i, t := range d {
		lits := make([]Formula, len(t))
		for j, v := range t {
			lits[j] = Var(v)
		}
		terms[i] = And(lits)
	}
	return Or_(terms)
}

// FormulaVars returns the sorted variables of a formula.
func FormulaVars(f Formula) []int {
	set := map[int]bool{}
	f.CollectVars(set)
	out := make([]int, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// BruteForceProbFormula computes the exact probability of an arbitrary
// formula by enumeration, analogous to BruteForceProb. Supports over 30
// variables are refused with an error rather than enumerated.
func BruteForceProbFormula(f Formula, probs []float64) (float64, error) {
	vars := FormulaVars(f)
	if len(vars) > 30 {
		return 0, fmt.Errorf("lineage: brute force over %d variables (max 30)", len(vars))
	}
	total := 0.0
	for mask := 0; mask < 1<<uint(len(vars)); mask++ {
		assign := map[int]bool{}
		p := 1.0
		for i, v := range vars {
			if mask&(1<<uint(i)) != 0 {
				assign[v] = true
				p *= probs[v]
			} else {
				p *= 1 - probs[v]
			}
		}
		if f.Eval(func(v int) bool { return assign[v] }) {
			total += p
		}
	}
	return total, nil
}
