// Package lineage represents Boolean lineage expressions of queries over
// tuple-independent probabilistic databases.
//
// The lineage of a UCQ is monotone and is represented as a DNF: a disjunction
// of conjunctions of positive Boolean variables (tuple ids). General formula
// trees (with negation) are also provided, mainly as ground truth for tests
// and as the feature language of the MLN substrate.
package lineage

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// DNF is a monotone Boolean formula in disjunctive normal form: an OR of
// AND-terms, each term a set of positive variable ids. The empty DNF is
// false; a DNF containing an empty term is true.
type DNF [][]int

// False returns the constant false lineage, the empty DNF; DNF{{}}, one
// empty term, is true.
func False() DNF { return nil }

// IsFalse reports whether the DNF has no terms.
func (d DNF) IsFalse() bool { return len(d) == 0 }

// IsTrue reports whether some term is empty (hence always satisfied).
func (d DNF) IsTrue() bool {
	for _, t := range d {
		if len(t) == 0 {
			return true
		}
	}
	return false
}

// Vars returns the sorted set of variables appearing in the DNF.
func (d DNF) Vars() []int {
	seen := map[int]bool{}
	for _, t := range d {
		for _, v := range t {
			seen[v] = true
		}
	}
	out := make([]int, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// Or returns the disjunction of two DNFs (concatenation of term lists).
func Or(a, b DNF) DNF {
	if len(a) == 0 {
		return b
	}
	out := make(DNF, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	return out
}

// Term builds a single AND-term from variable ids, deduplicated and sorted.
func Term(vars ...int) []int {
	t := append([]int(nil), vars...)
	sort.Ints(t)
	out := t[:0]
	for i, v := range t {
		if i == 0 || v != t[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// Normalize sorts variables within terms, removes duplicate variables,
// removes duplicate and absorbed terms (a term is absorbed when a subset of
// it is also a term), and sorts the term list. The result is a canonical
// form suitable for comparison.
func (d DNF) Normalize() DNF {
	terms := make(DNF, 0, len(d))
	seen := map[string]bool{}
	for _, t := range d {
		nt := Term(t...)
		k := termKey(nt)
		if !seen[k] {
			seen[k] = true
			terms = append(terms, nt)
		}
	}
	// Absorption: drop any term that is a superset of another term.
	sort.Slice(terms, func(i, j int) bool { return len(terms[i]) < len(terms[j]) })
	kept := make(DNF, 0, len(terms))
	for _, t := range terms {
		absorbed := false
		for _, k := range kept {
			if isSubset(k, t) {
				absorbed = true
				break
			}
		}
		if !absorbed {
			kept = append(kept, t)
		}
	}
	sort.Slice(kept, func(i, j int) bool { return compareTerms(kept[i], kept[j]) < 0 })
	return kept
}

func isSubset(a, b []int) bool { // both sorted
	i := 0
	for _, v := range b {
		if i < len(a) && a[i] == v {
			i++
		}
	}
	return i == len(a)
}

func compareTerms(a, b []int) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] - b[i]
		}
	}
	return len(a) - len(b)
}

func termKey(t []int) string {
	var b strings.Builder
	for _, v := range t {
		b.WriteString(strconv.Itoa(v))
		b.WriteByte(',')
	}
	return b.String()
}

// Eval evaluates the DNF under the assignment.
func (d DNF) Eval(assign func(v int) bool) bool {
	for _, t := range d {
		ok := true
		for _, v := range t {
			if !assign(v) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// String renders the DNF, e.g. "(x1 ∧ x2) ∨ (x3)".
func (d DNF) String() string {
	if d.IsFalse() {
		return "false"
	}
	parts := make([]string, len(d))
	for i, t := range d {
		if len(t) == 0 {
			return "true"
		}
		vs := make([]string, len(t))
		for j, v := range t {
			vs[j] = "x" + strconv.Itoa(v)
		}
		parts[i] = "(" + strings.Join(vs, " ∧ ") + ")"
	}
	return strings.Join(parts, " ∨ ")
}

// Size returns the number of literal occurrences (the paper's "lineage
// size": tuples involved in the constraints, counted with multiplicity).
func (d DNF) Size() int {
	n := 0
	for _, t := range d {
		n += len(t)
	}
	return n
}

// BruteForceProb computes the exact probability of the DNF by enumerating
// all assignments of its support variables. probs is indexed by variable id
// and may contain negative entries (Section 3.3 of the paper); the sum of
// products is still the correct weight-relative measure. Supports over 30
// variables are refused with an error rather than enumerated.
func BruteForceProb(d DNF, probs []float64) (float64, error) {
	vars := d.Vars()
	if len(vars) > 30 {
		return 0, fmt.Errorf("lineage: brute force over %d variables (max 30)", len(vars))
	}
	total := 0.0
	n := len(vars)
	for mask := 0; mask < 1<<uint(n); mask++ {
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
		if d.Eval(func(v int) bool { return assign[v] }) {
			total += p
		}
	}
	return total, nil
}
