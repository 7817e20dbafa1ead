// Package wmc implements weighted model counting over monotone DNF lineage:
// an exact Davis-Putnam-style procedure (Shannon expansion on the most
// frequent variable, independent-component decomposition, and caching — the
// method family the paper cites for MystiQ-style probabilistic databases
// [3, 17]).
//
// The procedure is valid verbatim for negative probabilities (Section 3.3 of
// the paper): Shannon expansion and the independence law are polynomial
// identities of the product measure.
package wmc

import (
	"strconv"
	"strings"

	"mvdb/internal/lineage"
)

// Prob computes the exact probability of the DNF under the per-variable
// probability vector (indexed by variable id; entries may be negative).
func Prob(d lineage.DNF, probs []float64) float64 {
	s := &solver{probs: probs, cache: map[string]float64{}}
	return s.prob(normalize(d))
}

// Solver is a reusable exact solver: its cache lives across Prob calls.
type Solver struct {
	inner *solver
}

// NewSolver creates a solver for a fixed probability vector.
func NewSolver(probs []float64) *Solver {
	return &Solver{inner: &solver{probs: probs, cache: map[string]float64{}}}
}

// Prob computes P(d), sharing the cache across calls.
func (s *Solver) Prob(d lineage.DNF) float64 { return s.inner.prob(normalize(d)) }

type solver struct {
	probs []float64
	cache map[string]float64
}

// dnf is the internal normalized representation: sorted terms of sorted
// variable ids, no duplicates, no absorbed terms.
type dnf [][]int

func normalize(d lineage.DNF) dnf {
	return dnf(d.Normalize())
}

func (d dnf) key() string {
	var b strings.Builder
	for _, t := range d {
		for _, v := range t {
			b.WriteString(strconv.Itoa(v))
			b.WriteByte(',')
		}
		b.WriteByte(';')
	}
	return b.String()
}

func (s *solver) prob(d dnf) float64 {
	if len(d) == 0 {
		return 0
	}
	if len(d[0]) == 0 {
		return 1 // normalized form puts the empty (true) term first
	}
	if len(d) == 1 {
		// Single term: product of its variables' probabilities.
		p := 1.0
		for _, v := range d[0] {
			p *= s.probs[v]
		}
		return p
	}
	key := d.key()
	if p, ok := s.cache[key]; ok {
		return p
	}

	var p float64
	if comps := components(d); len(comps) > 1 {
		// Independent union: P(∨ᵢ cᵢ) = 1 - Πᵢ (1 - P(cᵢ)).
		prod := 1.0
		for _, c := range comps {
			prod *= 1 - s.prob(c)
		}
		p = 1 - prod
	} else {
		// Shannon expansion on the most frequent variable.
		x := mostFrequent(d)
		px := s.probs[x]
		p = px*s.prob(restrict(d, x, true)) + (1-px)*s.prob(restrict(d, x, false))
	}
	s.cache[key] = p
	return p
}

// components partitions the terms into groups sharing no variables.
func components(d dnf) []dnf {
	parent := make([]int, len(d))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	varTerm := map[int]int{}
	for i, t := range d {
		for _, v := range t {
			if j, ok := varTerm[v]; ok {
				parent[find(i)] = find(j)
			} else {
				varTerm[v] = i
			}
		}
	}
	groups := map[int]dnf{}
	var order []int
	for i, t := range d {
		r := find(i)
		if _, ok := groups[r]; !ok {
			order = append(order, r)
		}
		groups[r] = append(groups[r], t)
	}
	out := make([]dnf, 0, len(order))
	for _, r := range order {
		out = append(out, groups[r])
	}
	return out
}

// mostFrequent returns the variable occurring in the most terms.
func mostFrequent(d dnf) int {
	count := map[int]int{}
	for _, t := range d {
		for _, v := range t {
			count[v]++
		}
	}
	best, bestC := 0, -1
	for v, c := range count {
		if c > bestC || (c == bestC && v < best) {
			best, bestC = v, c
		}
	}
	return best
}

// restrict conditions the DNF on x = val and renormalizes (removing
// duplicate and absorbed terms, which keeps the cache keys canonical).
func restrict(d dnf, x int, val bool) dnf {
	out := make(lineage.DNF, 0, len(d))
	for _, t := range d {
		has := false
		for _, v := range t {
			if v == x {
				has = true
				break
			}
		}
		switch {
		case !has:
			out = append(out, t)
		case val:
			nt := make([]int, 0, len(t)-1)
			for _, v := range t {
				if v != x {
					nt = append(nt, v)
				}
			}
			out = append(out, nt)
		default:
			// dropped: term is false under x = 0
		}
	}
	return normalize(out)
}
