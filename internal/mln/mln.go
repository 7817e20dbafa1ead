// Package mln implements Markov Logic Networks over ground Boolean features
// (Section 2.3 of the paper): a set of weighted Boolean formulas over tuple
// variables. The weight of a world is the product of the weights of the
// features it satisfies; probabilities are weights normalized by the
// partition function Z.
//
// Three inference methods are provided: exact enumeration (ground truth for
// small networks), Gibbs sampling, and MC-SAT (slice sampling with a
// SampleSAT inner loop) — the algorithm family used by Alchemy, the system
// the paper compares against in Section 5.1.
//
// Weight conventions (multiplicative, as in the paper):
//   - w > 1: worlds satisfying the feature are favoured;
//   - w = 1: indifferent;
//   - 0 < w < 1: disfavoured;
//   - w = 0: hard constraint — the feature must be FALSE;
//   - w = +Inf: hard constraint — the feature must be TRUE.
package mln

import (
	"fmt"
	"math"
	"slices"

	"mvdb/internal/lineage"
)

// Feature is a weighted ground formula.
type Feature struct {
	F      lineage.Formula
	Weight float64
}

// Network is a ground Markov Logic Network over the variables Vars
// (ascending ids, not necessarily contiguous).
type Network struct {
	Vars     []int
	Features []Feature

	vars [][]int // per-feature sorted support, computed lazily
}

// New builds a network, validating weights (negative weights are invalid in
// an MLN; note this is about feature weights, not the translated tuple
// probabilities, which may well be negative).
func New(vars []int, features []Feature) (*Network, error) {
	for i, f := range features {
		if f.Weight < 0 || math.IsNaN(f.Weight) {
			return nil, fmt.Errorf("mln: feature %d has invalid weight %v", i, f.Weight)
		}
		if f.F == nil {
			return nil, fmt.Errorf("mln: feature %d has nil formula", i)
		}
	}
	n := &Network{Vars: vars, Features: features}
	n.vars = make([][]int, len(features))
	for i, f := range features {
		n.vars[i] = lineage.FormulaVars(f.F)
		for _, v := range n.vars[i] {
			if _, ok := slices.BinarySearch(vars, v); !ok {
				return nil, fmt.Errorf("mln: feature %d uses variable %d outside the network", i, v)
			}
		}
	}
	return n, nil
}

// top returns the largest variable id, the length a state vector needs.
func (n *Network) top() int {
	if len(n.Vars) == 0 {
		return 0
	}
	return n.Vars[len(n.Vars)-1]
}

// WorldWeight computes Φ(I) for the world given by the assignment. Hard
// constraints zero out violating worlds.
func (n *Network) WorldWeight(assign func(v int) bool) float64 {
	w := 1.0
	for _, f := range n.Features {
		sat := f.F.Eval(assign)
		switch {
		case math.IsInf(f.Weight, 1):
			if !sat {
				return 0
			}
		case f.Weight == 0:
			if sat {
				return 0
			}
		case sat:
			w *= f.Weight
		}
	}
	return w
}

// Partition computes Z by enumerating all 2^len(Vars) worlds. Networks over
// more than 30 variables are refused with an error rather than enumerated.
func (n *Network) Partition() (float64, error) {
	z, _, err := n.enumerate(nil)
	return z, err
}

// MarginalExact computes P(q) = Φ(q)/Z by enumeration (ground truth).
func (n *Network) MarginalExact(q lineage.Formula) (float64, error) {
	z, phiQ, err := n.enumerate(q)
	if err != nil {
		return 0, err
	}
	if z == 0 {
		return 0, fmt.Errorf("mln: partition function is zero (inconsistent hard constraints)")
	}
	return phiQ / z, nil
}

func (n *Network) enumerate(q lineage.Formula) (z, phiQ float64, err error) {
	if len(n.Vars) > 30 {
		return 0, 0, fmt.Errorf("mln: exact enumeration over %d variables (max 30)", len(n.Vars))
	}
	bit := make([]uint, n.top()+1) // variable -> its bit of the world mask
	for i, v := range n.Vars {
		bit[v] = uint(i)
	}
	for mask := 0; mask < 1<<uint(len(n.Vars)); mask++ {
		assign := func(v int) bool { return mask&(1<<bit[v]) != 0 }
		w := n.WorldWeight(assign)
		z += w
		if q != nil && w != 0 && q.Eval(assign) {
			phiQ += w
		}
	}
	return z, phiQ, nil
}

// normalized returns the features with weights folded into the ≥1 range:
// a feature (F, w) with 0 < w < 1 is equivalent to (¬F, 1/w) up to a global
// constant, which cancels in probabilities. Hard constraints map to
// must-hold constraints: (F, ∞) stays, (F, 0) becomes (¬F, ∞).
func (n *Network) normalized() []Feature {
	out := make([]Feature, 0, len(n.Features))
	for _, f := range n.Features {
		switch {
		case f.Weight == 0:
			out = append(out, Feature{F: lineage.Not{F: f.F}, Weight: math.Inf(1)})
		case f.Weight < 1:
			out = append(out, Feature{F: lineage.Not{F: f.F}, Weight: 1 / f.Weight})
		default:
			out = append(out, f)
		}
	}
	return out
}
