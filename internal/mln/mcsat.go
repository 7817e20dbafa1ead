package mln

import (
	"fmt"
	"math"
	"math/rand"

	"mvdb/internal/lineage"
)

// MCSatOptions configures the MC-SAT sampler (Poon & Domingos 2006), the
// algorithm Alchemy runs for marginal inference.
type MCSatOptions struct {
	Burn     int     // discarded initial samples
	Samples  int     // retained samples
	Seed     int64   // RNG seed
	MaxFlips int     // SampleSAT flip budget per iteration (0: automatic)
	Noise    float64 // WalkSAT noise probability (0: default 0.5)
}

// MarginalMCSat estimates P(q) with MC-SAT: at every iteration each feature
// currently satisfied is, with probability 1 - 1/w, added to the constraint
// set M (after normalizing weights into the ≥ 1 range), and the next state is
// drawn near-uniformly from the assignments satisfying M via SampleSAT.
func (n *Network) MarginalMCSat(q lineage.Formula, opt MCSatOptions) (float64, error) {
	rng := rand.New(rand.NewSource(opt.Seed))
	if opt.MaxFlips == 0 {
		opt.MaxFlips = 20*(len(n.Vars)+len(n.Features)) + 1000
	}
	if opt.Noise == 0 {
		opt.Noise = 0.5
	}
	norm := n.normalized()
	var hard []Feature
	for _, f := range norm {
		if math.IsInf(f.Weight, 1) {
			hard = append(hard, f)
		}
	}
	state, err := n.initialState(rng)
	if err != nil {
		return 0, err
	}
	assign := func(v int) bool { return state[v] }

	hits, total := 0, 0
	iters := opt.Burn + opt.Samples
	m := make([]Feature, 0, len(norm))
	for it := 0; it < iters; it++ {
		// Select the constraint set M.
		m = m[:0]
		m = append(m, hard...)
		for _, f := range norm {
			if math.IsInf(f.Weight, 1) {
				continue
			}
			if f.F.Eval(assign) && rng.Float64() < 1-1/f.Weight {
				m = append(m, f)
			}
		}
		// Sample a new state satisfying M, starting from a perturbed copy of
		// the current state (SampleSAT).
		next := make([]bool, len(state))
		copy(next, state)
		for _, v := range n.Vars {
			if rng.Float64() < 0.1 {
				next[v] = rng.Intn(2) == 0
			}
		}
		if sampleSATNoise(m, next, rng, opt.MaxFlips, opt.Noise) {
			uniformize(m, next, n.Vars, rng)
			copy(state, next)
		}
		// If SampleSAT failed, keep the previous state (it satisfies M by
		// construction, since M only contains formulas satisfied by it).
		if it >= opt.Burn {
			total++
			if q.Eval(assign) {
				hits++
			}
		}
	}
	if total == 0 {
		return 0, fmt.Errorf("mln: no MC-SAT samples collected")
	}
	return float64(hits) / float64(total), nil
}

// sampleSAT drives the state to satisfy all constraints with default noise.
func sampleSAT(constraints []Feature, state []bool, rng *rand.Rand, maxFlips int) bool {
	return sampleSATNoise(constraints, state, rng, maxFlips, 0.5)
}

// uniformize performs a Metropolis random walk over the solution space of
// the constraints: repeatedly flip a random variable and keep the flip only
// if all constraints remain satisfied. This counteracts SampleSAT's bias
// toward solutions near its starting state, pushing the per-iteration sample
// closer to the uniform distribution MC-SAT requires.
func uniformize(constraints []Feature, state []bool, vars []int, rng *rand.Rand) {
	if len(vars) == 0 {
		return
	}
	assign := func(v int) bool { return state[v] }
	touching := map[int][]int{}
	for i, c := range constraints {
		for _, v := range lineage.FormulaVars(c.F) {
			touching[v] = append(touching[v], i)
		}
	}
	steps := 4 * len(vars)
	for s := 0; s < steps; s++ {
		v := vars[rng.Intn(len(vars))]
		state[v] = !state[v]
		ok := true
		for _, ci := range touching[v] {
			if !constraints[ci].F.Eval(assign) {
				ok = false
				break
			}
		}
		if !ok {
			state[v] = !state[v]
		}
	}
}

// sampleSATNoise is a WalkSAT-style local search over arbitrary Boolean
// formulas: pick an unsatisfied constraint, then flip either a random
// variable from its support (with probability noise) or the support variable
// whose flip leaves the fewest constraints unsatisfied.
func sampleSATNoise(constraints []Feature, state []bool, rng *rand.Rand, maxFlips int, noise float64) bool {
	if len(constraints) == 0 {
		return true
	}
	assign := func(v int) bool { return state[v] }
	supports := make([][]int, len(constraints))
	touching := map[int][]int{} // variable -> constraints containing it
	for i, c := range constraints {
		supports[i] = lineage.FormulaVars(c.F)
		for _, v := range supports[i] {
			touching[v] = append(touching[v], i)
		}
	}
	// Incrementally maintained set of unsatisfied constraints: a flip only
	// affects the constraints touching the flipped variable.
	isUnsat := make([]bool, len(constraints))
	var unsatList []int
	unsatPos := make([]int, len(constraints))
	markUnsat := func(ci int) {
		if !isUnsat[ci] {
			isUnsat[ci] = true
			unsatPos[ci] = len(unsatList)
			unsatList = append(unsatList, ci)
		}
	}
	markSat := func(ci int) {
		if isUnsat[ci] {
			isUnsat[ci] = false
			last := unsatList[len(unsatList)-1]
			pos := unsatPos[ci]
			unsatList[pos] = last
			unsatPos[last] = pos
			unsatList = unsatList[:len(unsatList)-1]
		}
	}
	for i, c := range constraints {
		if !c.F.Eval(assign) {
			markUnsat(i)
		}
	}
	doFlip := func(v int) {
		state[v] = !state[v]
		for _, ci := range touching[v] {
			if constraints[ci].F.Eval(assign) {
				markSat(ci)
			} else {
				markUnsat(ci)
			}
		}
	}
	// cost of flipping v, counted over the constraints touching v only: the
	// change in their unsatisfied count (other constraints are unaffected).
	flipCost := func(v int) int {
		before := 0
		for _, ci := range touching[v] {
			if isUnsat[ci] {
				before++
			}
		}
		state[v] = !state[v]
		after := 0
		for _, ci := range touching[v] {
			if !constraints[ci].F.Eval(assign) {
				after++
			}
		}
		state[v] = !state[v]
		return after - before
	}
	for flip := 0; flip < maxFlips; flip++ {
		if len(unsatList) == 0 {
			return true
		}
		ci := unsatList[rng.Intn(len(unsatList))]
		sup := supports[ci]
		if len(sup) == 0 {
			return false // constant-false constraint: unsatisfiable
		}
		var pick int
		if rng.Float64() < noise {
			pick = sup[rng.Intn(len(sup))]
		} else {
			best, bestCost := sup[0], math.MaxInt32
			for _, v := range sup {
				if cost := flipCost(v); cost < bestCost {
					best, bestCost = v, cost
				}
			}
			pick = best
		}
		doFlip(pick)
	}
	return len(unsatList) == 0
}

// initialState finds an assignment satisfying all hard constraints.
func (n *Network) initialState(rng *rand.Rand) ([]bool, error) {
	var hard []Feature
	for _, f := range n.normalized() {
		if math.IsInf(f.Weight, 1) {
			hard = append(hard, f)
		}
	}
	state := make([]bool, n.top()+1)
	for _, v := range n.Vars {
		state[v] = rng.Intn(2) == 0
	}
	if len(hard) == 0 {
		return state, nil
	}
	if ok := sampleSAT(hard, state, rng, 20*(len(n.Vars)+len(hard))+1000); !ok {
		return nil, fmt.Errorf("mln: could not find a state satisfying the %d hard constraints", len(hard))
	}
	return state, nil
}
