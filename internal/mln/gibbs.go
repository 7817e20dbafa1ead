package mln

import (
	"fmt"
	"math"
	"math/rand"

	"mvdb/internal/lineage"
)

// GibbsOptions configures the Gibbs sampler.
type GibbsOptions struct {
	Burn    int   // discarded initial sweeps
	Samples int   // retained sweeps
	Seed    int64 // RNG seed (deterministic runs)
}

// DefaultGibbs is a reasonable default configuration.
var DefaultGibbs = GibbsOptions{Burn: 200, Samples: 2000, Seed: 1}

// MarginalGibbs estimates P(q) by Gibbs sampling. Each sweep resamples every
// variable from its full conditional. Hard constraints are respected by
// rejecting flips into zero-weight worlds; the initial state is found with
// the SampleSAT routine over the hard constraints.
func (n *Network) MarginalGibbs(q lineage.Formula, opt GibbsOptions) (float64, error) {
	rng := rand.New(rand.NewSource(opt.Seed))
	state, err := n.initialState(rng)
	if err != nil {
		return 0, err
	}
	touching := n.varFeatureIndex()
	assign := func(v int) bool { return state[v] }

	hits, total := 0, 0
	sweeps := opt.Burn + opt.Samples
	for it := 0; it < sweeps; it++ {
		for _, v := range n.Vars {
			// Weight ratio of the two states differing at v, over the
			// features touching v only.
			wTrue, wFalse := 1.0, 1.0
			old := state[v]
			for _, fi := range touching[v] {
				f := n.Features[fi]
				state[v] = true
				satT := f.F.Eval(assign)
				state[v] = false
				satF := f.F.Eval(assign)
				wTrue *= featureFactor(f.Weight, satT)
				wFalse *= featureFactor(f.Weight, satF)
			}
			state[v] = old
			switch {
			case wTrue == 0 && wFalse == 0:
				// Both sides violate a hard constraint locally: keep state.
			case wTrue+wFalse == 0:
				state[v] = old
			default:
				state[v] = rng.Float64()*(wTrue+wFalse) < wTrue
			}
		}
		if it >= opt.Burn {
			total++
			if q.Eval(assign) {
				hits++
			}
		}
	}
	if total == 0 {
		return 0, fmt.Errorf("mln: no Gibbs samples collected")
	}
	return float64(hits) / float64(total), nil
}

// featureFactor is the multiplicative contribution of one feature.
func featureFactor(w float64, sat bool) float64 {
	switch {
	case math.IsInf(w, 1):
		if sat {
			return 1
		}
		return 0
	case w == 0:
		if sat {
			return 0
		}
		return 1
	case sat:
		return w
	}
	return 1
}

// varFeatureIndex maps each variable to the features touching it.
func (n *Network) varFeatureIndex() [][]int {
	idx := make([][]int, n.top()+1)
	for fi := range n.Features {
		for _, v := range n.vars[fi] {
			idx[v] = append(idx[v], fi)
		}
	}
	return idx
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
