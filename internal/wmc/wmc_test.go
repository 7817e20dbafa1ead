package wmc

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"mvdb/internal/lineage"
)

func randomDNF(rng *rand.Rand, nv int) lineage.DNF {
	d := make(lineage.DNF, 1+rng.Intn(6))
	for i := range d {
		term := make([]int, 1+rng.Intn(4))
		for j := range term {
			term[j] = 1 + rng.Intn(nv)
		}
		d[i] = lineage.Term(term...)
	}
	return d
}

func TestProbAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		nv := 2 + rng.Intn(7)
		d := randomDNF(rng, nv)
		probs := make([]float64, nv+1)
		for i := 1; i <= nv; i++ {
			probs[i] = rng.Float64()
		}
		want := bfProb(d, probs)
		got := Prob(d, probs)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: %v vs %v on %v", trial, got, want, d)
		}
	}
}

func TestProbNegativeProbabilities(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		nv := 2 + rng.Intn(6)
		d := randomDNF(rng, nv)
		probs := make([]float64, nv+1)
		for i := 1; i <= nv; i++ {
			probs[i] = rng.Float64()*3 - 1.5
		}
		want := bfProb(d, probs)
		got := Prob(d, probs)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: %v vs %v", trial, got, want)
		}
	}
}

func TestProbTerminals(t *testing.T) {
	probs := []float64{0, 0.5}
	if Prob(lineage.False(), probs) != 0 {
		t.Error("P(false) != 0")
	}
	if Prob(lineage.DNF{{}}, probs) != 1 {
		t.Error("P(true) != 1")
	}
	if got := Prob(lineage.DNF{{1}}, probs); got != 0.5 {
		t.Errorf("P(x1) = %v", got)
	}
}

func TestProbLargeSafeChain(t *testing.T) {
	// A long independent chain must be handled by decomposition, not 2^n
	// enumeration: 60 disjoint conjuncts.
	var d lineage.DNF
	probs := make([]float64, 121)
	for i := 0; i < 60; i++ {
		d = append(d, []int{2*i + 1, 2*i + 2})
		probs[2*i+1] = 0.5
		probs[2*i+2] = 0.5
	}
	want := 1 - math.Pow(0.75, 60)
	got := Prob(d, probs)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("P = %v want %v", got, want)
	}
}

type quickDNF struct {
	NumVars int
	D       lineage.DNF
	Probs   []float64
}

func (quickDNF) Generate(rng *rand.Rand, size int) reflect.Value {
	nv := 2 + rng.Intn(6)
	d := make(lineage.DNF, 1+rng.Intn(5))
	for i := range d {
		term := make([]int, 1+rng.Intn(4))
		for j := range term {
			term[j] = 1 + rng.Intn(nv)
		}
		d[i] = lineage.Term(term...)
	}
	probs := make([]float64, nv+1)
	for i := 1; i <= nv; i++ {
		probs[i] = rng.Float64()*2.4 - 0.7
	}
	return reflect.ValueOf(quickDNF{NumVars: nv, D: d, Probs: probs})
}

// TestQuickWMCAgainstBruteForce: the DPLL counter is exact on arbitrary
// probability vectors, negative entries included.
func TestQuickWMCAgainstBruteForce(t *testing.T) {
	f := func(c quickDNF) bool {
		want := bfProb(c.D, c.Probs)
		got := Prob(c.D, c.Probs)
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickWMCNegationLaw: P(d) + P(¬d) = 1 under the product measure,
// where P(¬d) is evaluated by brute force (the DNF of ¬d is exponential).
func TestQuickWMCNegationLaw(t *testing.T) {
	f := func(c quickDNF) bool {
		p := Prob(c.D, c.Probs)
		notP := bfProbF(lineage.Not{F: lineage.FromDNF(c.D)}, c.Probs)
		return math.Abs(p+notP-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// bfProb and bfProbF wrap the error-returning brute-force evaluators for
// test fixtures known to stay within the 30-variable limit.
func bfProb(d lineage.DNF, probs []float64) float64 {
	p, err := lineage.BruteForceProb(d, probs)
	if err != nil {
		panic(err)
	}
	return p
}

func bfProbF(f lineage.Formula, probs []float64) float64 {
	p, err := lineage.BruteForceProbFormula(f, probs)
	if err != nil {
		panic(err)
	}
	return p
}
