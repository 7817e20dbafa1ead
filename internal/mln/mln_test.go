package mln

import (
	"math"
	"math/rand"
	"testing"

	"mvdb/internal/lineage"
)

func TestWorldWeightExample1(t *testing.T) {
	// Example 1 of the paper: R(a)=x1 (w1), S(a)=x2 (w2), view (x1∧x2, w).
	w1, w2, w := 2.0, 3.0, 0.5
	n, err := New(upTo(2), []Feature{
		{F: lineage.Var(1), Weight: w1},
		{F: lineage.Var(2), Weight: w2},
		{F: lineage.And{lineage.Var(1), lineage.Var(2)}, Weight: w},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Worlds: {} -> 1, {x1} -> w1, {x2} -> w2, {x1,x2} -> w*w1*w2.
	wants := map[int]float64{0: 1, 1: w1, 2: w2, 3: w * w1 * w2}
	for mask, want := range wants {
		got := n.WorldWeight(func(v int) bool { return mask&(1<<uint(v-1)) != 0 })
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("Φ(%b) = %v want %v", mask, got, want)
		}
	}
	if z, _, err := n.enumerate(nil); err != nil {
		t.Fatal(err)
	} else if math.Abs(z-(1+w1+w2+w*w1*w2)) > 1e-12 {
		t.Errorf("Z = %v", z)
	}
	// P(x1 ∨ x2) = (w1 + w2 + w w1 w2) / Z (Section 3.1).
	q := lineage.Or_{lineage.Var(1), lineage.Var(2)}
	want := (w1 + w2 + w*w1*w2) / (1 + w1 + w2 + w*w1*w2)
	got, err := n.MarginalExact(q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("P = %v want %v", got, want)
	}
}

func TestHardConstraints(t *testing.T) {
	// Feature (x1 ∧ x2, 0): the two tuples are exclusive.
	n, err := New(upTo(2), []Feature{
		{F: lineage.Var(1), Weight: 1},
		{F: lineage.Var(2), Weight: 1},
		{F: lineage.And{lineage.Var(1), lineage.Var(2)}, Weight: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Worlds {}, {x1}, {x2} have weight 1; {x1,x2} has weight 0.
	if z, _, err := n.enumerate(nil); err != nil {
		t.Fatal(err)
	} else if math.Abs(z-3) > 1e-12 {
		t.Errorf("Z = %v", z)
	}
	p, err := n.MarginalExact(lineage.And{lineage.Var(1), lineage.Var(2)})
	if err != nil {
		t.Fatal(err)
	}
	if p != 0 {
		t.Errorf("P(x1∧x2) = %v want 0", p)
	}
	// Must-hold constraint.
	n2, _ := New(upTo(1), []Feature{{F: lineage.Var(1), Weight: math.Inf(1)}})
	p, err = n2.MarginalExact(lineage.Var(1))
	if err != nil || p != 1 {
		t.Errorf("P = %v, %v; want 1", p, err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(upTo(1), []Feature{{F: lineage.Var(1), Weight: -1}}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := New(upTo(1), []Feature{{F: nil, Weight: 1}}); err == nil {
		t.Error("nil formula accepted")
	}
	if _, err := New(upTo(1), []Feature{{F: lineage.Var(5), Weight: 1}}); err == nil {
		t.Error("out-of-range variable accepted")
	}
	if _, err := New(upTo(1), []Feature{{F: lineage.Var(1), Weight: math.NaN()}}); err == nil {
		t.Error("NaN weight accepted")
	}
}

func TestInconsistentHardConstraints(t *testing.T) {
	n, _ := New(upTo(1), []Feature{
		{F: lineage.Var(1), Weight: math.Inf(1)},
		{F: lineage.Var(1), Weight: 0},
	})
	if _, err := n.MarginalExact(lineage.Var(1)); err == nil {
		t.Error("inconsistent constraints: expected error")
	}
}

// randomNetwork builds a small random MLN with soft features only.
func randomNetwork(rng *rand.Rand, nv int) *Network {
	nf := 2 + rng.Intn(4)
	feats := make([]Feature, nf)
	for i := range feats {
		k := 1 + rng.Intn(3)
		lits := make([]lineage.Formula, k)
		for j := range lits {
			v := lineage.Var(1 + rng.Intn(nv))
			if rng.Intn(3) == 0 {
				lits[j] = lineage.Not{F: v}
			} else {
				lits[j] = v
			}
		}
		feats[i] = Feature{F: lineage.And(lits), Weight: 0.25 + rng.Float64()*4}
	}
	n, err := New(upTo(nv), feats)
	if err != nil {
		panic(err)
	}
	return n
}

func TestMCSatConvergesToExact(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 5; trial++ {
		nv := 3 + rng.Intn(3)
		n := randomNetwork(rng, nv)
		q := lineage.Var(1 + rng.Intn(nv))
		want, err := n.MarginalExact(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := n.MarginalMCSat(q, MCSatOptions{Burn: 500, Samples: 20000, Seed: int64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 0.07 {
			t.Errorf("trial %d: MC-SAT = %v exact = %v", trial, got, want)
		}
	}
}

func TestMCSatWithHardConstraints(t *testing.T) {
	// x1 and x2 exclusive, both favoured: P(x1) should match exact.
	n, _ := New(upTo(2), []Feature{
		{F: lineage.Var(1), Weight: 3},
		{F: lineage.Var(2), Weight: 3},
		{F: lineage.And{lineage.Var(1), lineage.Var(2)}, Weight: 0},
	})
	want, _ := n.MarginalExact(lineage.Var(1))
	got, err := n.MarginalMCSat(lineage.Var(1), MCSatOptions{Burn: 500, Samples: 20000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 0.05 {
		t.Errorf("MC-SAT = %v exact = %v", got, want)
	}
}

func TestNormalizedWeights(t *testing.T) {
	n, _ := New(upTo(1), []Feature{{F: lineage.Var(1), Weight: 0.25}})
	norm := n.normalized()
	if len(norm) != 1 || norm[0].Weight != 4 {
		t.Fatalf("normalized = %+v", norm)
	}
	// ¬x1 with weight 4 must give the same distribution as x1 with 0.25:
	// P(x1) = 0.25/(1+0.25) = 0.2.
	want, _ := n.MarginalExact(lineage.Var(1))
	n2, _ := New(upTo(1), []Feature{norm[0]})
	got, _ := n2.MarginalExact(lineage.Var(1))
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("normalization changed the distribution: %v vs %v", got, want)
	}
}

func TestSampleSATUnsatisfiable(t *testing.T) {
	n, _ := New(upTo(1), []Feature{
		{F: lineage.Var(1), Weight: math.Inf(1)},
		{F: lineage.Not{F: lineage.Var(1)}, Weight: math.Inf(1)},
	})
	if _, err := n.MarginalMCSat(lineage.Var(1), MCSatOptions{Burn: 1, Samples: 10, Seed: 1, MaxFlips: 200}); err == nil {
		t.Error("unsatisfiable hard constraints: expected error")
	}
}

func TestTupleIndependentSpecialCase(t *testing.T) {
	// Section 2.3 "Tuple-Independent Databases Revisited": an MLN with only
	// single-tuple features is a tuple-independent database with
	// p_i = w_i / (1 + w_i).
	n, _ := New(upTo(2), []Feature{
		{F: lineage.Var(1), Weight: 3},
		{F: lineage.Var(2), Weight: 1},
	})
	p1, _ := n.MarginalExact(lineage.Var(1))
	p2, _ := n.MarginalExact(lineage.Var(2))
	if math.Abs(p1-0.75) > 1e-12 || math.Abs(p2-0.5) > 1e-12 {
		t.Errorf("p1=%v p2=%v", p1, p2)
	}
	// And independence: P(x1 ∧ x2) = p1 p2.
	p12, _ := n.MarginalExact(lineage.And{lineage.Var(1), lineage.Var(2)})
	if math.Abs(p12-0.75*0.5) > 1e-12 {
		t.Errorf("p12=%v", p12)
	}
}

func BenchmarkMCSat(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := randomNetwork(rng, 6)
	q := lineage.Var(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.MarginalMCSat(q, MCSatOptions{Burn: 50, Samples: 500, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExactEnumeration(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := randomNetwork(rng, 12)
	q := lineage.Var(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.MarginalExact(q); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEnumerationTooLargeRefused: networks beyond the 30-variable
// enumeration limit return an error instead of panicking.
func TestEnumerationTooLargeRefused(t *testing.T) {
	n, err := New(upTo(31), []Feature{{F: lineage.Var(31), Weight: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := n.enumerate(nil); err == nil {
		t.Error("enumerating 31 variables: want error, got nil")
	}
	if _, err := n.MarginalExact(lineage.Var(1)); err == nil {
		t.Error("MarginalExact over 31 variables: want error, got nil")
	}
}

// upTo returns the variable ids 1..n.
func upTo(n int) []int {
	vs := make([]int, n)
	for i := range vs {
		vs[i] = i + 1
	}
	return vs
}

// TestSparseVariableIDs: a network over non-contiguous ids (the base
// variables of a database whose other ids belong to translated relations)
// enumerates only its own variables and gives the marginals of the same
// network over 1..n.
func TestSparseVariableIDs(t *testing.T) {
	dense, err := New(upTo(2), []Feature{
		{F: lineage.Or_{lineage.Var(1), lineage.Var(2)}, Weight: 3},
		{F: lineage.Var(2), Weight: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := New([]int{4, 9}, []Feature{
		{F: lineage.Or_{lineage.Var(4), lineage.Var(9)}, Weight: 3},
		{F: lineage.Var(9), Weight: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range [][2]lineage.Formula{{lineage.Var(1), lineage.Var(4)}, {lineage.Var(2), lineage.Var(9)}} {
		want, err := dense.MarginalExact(q[0])
		if err != nil {
			t.Fatal(err)
		}
		got, err := sparse.MarginalExact(q[1])
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-15 {
			t.Errorf("query %d: sparse %v, dense %v", i, got, want)
		}
	}
	if _, err := New([]int{4, 9}, []Feature{{F: lineage.Var(5), Weight: 1}}); err == nil {
		t.Error("a feature over a variable outside the network was accepted")
	}
}
