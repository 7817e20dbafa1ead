package lineage

import (
	"math"
	"math/rand"
	"testing"
)

func TestDNFBasics(t *testing.T) {
	if !False().IsFalse() {
		t.Error("False not false")
	}
	if !(DNF{{}}).IsTrue() {
		t.Error("True not true")
	}
	d := DNF{{1, 2}, {3}}
	if d.IsTrue() || d.IsFalse() {
		t.Error("d misclassified")
	}
	vars := d.Vars()
	if len(vars) != 3 || vars[0] != 1 || vars[2] != 3 {
		t.Errorf("Vars = %v", vars)
	}
	if d.Size() != 3 {
		t.Errorf("Size = %d", d.Size())
	}
}

func TestDNFEval(t *testing.T) {
	d := DNF{{1, 2}, {3}}
	tru := map[int]bool{1: true, 2: true}
	if !d.Eval(func(v int) bool { return tru[v] }) {
		t.Error("x1x2 should satisfy")
	}
	tru = map[int]bool{1: true}
	if d.Eval(func(v int) bool { return tru[v] }) {
		t.Error("x1 alone should not satisfy")
	}
	tru = map[int]bool{3: true}
	if !d.Eval(func(v int) bool { return tru[v] }) {
		t.Error("x3 should satisfy")
	}
}

func TestTermDedup(t *testing.T) {
	got := Term(3, 1, 3, 2, 1)
	want := []int{1, 2, 3}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("Term = %v want %v", got, want)
	}
}

func TestNormalizeAbsorption(t *testing.T) {
	d := DNF{{1, 2}, {1}, {2, 1}, {3, 4}, {4, 3, 1}}
	n := d.Normalize()
	// {1} absorbs {1,2} and {1,3,4}; {3,4} stays.
	if len(n) != 2 {
		t.Fatalf("Normalize = %v", n)
	}
	if len(n[0]) != 1 || n[0][0] != 1 || len(n[1]) != 2 {
		t.Errorf("Normalize = %v", n)
	}
}

func TestNormalizePreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		nv := 1 + rng.Intn(6)
		d := make(DNF, rng.Intn(6))
		for i := range d {
			term := make([]int, 1+rng.Intn(4))
			for j := range term {
				term[j] = 1 + rng.Intn(nv)
			}
			d[i] = term
		}
		n := d.Normalize()
		for mask := 0; mask < 1<<uint(nv); mask++ {
			assign := func(v int) bool { return mask&(1<<uint(v-1)) != 0 }
			if d.Eval(assign) != n.Eval(assign) {
				t.Fatalf("Normalize changed semantics: %v vs %v at mask %b", d, n, mask)
			}
		}
	}
}

func TestOr(t *testing.T) {
	a := DNF{{1}}
	b := DNF{{2}}
	if got := Or(a, b); len(got) != 2 {
		t.Errorf("Or = %v", got)
	}
	if got := Or(nil, b); len(got) != 1 {
		t.Errorf("Or(nil,b) = %v", got)
	}
}

func TestBruteForceProb(t *testing.T) {
	// P(x1 ∨ x2) = p1 + p2 - p1p2.
	probs := []float64{0, 0.3, 0.6}
	d := DNF{{1}, {2}}
	want := 0.3 + 0.6 - 0.18
	if got := bfProb(d, probs); math.Abs(got-want) > 1e-12 {
		t.Errorf("P = %v want %v", got, want)
	}
	// P(x1 ∧ x2) = p1p2.
	d = DNF{{1, 2}}
	if got := bfProb(d, probs); math.Abs(got-0.18) > 1e-12 {
		t.Errorf("P(and) = %v", got)
	}
	if got := bfProb(DNF{{}}, probs); got != 1 {
		t.Errorf("P(true) = %v", got)
	}
	if got := bfProb(False(), probs); got != 0 {
		t.Errorf("P(false) = %v", got)
	}
}

func TestBruteForceProbNegative(t *testing.T) {
	// Negative probabilities: inclusion-exclusion must still hold.
	probs := []float64{0, -0.5, 0.4}
	d := DNF{{1}, {2}}
	want := -0.5 + 0.4 - (-0.5)*0.4
	if got := bfProb(d, probs); math.Abs(got-want) > 1e-12 {
		t.Errorf("P = %v want %v", got, want)
	}
}

func TestFormulaEval(t *testing.T) {
	// (x1 ∧ ¬x2) ∨ x3
	f := Or_{And{Var(1), Not{Var(2)}}, Var(3)}
	cases := []struct {
		assign map[int]bool
		want   bool
	}{
		{map[int]bool{1: true}, true},
		{map[int]bool{1: true, 2: true}, false},
		{map[int]bool{3: true, 2: true}, true},
		{map[int]bool{}, false},
	}
	for _, c := range cases {
		got := f.Eval(func(v int) bool { return c.assign[v] })
		if got != c.want {
			t.Errorf("Eval(%v) = %v want %v", c.assign, got, c.want)
		}
	}
	vars := FormulaVars(f)
	if len(vars) != 3 {
		t.Errorf("FormulaVars = %v", vars)
	}
}

func TestFromDNFAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		nv := 1 + rng.Intn(5)
		d := make(DNF, rng.Intn(5))
		for i := range d {
			term := make([]int, 1+rng.Intn(3))
			for j := range term {
				term[j] = 1 + rng.Intn(nv)
			}
			d[i] = term
		}
		f := FromDNF(d)
		probs := make([]float64, nv+1)
		for i := 1; i <= nv; i++ {
			probs[i] = rng.Float64()
		}
		a, b := bfProb(d, probs), bfProbF(f, probs)
		if math.Abs(a-b) > 1e-12 {
			t.Fatalf("DNF %v: %v vs %v", d, a, b)
		}
	}
}

func TestStrings(t *testing.T) {
	if s := (DNF{{1, 2}, {3}}).String(); s != "(x1 ∧ x2) ∨ (x3)" {
		t.Errorf("DNF string = %q", s)
	}
	if s := False().String(); s != "false" {
		t.Errorf("false string = %q", s)
	}
	if s := (DNF{{}}).String(); s != "true" {
		t.Errorf("true string = %q", s)
	}
	f := Or_{And{Var(1), Var(2)}}
	if s := f.String(); s != "((x1 ∧ x2))" {
		t.Errorf("formula string = %q", s)
	}
}

// bfProb and bfProbF wrap the error-returning brute-force evaluators for
// test fixtures known to stay within the 30-variable limit.
func bfProb(d DNF, probs []float64) float64 {
	p, err := BruteForceProb(d, probs)
	if err != nil {
		panic(err)
	}
	return p
}

func bfProbF(f Formula, probs []float64) float64 {
	p, err := BruteForceProbFormula(f, probs)
	if err != nil {
		panic(err)
	}
	return p
}

// TestBruteForceTooLargeRefused: supports beyond 30 variables return an
// error instead of panicking.
func TestBruteForceTooLargeRefused(t *testing.T) {
	term := make([]int, 31)
	probs := make([]float64, 32)
	for i := range term {
		term[i] = i + 1
		probs[i+1] = 0.5
	}
	if _, err := BruteForceProb(DNF{term}, probs); err == nil {
		t.Error("BruteForceProb over 31 variables: want error, got nil")
	}
	if _, err := BruteForceProbFormula(FromDNF(DNF{term}), probs); err == nil {
		t.Error("BruteForceProbFormula over 31 variables: want error, got nil")
	}
}
