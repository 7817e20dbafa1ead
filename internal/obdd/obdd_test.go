package obdd

import (
	"math"
	"math/rand"
	"testing"

	"mvdb/internal/lineage"
)

func seqOrder(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i + 1
	}
	return out
}

func TestMkNodeReduced(t *testing.T) {
	m := NewManager(seqOrder(3))
	x := m.Var(1)
	if got := m.MkNode(0, x, x); got != x {
		t.Error("redundant node not reduced")
	}
	y1 := m.MkNode(1, False, True)
	y2 := m.MkNode(1, False, True)
	if y1 != y2 {
		t.Error("hash-consing failed")
	}
}

func TestVarUnknownPanics(t *testing.T) {
	m := NewManager(seqOrder(2))
	defer func() {
		if recover() == nil {
			t.Error("Var(99) did not panic")
		}
	}()
	m.Var(99)
}

func TestDuplicateOrderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate order did not panic")
		}
	}()
	NewManager([]int{1, 2, 1})
}

func TestApplyTruthTables(t *testing.T) {
	m := NewManager(seqOrder(2))
	x, y := m.Var(1), m.Var(2)
	and := m.And(x, y)
	or := m.Or(x, y)
	cases := []struct {
		a       map[int]bool
		wantAnd bool
		wantOr  bool
	}{
		{map[int]bool{}, false, false},
		{map[int]bool{1: true}, false, true},
		{map[int]bool{2: true}, false, true},
		{map[int]bool{1: true, 2: true}, true, true},
	}
	for _, c := range cases {
		assign := func(v int) bool { return c.a[v] }
		if got := m.Eval(and, assign); got != c.wantAnd {
			t.Errorf("and(%v) = %v", c.a, got)
		}
		if got := m.Eval(or, assign); got != c.wantOr {
			t.Errorf("or(%v) = %v", c.a, got)
		}
	}
	// Terminal identities.
	if m.And(x, True) != x || m.And(x, False) != False || m.Or(x, False) != x || m.Or(x, True) != True {
		t.Error("terminal identities broken")
	}
	if m.And(x, x) != x || m.Or(x, x) != x {
		t.Error("idempotence broken")
	}
}

func TestNot(t *testing.T) {
	m := NewManager(seqOrder(2))
	x, y := m.Var(1), m.Var(2)
	f := m.Or(x, y)
	nf := m.Not(f)
	for mask := 0; mask < 4; mask++ {
		assign := func(v int) bool { return mask&(1<<uint(v-1)) != 0 }
		if m.Eval(f, assign) == m.Eval(nf, assign) {
			t.Errorf("Not failed at mask %b", mask)
		}
	}
	if m.Not(True) != False || m.Not(False) != True {
		t.Error("Not on terminals")
	}
	if m.Not(nf) != f {
		t.Error("double negation is not identity (hash-consing should make it so)")
	}
}

// randomDNF builds a random monotone DNF over variables 1..nv.
func randomDNF(rng *rand.Rand, nv int) lineage.DNF {
	d := make(lineage.DNF, 1+rng.Intn(5))
	for i := range d {
		term := make([]int, 1+rng.Intn(4))
		for j := range term {
			term[j] = 1 + rng.Intn(nv)
		}
		d[i] = lineage.Term(term...)
	}
	return d
}

func buildFromDNF(m *Manager, d lineage.DNF) NodeID {
	acc := False
	for _, term := range d {
		t := True
		for _, v := range term {
			t = m.And(t, m.Var(v))
		}
		acc = m.Or(acc, t)
	}
	return acc
}

func TestApplyAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		nv := 2 + rng.Intn(6)
		d := randomDNF(rng, nv)
		m := NewManager(seqOrder(nv))
		f := buildFromDNF(m, d)
		for mask := 0; mask < 1<<uint(nv); mask++ {
			assign := func(v int) bool { return mask&(1<<uint(v-1)) != 0 }
			if m.Eval(f, assign) != d.Eval(assign) {
				t.Fatalf("trial %d: OBDD disagrees with DNF %v at mask %b", trial, d, mask)
			}
		}
	}
}

func TestProbAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		nv := 2 + rng.Intn(6)
		d := randomDNF(rng, nv)
		m := NewManager(seqOrder(nv))
		f := buildFromDNF(m, d)
		probs := make([]float64, nv+1)
		for i := 1; i <= nv; i++ {
			probs[i] = rng.Float64()
		}
		want := bfProb(d, probs)
		got := m.Prob(f, probs)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: Prob = %v want %v (DNF %v)", trial, got, want, d)
		}
	}
}

func TestProbNegativeProbabilities(t *testing.T) {
	// Section 3.3: Shannon expansion is valid verbatim for negative
	// probabilities.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		nv := 2 + rng.Intn(5)
		d := randomDNF(rng, nv)
		m := NewManager(seqOrder(nv))
		f := buildFromDNF(m, d)
		probs := make([]float64, nv+1)
		for i := 1; i <= nv; i++ {
			probs[i] = rng.Float64()*3 - 1.5 // in [-1.5, 1.5]
		}
		want := bfProb(d, probs)
		got := m.Prob(f, probs)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: Prob = %v want %v", trial, got, want)
		}
	}
}

func TestOrDisjointMatchesOr(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		m := NewManager(seqOrder(8))
		// f over vars 1..4, g over vars 5..8: disjoint and ordered.
		df := randomDNF(rng, 4)
		dg := make(lineage.DNF, 0, 4)
		for _, term := range randomDNF(rng, 4) {
			nt := make([]int, len(term))
			for i, v := range term {
				nt[i] = v + 4
			}
			dg = append(dg, nt)
		}
		f := buildFromDNF(m, df)
		g := buildFromDNF(m, dg)
		if !m.CanConcat(f, g) {
			t.Fatal("CanConcat should hold for disjoint ordered spans")
		}
		if m.OrDisjoint(f, g) != m.Or(f, g) {
			t.Fatalf("trial %d: OrDisjoint != Or", trial)
		}
		if m.AndDisjoint(f, g) != m.And(f, g) {
			t.Fatalf("trial %d: AndDisjoint != And", trial)
		}
	}
}

func TestOrDisjointPanicsOnOverlap(t *testing.T) {
	m := NewManager(seqOrder(2))
	x, y := m.Var(1), m.Var(2)
	f := m.And(x, y)
	g := m.Or(x, y)
	defer func() {
		if recover() == nil {
			t.Error("OrDisjoint on overlapping spans did not panic")
		}
	}()
	m.OrDisjoint(f, g)
}

func TestCanConcatTerminals(t *testing.T) {
	m := NewManager(seqOrder(2))
	x := m.Var(1)
	if !m.CanConcat(True, x) || !m.CanConcat(x, False) {
		t.Error("terminals should concat")
	}
	if m.OrDisjoint(False, x) != x || m.OrDisjoint(x, False) != x {
		t.Error("OrDisjoint terminal identities")
	}
	if m.AndDisjoint(True, x) != x || m.AndDisjoint(x, True) != x {
		t.Error("AndDisjoint terminal identities")
	}
	if m.OrDisjoint(True, x) != True || m.AndDisjoint(False, x) != False {
		t.Error("absorbing terminals")
	}
}

func TestSizeWidthSupport(t *testing.T) {
	m := NewManager(seqOrder(4))
	x1, y1 := m.Var(1), m.Var(2)
	x2, y2 := m.Var(3), m.Var(4)
	// (x1 ∧ y1) ∨ (x2 ∧ y2) — chain of two blocks.
	f := m.Or(m.And(x1, y1), m.And(x2, y2))
	// f = x1 ? (y1 ? 1 : x2∧y2) : x2∧y2 — exactly the nodes x1, y1, x2, y2.
	if got := m.Size(f); got != 4 {
		t.Errorf("Size = %d want 4", got)
	}
	sup := m.Support(f)
	if len(sup) != 4 {
		t.Errorf("Support = %v", sup)
	}
	if w := m.Width(f); w < 1 || w > 2 {
		t.Errorf("Width = %d", w)
	}
	if m.Size(True) != 0 || m.Width(False) != 0 || len(m.Support(True)) != 0 {
		t.Error("terminal metrics")
	}
}

func TestMaxLevelTracking(t *testing.T) {
	m := NewManager(seqOrder(4))
	f := m.And(m.Var(2), m.Var(4))
	if m.MaxLevel(f) != 3 {
		t.Errorf("MaxLevel = %d want 3", m.MaxLevel(f))
	}
	if m.MaxLevel(True) != -1 {
		t.Error("terminal MaxLevel")
	}
}

func TestManagerSnapshotRoundTrip(t *testing.T) {
	m := NewManager(seqOrder(6))
	f := m.Or(m.And(m.Var(1), m.Var(2)), m.And(m.Var(4), m.Var(6)))
	back, err := Restore(m.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != m.NumNodes() || back.NumVars() != m.NumVars() {
		t.Fatalf("restored manager differs: %d/%d nodes, %d/%d vars",
			back.NumNodes(), m.NumNodes(), back.NumVars(), m.NumVars())
	}
	// NodeIDs are preserved: the same id evaluates the same function.
	probs := []float64{0, .1, .2, .3, .4, .5, .6}
	if math.Abs(back.Prob(f, probs)-m.Prob(f, probs)) > 1e-12 {
		t.Error("probability differs after round trip")
	}
	// Hash-consing works on the restored manager: rebuilding the same
	// function yields the same id.
	g := back.Or(back.And(back.Var(1), back.Var(2)), back.And(back.Var(4), back.Var(6)))
	if g != f {
		t.Errorf("restored unique table broken: %d vs %d", g, f)
	}
}

func TestRestoreRejectsCorrupt(t *testing.T) {
	cases := []Snapshot{
		{}, // no terminals
		{Order: []int{1}, Nodes: []SnapNode{{}, {}, {Level: 0, Lo: 5, Hi: 1}}}, // forward child
		{Order: []int{1}, Nodes: []SnapNode{{}, {}, {Level: 3, Lo: 0, Hi: 1}}}, // bad level
		{Order: []int{1}, Nodes: []SnapNode{{}, {}, {Level: 0, Lo: 1, Hi: 1}}}, // unreduced
		{Order: []int{-1}, Nodes: []SnapNode{{}, {}}},                          // negative variable
		{Order: []int{3, 3}, Nodes: []SnapNode{{}, {}}},                        // repeated variable
		{Order: []int{1, 2}, Nodes: []SnapNode{{}, {}, // child above its node
			{Level: 0, Lo: 0, Hi: 1},
			{Level: 1, Lo: 2, Hi: 1}}},
	}
	for i, s := range cases {
		if _, err := Restore(s); err == nil {
			t.Errorf("case %d: corrupt snapshot accepted", i)
		}
	}
}

func TestRestoreRejectsDuplicateNode(t *testing.T) {
	s := Snapshot{Order: []int{1, 2}, Nodes: []SnapNode{
		{}, {},
		{Level: 1, Lo: 0, Hi: 1},
		{Level: 1, Lo: 0, Hi: 1},
	}}
	if _, err := Restore(s); err == nil {
		t.Error("duplicate node accepted")
	}
}

// bfProb wraps the error-returning brute-force evaluator for test fixtures
// known to stay within the 30-variable limit.
func bfProb(d lineage.DNF, probs []float64) float64 {
	p, err := lineage.BruteForceProb(d, probs)
	if err != nil {
		panic(err)
	}
	return p
}
