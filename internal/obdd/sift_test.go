package obdd

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"mvdb/internal/budget"
	"mvdb/internal/engine"
	"mvdb/internal/ucq"
)

// randomDNFManager builds a manager over nv variables with a random DNF
// function, returning the manager and root. Deterministic per seed.
func randomDNFManager(t *testing.T, nv, terms, width int, seed int64) (*Manager, NodeID) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	order := make([]int, nv)
	for i := range order {
		order[i] = i + 1 // external variable ids need not be levels
	}
	m := NewManager(order)
	f := False
	for i := 0; i < terms; i++ {
		term := True
		for j := 0; j < 1+rng.Intn(width); j++ {
			v := m.Var(order[rng.Intn(nv)])
			if rng.Intn(2) == 0 {
				v = m.Not(v)
			}
			term = m.And(term, v)
		}
		f = m.Or(f, term)
	}
	return m, f
}

func randomProbs(nv int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	probs := make([]float64, nv+2)
	for i := range probs {
		probs[i] = rng.Float64()
	}
	// A few out-of-range weights: the translation produces negative
	// probabilities, and sifting must preserve Prob for them too.
	probs[1] = -0.5
	if nv > 3 {
		probs[3] = 1.75
	}
	return probs
}

// TestReorderPreservesProb is the 1e-12 equivalence property test: the
// sifted OBDD must compute the same probability as the Π-order OBDD for
// arbitrary (even negative) tuple probabilities.
func TestReorderPreservesProb(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		m, f := randomDNFManager(t, 14, 12, 4, seed)
		probs := randomProbs(14, seed*31)
		want := m.Prob(f, probs)

		nm, roots, st, err := Reorder(m, []NodeID{f}, ReorderOptions{Mode: ReorderConverge})
		if err != nil {
			t.Fatalf("seed %d: Reorder: %v", seed, err)
		}
		got := nm.Prob(roots[0], probs)
		if math.Abs(got-want) > 1e-12*math.Max(1, math.Abs(want)) {
			t.Fatalf("seed %d: Prob diverged: static %.17g sifted %.17g", seed, want, got)
		}
		if st.NodesAfter > st.NodesBefore {
			t.Fatalf("seed %d: sifting grew the OBDD: %d -> %d", seed, st.NodesBefore, st.NodesAfter)
		}
		if got := nm.Size(roots[0]); got != st.NodesAfter {
			t.Fatalf("seed %d: NodesAfter %d but rebuilt size %d", seed, st.NodesAfter, got)
		}
		// Semantic equivalence under every assignment (the orders differ, so
		// compare by evaluation, not structure).
		rng := rand.New(rand.NewSource(seed * 97))
		for k := 0; k < 200; k++ {
			assign := map[int]bool{}
			for v := 1; v <= 14; v++ {
				assign[v] = rng.Intn(2) == 0
			}
			a := m.Eval(f, func(v int) bool { return assign[v] })
			b := nm.Eval(roots[0], func(v int) bool { return assign[v] })
			if a != b {
				t.Fatalf("seed %d: Eval diverged under %v", seed, assign)
			}
		}
	}
}

// TestReorderCanonical: the rebuilt manager must stay reduced and
// hash-consed — re-importing the sifted OBDD into a fresh manager with the
// same (learned) order must reproduce it node for node.
func TestReorderCanonical(t *testing.T) {
	m, f := randomDNFManager(t, 12, 10, 4, 7)
	nm, roots, _, err := Reorder(m, []NodeID{f}, ReorderOptions{Mode: ReorderOnce})
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewManager(nm.Order())
	g := fresh.Import(nm, roots[0])
	if !StructEqual(nm, roots[0], fresh, g) {
		t.Fatal("sifted OBDD is not canonical: re-import changed structure")
	}
	if fresh.NumNodes() != nm.Size(roots[0])+2 {
		t.Fatalf("sifted manager carries dead nodes into Import: fresh %d, size %d",
			fresh.NumNodes(), nm.Size(roots[0]))
	}
}

// TestReorderDeterministic: the same input must produce the same order and
// the same NodeIDs — the guarantee that keeps seq-vs-par NodeID equivalence
// intact after a post-compile sift.
func TestReorderDeterministic(t *testing.T) {
	opts := ReorderOptions{Mode: ReorderConverge, MaxGrowth: 1.5}
	m1, f1 := randomDNFManager(t, 13, 11, 4, 3)
	m2, f2 := randomDNFManager(t, 13, 11, 4, 3)
	nm1, r1, st1, err := Reorder(m1, []NodeID{f1}, opts)
	if err != nil {
		t.Fatal(err)
	}
	nm2, r2, st2, err := Reorder(m2, []NodeID{f2}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r1[0] != r2[0] || nm1.NumNodes() != nm2.NumNodes() {
		t.Fatalf("nondeterministic rebuild: roots %d vs %d, nodes %d vs %d",
			r1[0], r2[0], nm1.NumNodes(), nm2.NumNodes())
	}
	o1, o2 := nm1.Order(), nm2.Order()
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("nondeterministic order at level %d: %d vs %d", i, o1[i], o2[i])
		}
	}
	if st1.Swaps != st2.Swaps || st1.Rounds != st2.Rounds {
		t.Fatalf("nondeterministic stats: %+v vs %+v", st1, st2)
	}
}

// TestReorderMultiRoots: extra roots (e.g. block-record roots) must be
// remapped consistently with the primary root.
func TestReorderMultiRoots(t *testing.T) {
	m, f := randomDNFManager(t, 10, 8, 3, 5)
	sub := m.Cofactor(f, 2, true)
	probs := randomProbs(10, 55)
	wantF, wantSub := m.Prob(f, probs), m.Prob(sub, probs)
	nm, roots, _, err := Reorder(m, []NodeID{f, sub, False, True}, ReorderOptions{Mode: ReorderOnce})
	if err != nil {
		t.Fatal(err)
	}
	if roots[2] != False || roots[3] != True {
		t.Fatalf("terminal roots moved: %v", roots)
	}
	if got := nm.Prob(roots[0], probs); math.Abs(got-wantF) > 1e-12 {
		t.Fatalf("root 0 diverged: %g vs %g", got, wantF)
	}
	if got := nm.Prob(roots[1], probs); math.Abs(got-wantSub) > 1e-12 {
		t.Fatalf("root 1 diverged: %g vs %g", got, wantSub)
	}
}

// TestReorderWindows: a variable must never leave its window, and sifting
// within windows must still preserve the function.
func TestReorderWindows(t *testing.T) {
	m, f := randomDNFManager(t, 12, 10, 4, 11)
	windows := [][2]int{{0, 4}, {4, 9}, {9, 12}}
	inWin := func(order []int, w [2]int) map[int]bool {
		s := map[int]bool{}
		for _, v := range order[w[0]:w[1]] {
			s[v] = true
		}
		return s
	}
	before := make([]map[int]bool, len(windows))
	for i, w := range windows {
		before[i] = inWin(m.Order(), w)
	}
	nm, roots, _, err := Reorder(m, []NodeID{f}, ReorderOptions{Mode: ReorderConverge, Windows: windows})
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range windows {
		after := inWin(nm.Order(), w)
		for v := range after {
			if !before[i][v] {
				t.Fatalf("variable %d crossed into window %v", v, w)
			}
		}
	}
	probs := randomProbs(12, 99)
	if got, want := nm.Prob(roots[0], probs), m.Prob(f, probs); math.Abs(got-want) > 1e-12 {
		t.Fatalf("windowed sift diverged: %g vs %g", got, want)
	}
}

// TestReorderWindowValidation: malformed windows must be rejected, not
// silently mangled.
func TestReorderWindowValidation(t *testing.T) {
	m, f := randomDNFManager(t, 8, 5, 3, 1)
	for _, ws := range [][][2]int{
		{{-1, 4}},
		{{0, 9}},
		{{4, 4}},
		{{0, 5}, {4, 8}},
	} {
		if _, _, _, err := Reorder(m, []NodeID{f}, ReorderOptions{Mode: ReorderOnce, Windows: ws}); err == nil {
			t.Fatalf("windows %v: expected error", ws)
		}
	}
}

// TestReorderBudget: cancellation and the node budget must abort the search
// with typed errors and leave the input manager untouched.
func TestReorderBudget(t *testing.T) {
	m, f := randomDNFManager(t, 14, 14, 4, 17)
	sizeBefore := m.Size(f)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, _, err := Reorder(m, []NodeID{f}, ReorderOptions{Mode: ReorderConverge, Ctx: ctx})
	if !errors.Is(err, budget.ErrCanceled) {
		t.Fatalf("canceled ctx: got %v", err)
	}

	_, _, _, err = Reorder(m, []NodeID{f}, ReorderOptions{
		Mode:   ReorderConverge,
		Budget: budget.Budget{Deadline: time.Now().Add(-time.Second)},
	})
	if !errors.Is(err, budget.ErrCanceled) {
		t.Fatalf("expired deadline: got %v", err)
	}

	_, _, _, err = Reorder(m, []NodeID{f}, ReorderOptions{
		Mode:   ReorderConverge,
		Budget: budget.Budget{MaxNodes: 1},
	})
	if !errors.Is(err, budget.ErrBudgetExceeded) {
		t.Fatalf("MaxNodes 1: got %v", err)
	}

	if got := m.Size(f); got != sizeBefore {
		t.Fatalf("aborted Reorder mutated the input manager: size %d -> %d", sizeBefore, got)
	}
}

// TestReorderFindsInterleaving: ∨ᵢ (xᵢ ∧ yᵢ) under the worst order (all x
// before all y) is exponentially wide; sifting must recover (most of) the
// interleaved linear order. This is the classic separation that shows the
// swap machinery actually moves variables across long distances.
func TestReorderFindsInterleaving(t *testing.T) {
	const k = 8
	order := make([]int, 0, 2*k)
	for i := 1; i <= k; i++ {
		order = append(order, i) // x_i
	}
	for i := 1; i <= k; i++ {
		order = append(order, k+i) // y_i
	}
	m := NewManager(order)
	f := False
	for i := 1; i <= k; i++ {
		f = m.Or(f, m.And(m.Var(i), m.Var(k+i)))
	}
	before := m.Size(f)
	nm, roots, st, err := Reorder(m, []NodeID{f}, ReorderOptions{Mode: ReorderConverge, MaxRounds: 8})
	if err != nil {
		t.Fatal(err)
	}
	after := nm.Size(roots[0])
	// The interleaved order needs 3k-ish nodes; the separated order ~2^k.
	if after > 4*k {
		t.Fatalf("sifting failed to untangle ∨(x_i∧y_i): %d -> %d nodes (stats %+v)", before, after, st)
	}
	probs := randomProbs(2*k, 5)
	if got, want := nm.Prob(roots[0], probs), m.Prob(f, probs); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Prob diverged: %g vs %g", got, want)
	}
}

// TestReorderOff: ReorderOff must be an exact no-op returning the same
// manager.
func TestReorderOff(t *testing.T) {
	m, f := randomDNFManager(t, 6, 4, 3, 2)
	nm, roots, st, err := Reorder(m, []NodeID{f}, ReorderOptions{Mode: ReorderOff})
	if err != nil {
		t.Fatal(err)
	}
	if nm != m || roots[0] != f || st.Rounds != 0 {
		t.Fatalf("ReorderOff was not a no-op: %p vs %p, root %d vs %d", nm, m, roots[0], f)
	}
}

// TestParseReorderMode covers the flag surface.
func TestParseReorderMode(t *testing.T) {
	for s, want := range map[string]ReorderMode{"": ReorderOff, "off": ReorderOff, "once": ReorderOnce, "converge": ReorderConverge} {
		got, err := ParseReorderMode(s)
		if err != nil || got != want {
			t.Fatalf("ParseReorderMode(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseReorderMode("bogus"); err == nil {
		t.Fatal("ParseReorderMode(bogus): expected error")
	}
	if ReorderConverge.String() != "converge" || ReorderOnce.String() != "once" || ReorderOff.String() != "off" {
		t.Fatal("ReorderMode.String mismatch")
	}
}

// TestCompileWithReorder: sifting a real compiled query must produce an
// equivalent OBDD, and CompileOptions.Order must round-trip the learned order
// through a fresh compile.
func TestCompileWithReorder(t *testing.T) {
	db := engine.NewDatabase()
	db.MustCreateRelation("R", false, "a", "b")
	db.MustCreateRelation("S", false, "b", "c")
	for i := 0; i < 6; i++ {
		db.MustInsert("R", 0.5, engine.Int(int64(i%3)), engine.Int(int64(i)))
		db.MustInsert("S", 0.5, engine.Int(int64(i)), engine.Int(int64(i%2)))
	}
	q := ucq.MustParse("Q() :- R(a,b), S(b,c)").UCQ
	pi := IdentityPerm(db)

	m0, f0, _, err := Compile(db, q, pi, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m1, roots, _, err := Reorder(m0, []NodeID{f0}, ReorderOptions{Mode: ReorderConverge})
	if err != nil {
		t.Fatal(err)
	}
	f1 := roots[0]
	probs := db.Probs()
	if got, want := m1.Prob(f1, probs), m0.Prob(f0, probs); math.Abs(got-want) > 1e-12 {
		t.Fatalf("reorder-compiled Prob diverged: %g vs %g", got, want)
	}

	// Learned-order round trip: compiling under m1's order must reproduce
	// the sifted structure exactly.
	m2, f2, _, err := Compile(db, q, pi, CompileOptions{Order: m1.Order()})
	if err != nil {
		t.Fatal(err)
	}
	if !StructEqual(m1, f1, m2, f2) {
		t.Fatal("compile under learned order did not reproduce the sifted OBDD")
	}

	// Invalid learned orders must be rejected.
	if _, _, _, err := Compile(db, q, pi, CompileOptions{Order: []int{1, 2, 3}}); err == nil {
		t.Fatal("short Order: expected error")
	}
	bad := m1.Order()
	bad[0] = 1 << 30
	if _, _, _, err := Compile(db, q, pi, CompileOptions{Order: bad}); err == nil {
		t.Fatal("alien variable in Order: expected error")
	}
}

// TestLevelTableDelete exercises the backward-shift deletion of the sifter's
// per-level table directly, including collision chains.
func TestLevelTableDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 500
	lo := make([]int32, n+2)
	hi := make([]int32, n+2)
	tab := newLevelTable(8)
	live := map[[2]int32]int32{}
	for id := int32(2); id < n+2; id++ {
		for {
			a, b := int32(rng.Intn(40)), int32(rng.Intn(40))
			if a == b {
				continue
			}
			if _, dup := live[[2]int32{a, b}]; dup {
				continue
			}
			lo[id], hi[id] = a, b
			live[[2]int32{a, b}] = id
			break
		}
		_, slot := tab.lookup(lo, hi, lo[id], hi[id])
		tab.insert(lo, hi, id, slot)
	}
	// Delete half at random, verifying every remaining key stays findable.
	ids := make([]int32, 0, n)
	for _, id := range live {
		ids = append(ids, id)
	}
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	for k, id := range ids {
		if k%2 == 0 {
			tab.del(lo, hi, lo[id], hi[id])
			delete(live, [2]int32{lo[id], hi[id]})
		}
		if k%17 == 0 {
			for key, want := range live {
				got, _ := tab.lookup(lo, hi, key[0], key[1])
				if got != want {
					t.Fatalf("after %d deletions: lookup(%v) = %d, want %d", k/2+1, key, got, want)
				}
			}
		}
	}
	if tab.n != len(live) {
		t.Fatalf("occupancy drifted: table %d, live %d", tab.n, len(live))
	}
}
