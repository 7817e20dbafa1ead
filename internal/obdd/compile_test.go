package obdd

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"mvdb/internal/engine"
	"mvdb/internal/lineage"
	"mvdb/internal/ucq"
)

// fig3DB reproduces the Figure 3 database.
func fig3DB() *engine.Database {
	db := engine.NewDatabase()
	db.MustCreateRelation("R", false, "a")
	db.MustCreateRelation("S", false, "a", "b")
	db.MustInsert("R", 1, engine.Int(1))                 // X1 = 1
	db.MustInsert("R", 1, engine.Int(2))                 // X2 = 2
	db.MustInsert("S", 1, engine.Int(1), engine.Int(11)) // Y1 = 3
	db.MustInsert("S", 1, engine.Int(1), engine.Int(12)) // Y2 = 4
	db.MustInsert("S", 1, engine.Int(2), engine.Int(13)) // Y3 = 5
	db.MustInsert("S", 1, engine.Int(2), engine.Int(14)) // Y4 = 6
	return db
}

func TestTupleOrderFig3(t *testing.T) {
	db := fig3DB()
	order := TupleOrder(db, IdentityPerm(db))
	// Π = X1, Y1, Y2, X2, Y3, Y4 (Section 4.2).
	want := []int{1, 3, 4, 2, 5, 6}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v want %v", order, want)
		}
	}
}

func TestCompileFig3(t *testing.T) {
	db := fig3DB()
	q := ucq.MustParse("Q() :- R(x), S(x,y)")
	m, f, stats, err := Compile(db, q.UCQ, IdentityPerm(db), CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The Figure 3 OBDD has 6 internal nodes.
	if got := m.Size(f); got != 6 {
		t.Errorf("Size = %d want 6", got)
	}
	if stats.LineageFalls != 0 {
		t.Errorf("inversion-free query fell back to lineage %d times", stats.LineageFalls)
	}
	if stats.SynthSteps != 0 {
		t.Errorf("inversion-free query used %d synthesis steps", stats.SynthSteps)
	}
	// Cross-check against the lineage brute force.
	lin, err := ucq.EvalBoolean(db, q.UCQ)
	if err != nil {
		t.Fatal(err)
	}
	probs := db.Probs()
	want := bfProb(lin, probs)
	if got := m.Prob(f, probs); math.Abs(got-want) > 1e-12 {
		t.Errorf("Prob = %v want %v", got, want)
	}
}

func TestCompileEqualsSynthesis(t *testing.T) {
	// ConOBDD and pure synthesis of the lineage must build the same node
	// (hash-consing makes equivalence a pointer comparison).
	db := fig3DB()
	q := ucq.MustParse("Q() :- R(x), S(x,y)")
	m, f, _, err := Compile(db, q.UCQ, IdentityPerm(db), CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	f2, stats2, err := CompileWith(m, db, q.UCQ, CompileOptions{FromLineage: true})
	if err != nil {
		t.Fatal(err)
	}
	if f != f2 {
		t.Error("concat and synthesis built different OBDDs")
	}
	if stats2.ConcatSteps != 0 || stats2.LineageFalls != 1 {
		t.Errorf("FromLineage did not synthesize the lineage alone: %+v", stats2)
	}
}

func TestCompileUnionWithSharedRelation(t *testing.T) {
	// R(z),S(z,y1) ∨ T(z),S(z,y2): separator across a union.
	db := engine.NewDatabase()
	db.MustCreateRelation("R", false, "a")
	db.MustCreateRelation("T", false, "a")
	db.MustCreateRelation("S", false, "a", "b")
	for i := int64(1); i <= 3; i++ {
		db.MustInsert("R", 1, engine.Int(i))
		db.MustInsert("T", 1, engine.Int(i))
		db.MustInsert("S", 1, engine.Int(i), engine.Int(10+i))
		db.MustInsert("S", 1, engine.Int(i), engine.Int(20+i))
	}
	q := ucq.MustParse("Q() :- R(x1), S(x1,y1)\nQ() :- T(x2), S(x2,y2)")
	m, f, _, err := Compile(db, q.UCQ, IdentityPerm(db), CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lin, _ := ucq.EvalBoolean(db, q.UCQ)
	probs := db.Probs()
	if got, want := m.Prob(f, probs), bfProb(lin, probs); math.Abs(got-want) > 1e-12 {
		t.Errorf("Prob = %v want %v", got, want)
	}
}

func TestCompileInversionFallsBack(t *testing.T) {
	// H0 = R(x),S(x,y),T(y) has an inversion: must fall back to lineage but
	// still be correct.
	db := engine.NewDatabase()
	db.MustCreateRelation("R", false, "a")
	db.MustCreateRelation("S", false, "a", "b")
	db.MustCreateRelation("T", false, "b")
	rng := rand.New(rand.NewSource(21))
	for i := int64(1); i <= 3; i++ {
		db.MustInsert("R", rng.Float64(), engine.Int(i))
		db.MustInsert("T", rng.Float64(), engine.Int(10+i))
		for j := int64(1); j <= 3; j++ {
			db.MustInsert("S", rng.Float64(), engine.Int(i), engine.Int(10+j))
		}
	}
	q := ucq.MustParse("Q() :- R(x), S(x,y), T(y)")
	m, f, stats, err := Compile(db, q.UCQ, IdentityPerm(db), CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.LineageFalls == 0 {
		t.Error("H0 compiled without lineage fallback?")
	}
	lin, _ := ucq.EvalBoolean(db, q.UCQ)
	probs := db.Probs()
	if got, want := m.Prob(f, probs), bfProb(lin, probs); math.Abs(got-want) > 1e-9 {
		t.Errorf("Prob = %v want %v", got, want)
	}
}

func TestCompileSelfJoinV2Shape(t *testing.T) {
	// The V2 denial view body: Adv(x,a), Adv(x,b), a <> b.
	db := engine.NewDatabase()
	db.MustCreateRelation("Adv", false, "s", "a")
	rng := rand.New(rand.NewSource(31))
	for s := int64(1); s <= 4; s++ {
		db.MustInsert("Adv", rng.Float64(), engine.Int(s), engine.Int(100+s))
		db.MustInsert("Adv", rng.Float64(), engine.Int(s), engine.Int(200+s))
	}
	q := ucq.MustParse("Q() :- Adv(x,a), Adv(x,b), a <> b")
	m, f, stats, err := Compile(db, q.UCQ, IdentityPerm(db), CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.LineageFalls == 0 {
		// Self-join blocks fall back per separator value; either way the
		// result must be exact.
		t.Log("self-join compiled structurally")
	}
	lin, _ := ucq.EvalBoolean(db, q.UCQ)
	probs := db.Probs()
	if got, want := m.Prob(f, probs), bfProb(lin, probs); math.Abs(got-want) > 1e-9 {
		t.Errorf("Prob = %v want %v", got, want)
	}
}

func TestCompileConstWidthLinearSize(t *testing.T) {
	// Proposition 2(b): an inversion-free query compiles to an OBDD of
	// constant width, hence linear size. Double the domain, the width must
	// not grow.
	build := func(n int64) (int, int) {
		db := engine.NewDatabase()
		db.MustCreateRelation("R", false, "a")
		db.MustCreateRelation("S", false, "a", "b")
		for i := int64(1); i <= n; i++ {
			db.MustInsert("R", 1, engine.Int(i))
			db.MustInsert("S", 1, engine.Int(i), engine.Int(1000+i))
			db.MustInsert("S", 1, engine.Int(i), engine.Int(2000+i))
		}
		q := ucq.MustParse("Q() :- R(x), S(x,y)")
		m, f, _, err := Compile(db, q.UCQ, IdentityPerm(db), CompileOptions{})
		if err != nil {
			panic(err)
		}
		return m.Size(f), m.Width(f)
	}
	s1, w1 := build(10)
	s2, w2 := build(20)
	if w1 != w2 {
		t.Errorf("width grew: %d -> %d", w1, w2)
	}
	if s2 <= s1 || s2 > 2*s1+2 {
		t.Errorf("size not linear: %d -> %d", s1, s2)
	}
}

func TestCompileFalsePredicates(t *testing.T) {
	db := fig3DB()
	q := ucq.MustParse("Q() :- R(x), S(x,y), 1 > 2")
	_, f, _, err := Compile(db, q.UCQ, IdentityPerm(db), CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if f != False {
		t.Error("unsatisfiable conjunct compiled to non-false")
	}
}

func TestCompileEmptyMatch(t *testing.T) {
	db := fig3DB()
	q := ucq.MustParse("Q() :- R(x), S(x,y), y > 9999")
	m, f, _, err := Compile(db, q.UCQ, IdentityPerm(db), CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if f != False {
		t.Errorf("empty query compiled to %v", m.Size(f))
	}
}

func TestCompileDeterministicAtoms(t *testing.T) {
	db := engine.NewDatabase()
	db.MustCreateRelation("R", false, "a")
	db.MustCreateRelation("D", true, "a", "n")
	db.MustInsert("R", 1, engine.Int(1))
	db.MustInsert("R", 1, engine.Int(2))
	db.MustInsertDet("D", engine.Int(1), engine.Str("keep"))
	db.MustInsertDet("D", engine.Int(2), engine.Str("drop"))
	q := ucq.MustParse("Q() :- R(x), D(x,n), n like 'keep%'")
	m, f, _, err := Compile(db, q.UCQ, IdentityPerm(db), CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lin, _ := ucq.EvalBoolean(db, q.UCQ)
	probs := db.Probs()
	if got, want := m.Prob(f, probs), bfProb(lin, probs); math.Abs(got-want) > 1e-12 {
		t.Errorf("Prob = %v want %v", got, want)
	}
}

func TestCompileRandomQueriesAgainstBruteForce(t *testing.T) {
	// Randomized end-to-end check: random small databases, a fixed set of
	// query shapes, OBDD probability vs lineage brute force.
	shapes := []string{
		"Q() :- R(x), S(x,y)",
		"Q() :- R(x), S(x,y), T(x)",
		"Q() :- R(x), S(x,y), T(y)",
		"Q() :- R(x1), S(x1,y1)\nQ() :- T(x2), S(x2,y2)",
		"Q() :- R(x)\nQ() :- T(y)",
		"Q() :- S(x,y), S(x,z), y <> z",
	}
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 40; trial++ {
		db := engine.NewDatabase()
		db.MustCreateRelation("R", false, "a")
		db.MustCreateRelation("T", false, "a")
		db.MustCreateRelation("S", false, "a", "b")
		for i := int64(1); i <= 2+rng.Int63n(2); i++ {
			if rng.Intn(2) == 0 {
				db.MustInsert("R", rng.Float64()*2, engine.Int(i))
			}
			if rng.Intn(2) == 0 {
				db.MustInsert("T", rng.Float64()*2, engine.Int(i))
			}
			for j := int64(1); j <= rng.Int63n(3); j++ {
				db.MustInsert("S", rng.Float64()*2, engine.Int(i), engine.Int(10*i+j))
			}
		}
		probs := db.Probs()
		for _, src := range shapes {
			q := ucq.MustParse(src)
			// T(y) in shape 4 reuses column a of T; arity matches.
			m, f, _, err := Compile(db, q.UCQ, IdentityPerm(db), CompileOptions{})
			if err != nil {
				t.Fatal(err)
			}
			lin, err := ucq.EvalBoolean(db, q.UCQ)
			if err != nil {
				t.Fatal(err)
			}
			want := bfProb(lin, probs)
			if got := m.Prob(f, probs); math.Abs(got-want) > 1e-9 {
				t.Fatalf("trial %d %q: Prob = %v want %v", trial, src, got, want)
			}
		}
	}
}

func TestPermValidate(t *testing.T) {
	db := fig3DB()
	if err := (Perm{"R": {0}, "S": {1, 0}}).Validate(db); err != nil {
		t.Error(err)
	}
	bad := []Perm{
		{"Nope": {0}},
		{"S": {0}},    // wrong length
		{"S": {0, 0}}, // not a bijection
		{"S": {0, 5}}, // out of range
	}
	for _, p := range bad {
		if err := p.Validate(db); err == nil {
			t.Errorf("Validate(%v) accepted", p)
		}
	}
}

func TestSeparatorFirstPerm(t *testing.T) {
	db := fig3DB()
	q := ucq.MustParse("Q() :- R(x), S(x,y)")
	sep, ok := q.FindSeparatorSkip(ucq.SkipGround)
	if !ok {
		t.Fatal("no separator")
	}
	p := SeparatorFirstPerm(db, sep)
	if p["S"][0] != 0 {
		t.Errorf("perm S = %v", p["S"])
	}
	// With the separator at position 1 instead:
	q2 := ucq.MustParse("Q() :- R(x), S2(y,x)")
	db.MustCreateRelation("S2", false, "b", "a")
	db.MustInsert("S2", 1, engine.Int(11), engine.Int(1))
	sep2, ok := q2.FindSeparatorSkip(ucq.SkipGround)
	if !ok {
		t.Fatal("no separator for q2")
	}
	p2 := SeparatorFirstPerm(db, sep2)
	if p2["S2"][0] != 1 || p2["S2"][1] != 0 {
		t.Errorf("perm S2 = %v", p2["S2"])
	}
}

func TestBuildDNFStandalone(t *testing.T) {
	m := NewManager(seqOrder(4))
	d := lineage.DNF{{1, 2}, {3, 4}}
	f := BuildDNF(m, d)
	probs := []float64{0, 0.5, 0.5, 0.5, 0.5}
	want := bfProb(d, probs)
	if got := m.Prob(f, probs); math.Abs(got-want) > 1e-12 {
		t.Errorf("Prob = %v want %v", got, want)
	}
}

func TestCompileGroundQuery(t *testing.T) {
	db := fig3DB()
	q := ucq.MustParse("Q() :- R(1), S(1,11)")
	m, f, _, err := Compile(db, q.UCQ, IdentityPerm(db), CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// P = p(X1) * p(Y1) = 0.25.
	if got := m.Prob(f, db.Probs()); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("Prob = %v", got)
	}
	// Missing tuple: false.
	q = ucq.MustParse("Q() :- R(99)")
	_, f, _, err = Compile(db, q.UCQ, IdentityPerm(db), CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if f != False {
		t.Error("missing ground tuple not false")
	}
}

func TestWriteDot(t *testing.T) {
	db := fig3DB()
	q := ucq.MustParse("Q() :- R(x), S(x,y)")
	m, f, _, err := Compile(db, q.UCQ, IdentityPerm(db), CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteDot(&buf, f, "fig3", nil); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"digraph", "style=dashed", "rank=same", "x1"} {
		if !strings.Contains(out, want) {
			t.Errorf("dot output missing %q:\n%s", want, out)
		}
	}
	// Custom labels.
	buf.Reset()
	if err := m.WriteDot(&buf, f, "named", func(v int) string { return "tuple" }); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "tuple") {
		t.Error("custom label ignored")
	}
	// Terminal-only OBDD.
	buf.Reset()
	if err := m.WriteDot(&buf, True, "trivial", nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "root") {
		t.Error("terminal OBDD needs a root marker")
	}
}

// TestQuickTupleOrderGroupsBySeparator: with a separator-first permutation
// the order Π groups every relation's tuples by the separator value, so the
// per-value blocks are contiguous — the property OrDisjoint concatenation
// relies on.
func TestQuickTupleOrderGroupsBySeparator(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := engine.NewDatabase()
		db.MustCreateRelation("R", false, "a")
		db.MustCreateRelation("S", false, "b", "a") // separator at position 1
		n := int64(2 + rng.Intn(5))
		for i := int64(1); i <= n; i++ {
			if rng.Intn(3) > 0 {
				db.MustInsert("R", 1, engine.Int(i))
			}
			for j := int64(0); j < rng.Int63n(3); j++ {
				db.MustInsert("S", 1, engine.Int(100+10*i+j), engine.Int(i))
			}
		}
		q := ucq.MustParse("Q() :- R(x), S(y,x)")
		sep, ok := q.FindSeparatorSkip(ucq.SkipGround)
		if !ok {
			return true
		}
		pi := SeparatorFirstPerm(db, sep)
		order := TupleOrder(db, pi)
		// The separator value of each tuple, in Π order, must be
		// non-decreasing (contiguous groups).
		prev := int64(-1 << 62)
		for _, v := range order {
			rel, tup, err := db.VarTuple(v)
			if err != nil {
				return false
			}
			var sv int64
			if rel == "R" {
				sv = tup.Vals[0].Int
			} else {
				sv = tup.Vals[1].Int
			}
			if sv < prev {
				return false
			}
			prev = sv
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
