package lift

import (
	"math/rand"
	"testing"

	"mvdb/internal/engine"
	"mvdb/internal/lineage"
	"mvdb/internal/ucq"
)

func cqOf(t *testing.T, src string) ucq.CQ {
	t.Helper()
	return ucq.MustParse(src).Disjuncts[0]
}

func TestHomomorphism(t *testing.T) {
	cases := []struct {
		from, to string
		want     bool
	}{
		// R(x),S(x,y) maps into R(a),S(a,b).
		{"Q() :- R(x), S(x,y)", "Q() :- R(a), S(a,b)", true},
		// S(x,y) maps into S(a,a) (collapse).
		{"Q() :- S(x,y)", "Q() :- S(a,a)", true},
		// S(x,x) does NOT map into S(a,b) with a≠b as variables... it does:
		// x -> a requires S(a,a) in target; S(a,b) alone does not contain it.
		{"Q() :- S(x,x)", "Q() :- S(a,b)", false},
		// Constants must be preserved.
		{"Q() :- R(1)", "Q() :- R(1)", true},
		{"Q() :- R(1)", "Q() :- R(2)", false},
		{"Q() :- R(x)", "Q() :- R(2)", true},
		// Different relation: no.
		{"Q() :- R(x)", "Q() :- T(y)", false},
		// Longer into shorter with reuse.
		{"Q() :- S(x,y), S(y,z)", "Q() :- S(a,a)", true},
		{"Q() :- S(x,y), S(y,z)", "Q() :- S(a,b), S(b,c)", true},
		{"Q() :- S(x,y), S(y,z)", "Q() :- S(a,b), S(c,d)", false},
	}
	for _, c := range cases {
		from, to := cqOf(t, c.from), cqOf(t, c.to)
		if _, got := homomorphismTo(from, to); got != c.want {
			t.Errorf("hom %q -> %q = %v want %v", c.from, c.to, got, c.want)
		}
	}
}

func TestHomomorphismPredicates(t *testing.T) {
	// Predicates must be preserved verbatim (conservative).
	from := cqOf(t, "Q() :- S(x,y), x < y")
	to := cqOf(t, "Q() :- S(a,b), a < b")
	if _, ok := homomorphismTo(from, to); !ok {
		t.Error("identical predicate shape rejected")
	}
	to2 := cqOf(t, "Q() :- S(a,b)")
	if _, ok := homomorphismTo(from, to2); ok {
		t.Error("dropped predicate accepted")
	}
	// Predicate satisfied by constants after mapping.
	from3 := cqOf(t, "Q() :- S(x,y), x < 5")
	to3 := cqOf(t, "Q() :- S(1,b)")
	if _, ok := homomorphismTo(from3, to3); !ok {
		t.Error("constant-true predicate rejected")
	}
	to4 := cqOf(t, "Q() :- S(9,b)")
	if _, ok := homomorphismTo(from3, to4); ok {
		t.Error("constant-false predicate accepted")
	}
}

func TestMinimize(t *testing.T) {
	// S(x,y) ∧ S(x,z): z-atom is redundant (collapse z -> y).
	c := cqOf(t, "Q() :- S(x,y), S(x,z)")
	m := minimize(c, nil)
	if len(m.Atoms) != 1 {
		t.Errorf("minimize = %v", m)
	}
	// The triangle-free core: S(x,y),S(y,z),S(z,x) is already a core.
	c = cqOf(t, "Q() :- S(x,y), S(y,z), S(z,x)")
	if m = minimize(c, nil); len(m.Atoms) != 3 {
		t.Errorf("core shrank: %v", m)
	}
	// Path of length 2 collapses onto a self-loop only when one exists.
	c = cqOf(t, "Q() :- S(x,x), S(x,y)")
	if m = minimize(c, nil); len(m.Atoms) != 1 {
		t.Errorf("self-loop not a core: %v", m)
	}
	// Protected (head) variables must not be collapsed away.
	c = cqOf(t, "Q(y) :- S(x,y), S(x,z)")
	if m = minimize(c, []string{"y"}); len(m.Atoms) != 1 {
		// S(x,z) can still fold into S(x,y) since z is existential.
		t.Errorf("minimize with head = %v", m)
	}
	c = cqOf(t, "Q(y,z) :- S(x,y), S(x,z)")
	if m = minimize(c, []string{"y", "z"}); len(m.Atoms) != 2 {
		t.Errorf("protected vars collapsed: %v", m)
	}
}

func TestRemoveRedundantDisjuncts(t *testing.T) {
	// R(x),S(x,y) is subsumed by S(x,y) (any match of the longer one is a
	// match of the shorter): the union equals S(x,y).
	q := ucq.MustParse("Q() :- S(x,y)\nQ() :- R(x), S(x,y)")
	r := removeRedundantDisjuncts(q.UCQ, nil)
	if len(r.Disjuncts) != 1 || len(r.Disjuncts[0].Atoms) != 1 {
		t.Errorf("removeRedundantDisjuncts = %v", r)
	}
	// Equivalent duplicates: keep exactly one.
	q = ucq.MustParse("Q() :- R(x)\nQ() :- R(y)")
	r = removeRedundantDisjuncts(q.UCQ, nil)
	if len(r.Disjuncts) != 1 {
		t.Errorf("duplicates kept: %v", r)
	}
	// Incomparable disjuncts survive.
	q = ucq.MustParse("Q() :- R(x)\nQ() :- T(y)")
	r = removeRedundantDisjuncts(q.UCQ, nil)
	if len(r.Disjuncts) != 2 {
		t.Errorf("incomparable dropped: %v", r)
	}
}

// TestRedundancySemantics: removing redundant disjuncts never changes the
// lineage semantics, verified on random databases.
func TestRedundancySemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	queries := []string{
		"Q() :- S(x,y)\nQ() :- R(x), S(x,y)",
		"Q() :- R(x)\nQ() :- R(y)\nQ() :- R(z), T(z)",
		"Q() :- S(x,y), S(x,z)\nQ() :- S(a,b)",
	}
	for trial := 0; trial < 20; trial++ {
		db := engine.NewDatabase()
		db.MustCreateRelation("R", false, "a")
		db.MustCreateRelation("T", false, "a")
		db.MustCreateRelation("S", false, "a", "b")
		for i := int64(1); i <= 3; i++ {
			if rng.Intn(2) == 0 {
				db.MustInsert("R", 1, engine.Int(i))
			}
			if rng.Intn(2) == 0 {
				db.MustInsert("T", 1, engine.Int(i))
			}
			for j := int64(1); j <= 2; j++ {
				if rng.Intn(2) == 0 {
					db.MustInsert("S", 1, engine.Int(i), engine.Int(j))
				}
			}
		}
		for _, src := range queries {
			q := ucq.MustParse(src)
			reduced := removeRedundantDisjuncts(q.UCQ, nil)
			a, err := ucq.EvalBoolean(db, q.UCQ)
			if err != nil {
				t.Fatal(err)
			}
			b, err := ucq.EvalBoolean(db, reduced)
			if err != nil {
				t.Fatal(err)
			}
			if lineage.DNF(a).Normalize().String() != lineage.DNF(b).Normalize().String() {
				t.Fatalf("trial %d %q: lineage changed:\n%v\nvs\n%v", trial, src,
					a.Normalize(), b.Normalize())
			}
		}
	}
}

// TestQuickHomomorphismSoundness: whenever homomorphismTo(c, d) reports a
// homomorphism, containment d ⊆ c must hold on random databases — every
// database where d has a match, c has one too.
func TestQuickHomomorphismSoundness(t *testing.T) {
	shapes := []string{
		"Q() :- S(x,y)",
		"Q() :- S(x,x)",
		"Q() :- S(x,y), S(y,z)",
		"Q() :- S(x,y), S(y,x)",
		"Q() :- R(x), S(x,y)",
		"Q() :- R(x), S(x,y), S(y,z)",
		"Q() :- S(1,y)",
		"Q() :- R(x), S(x,y), x < y",
	}
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 60; trial++ {
		db := engine.NewDatabase()
		db.MustCreateRelation("R", false, "a")
		db.MustCreateRelation("S", false, "a", "b")
		n := int64(1 + rng.Intn(3))
		for i := int64(1); i <= n; i++ {
			if rng.Intn(2) == 0 {
				db.MustInsert("R", 1, engine.Int(i))
			}
			for j := int64(1); j <= n; j++ {
				if rng.Intn(2) == 0 {
					db.MustInsert("S", 1, engine.Int(i), engine.Int(j))
				}
			}
		}
		for _, cs := range shapes {
			for _, ds := range shapes {
				c, d := cqOf(t, cs), cqOf(t, ds)
				if _, ok := homomorphismTo(c, d); !ok {
					continue
				}
				lc, err := ucq.EvalBoolean(db, ucq.UCQ{Disjuncts: []ucq.CQ{c}})
				if err != nil {
					t.Fatal(err)
				}
				ld, err := ucq.EvalBoolean(db, ucq.UCQ{Disjuncts: []ucq.CQ{d}})
				if err != nil {
					t.Fatal(err)
				}
				if !ld.IsFalse() && lc.IsFalse() {
					t.Fatalf("hom %q -> %q but d matched and c did not", cs, ds)
				}
			}
		}
	}
}

func TestCollapseEquivalentAtoms(t *testing.T) {
	q := ucq.MustParse("Q() :- S(1,y1), S(1,y2)")
	c := collapseEquivalentAtoms(q.Disjuncts[0], nil)
	if len(c.Atoms) != 1 {
		t.Errorf("collapse: %v", c)
	}
	// Shared variable blocks the collapse.
	q = ucq.MustParse("Q() :- S(x,y1), S(x,y2), R(y1)")
	c = collapseEquivalentAtoms(q.Disjuncts[0], nil)
	if len(c.Atoms) != 3 {
		t.Errorf("collapse should not fire: %v", c)
	}
	// S(y,y) and S(a,b) with local vars are NOT equivalent.
	q = ucq.MustParse("Q() :- S(y,y), S(a,b)")
	c = collapseEquivalentAtoms(q.Disjuncts[0], nil)
	if len(c.Atoms) != 2 {
		t.Errorf("distinct patterns collapsed: %v", c)
	}
	// But two diagonal atoms are.
	q = ucq.MustParse("Q() :- S(y,y), S(z,z)")
	c = collapseEquivalentAtoms(q.Disjuncts[0], nil)
	if len(c.Atoms) != 1 {
		t.Errorf("diagonal atoms not collapsed: %v", c)
	}
	// Protected variables are global.
	q2 := ucq.MustParse("Q(y1) :- S(1,y1), S(1,y2)")
	c = collapseEquivalentAtoms(q2.Disjuncts[0], q2.Head)
	if len(c.Atoms) != 2 {
		t.Errorf("protected var collapsed: %v", c)
	}
	// Predicate variables are global.
	q = ucq.MustParse("Q() :- S(1,y1), S(1,y2), y1 > 3")
	c = collapseEquivalentAtoms(q.Disjuncts[0], nil)
	if len(c.Atoms) != 2 {
		t.Errorf("predicate var collapsed: %v", c)
	}
}
