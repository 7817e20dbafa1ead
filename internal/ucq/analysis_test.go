package ucq

import (
	"testing"
)

func TestRootVars(t *testing.T) {
	q := MustParse("Q() :- R(x), S(x,y)")
	roots := q.Disjuncts[0].rootVarsSkip(SkipGround)
	if len(roots) != 1 || roots[0] != "x" {
		t.Errorf("roots = %v", roots)
	}
	q = MustParse("Q() :- R(x), S(y,x), T(x,y)")
	roots = q.Disjuncts[0].rootVarsSkip(SkipGround)
	if len(roots) != 1 || roots[0] != "x" {
		t.Errorf("roots = %v", roots)
	}
	q = MustParse("Q() :- R(x), S(y)")
	if roots = q.Disjuncts[0].rootVarsSkip(SkipGround); len(roots) != 0 {
		t.Errorf("roots = %v", roots)
	}
}

func TestFindSeparatorSimple(t *testing.T) {
	q := MustParse("Q() :- R(x), S(x,y)")
	sep, ok := q.FindSeparatorSkip(SkipGround)
	if !ok || sep.PerDisjunct[0] != "x" {
		t.Fatalf("sep = %+v ok=%v", sep, ok)
	}
	if sep.RelPos["R"] != 0 || sep.RelPos["S"] != 0 {
		t.Errorf("positions = %v", sep.RelPos)
	}
}

func TestFindSeparatorUnion(t *testing.T) {
	// Example from Section 4.2: R(x1),S(x1,y1) ∨ T(x2),S(x2,y2).
	q := MustParse("Q() :- R(x1), S(x1,y1)\nQ() :- T(x2), S(x2,y2)")
	sep, ok := q.FindSeparatorSkip(SkipGround)
	if !ok {
		t.Fatal("no separator found")
	}
	if sep.PerDisjunct[0] != "x1" || sep.PerDisjunct[1] != "x2" {
		t.Errorf("sep = %+v", sep)
	}
}

func TestFindSeparatorNone(t *testing.T) {
	// R(x1),S(x1,y1) ∨ S(x2,y2),T(y2): S sees the root at position 0 in one
	// disjunct and position 1 in the other — no separator (Section 4.2).
	q := MustParse("Q() :- R(x1), S(x1,y1)\nQ() :- S(x2,y2), T(y2)")
	if _, ok := q.FindSeparatorSkip(SkipGround); ok {
		t.Error("separator found for inversion query")
	}
	// H0 = R(x),S(x,y),T(y): no root variable at all.
	q = MustParse("Q() :- R(x), S(x,y), T(y)")
	if _, ok := q.FindSeparatorSkip(SkipGround); ok {
		t.Error("separator found for H0")
	}
}

func TestComponents(t *testing.T) {
	q := MustParse("Q() :- R(x), S(y,z), T(z), R(w), w > 3")
	comps := q.Disjuncts[0].Components()
	if len(comps) != 3 {
		t.Fatalf("components = %+v", comps)
	}
	// The predicate w > 3 must land in the component containing R(w).
	found := false
	for _, c := range comps {
		if len(c.Preds) == 1 {
			if len(c.Atoms) != 1 || c.Atoms[0].Args[0].Var != "w" {
				t.Errorf("predicate attached to wrong component: %+v", c)
			}
			found = true
		}
	}
	if !found {
		t.Error("predicate lost")
	}
}

func TestComponentsPredicateJoins(t *testing.T) {
	// x < y joins the two atoms into one component.
	q := MustParse("Q() :- R(x), T(y), x < y")
	comps := q.Disjuncts[0].Components()
	if len(comps) != 1 {
		t.Fatalf("components = %+v", comps)
	}
}

func TestUnionGroups(t *testing.T) {
	q := MustParse("Q() :- R(x)\nQ() :- T(y)\nQ() :- R(z), W(z)")
	groups := q.UnionGroups()
	if len(groups) != 2 {
		t.Fatalf("groups = %+v", groups)
	}
	// R-disjuncts grouped together.
	var rGroup *UCQ
	for i := range groups {
		for _, d := range groups[i].Disjuncts {
			for _, a := range d.Atoms {
				if a.Rel == "R" {
					rGroup = &groups[i]
				}
			}
		}
	}
	if rGroup == nil || len(rGroup.Disjuncts) != 2 {
		t.Errorf("R group = %+v", rGroup)
	}
}

func TestSeparatorSelfJoinPosition(t *testing.T) {
	// Adv(x,a),Adv(x,b): x is a separator only because it sits at position 0
	// in both atoms.
	q := MustParse("Q() :- Adv(x,a), Adv(x,b), a <> b")
	sep, ok := q.FindSeparatorSkip(SkipGround)
	if !ok || sep.PerDisjunct[0] != "x" || sep.RelPos["Adv"] != 0 {
		t.Errorf("sep = %+v ok = %v", sep, ok)
	}
	// Adv(x,a),Adv(a,x): positions conflict — not a separator.
	q = MustParse("Q() :- Adv(x,a), Adv(a,x)")
	if _, ok = q.FindSeparatorSkip(SkipGround); ok {
		t.Error("conflicting positions accepted as separator")
	}
}

func TestRootVarsStrict(t *testing.T) {
	q := MustParse("Q() :- R(x), S(x,y)")
	if got := q.Disjuncts[0].rootVarsSkip(SkipNegated); len(got) != 1 || got[0] != "x" {
		t.Errorf("strict roots = %v", got)
	}
	// A ground atom kills strict roots but not lenient ones.
	q = MustParse("Q() :- R(1), S(2,y)")
	if got := q.Disjuncts[0].rootVarsSkip(SkipNegated); len(got) != 0 {
		t.Errorf("strict roots with ground atom = %v", got)
	}
	if got := q.Disjuncts[0].rootVarsSkip(SkipGround); len(got) != 1 || got[0] != "y" {
		t.Errorf("lenient roots = %v", got)
	}
}

func TestFindSeparatorStrict(t *testing.T) {
	q := MustParse("Q() :- R(x), S(x,y)")
	if _, ok := q.FindSeparatorSkip(SkipNegated); !ok {
		t.Error("strict separator missing for R(x),S(x,y)")
	}
	q = MustParse("Q() :- R(1), S(1,y)")
	if _, ok := q.FindSeparatorSkip(SkipNegated); ok {
		t.Error("strict separator found despite ground atom")
	}
	if _, ok := q.FindSeparatorSkip(SkipGround); !ok {
		t.Error("lenient separator should still exist")
	}
}
