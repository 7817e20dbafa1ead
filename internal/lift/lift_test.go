package lift

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"mvdb/internal/engine"
	"mvdb/internal/lineage"
	"mvdb/internal/obdd"
	"mvdb/internal/ucq"
)

func randDB(rng *rand.Rand, negative bool) *engine.Database {
	db := engine.NewDatabase()
	db.MustCreateRelation("R", false, "a")
	db.MustCreateRelation("T", false, "a")
	db.MustCreateRelation("S", false, "a", "b")
	db.MustCreateRelation("D", true, "a")
	n := 2 + rng.Int63n(2)
	w := func() float64 {
		if negative && rng.Intn(3) == 0 {
			return -rng.Float64() * 0.4 // negative odds -> negative probability
		}
		return rng.Float64() * 2
	}
	for i := int64(1); i <= n; i++ {
		if i%2 == 1 {
			db.MustInsertDet("D", engine.Int(i))
		}
		if rng.Intn(2) == 0 {
			db.MustInsert("R", w(), engine.Int(i))
		}
		if rng.Intn(2) == 0 {
			db.MustInsert("T", w(), engine.Int(i))
		}
		for j := int64(0); j < rng.Int63n(3); j++ {
			db.MustInsert("S", w(), engine.Int(i), engine.Int(10*i+j))
		}
	}
	return db
}

func bruteForce(t *testing.T, db *engine.Database, u ucq.UCQ) float64 {
	t.Helper()
	lin, err := ucq.EvalBoolean(db, u)
	if err != nil {
		t.Fatal(err)
	}
	p, err := lineage.BruteForceProb(lin, db.Probs())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestLiftedSafeQueries(t *testing.T) {
	shapes := []string{
		"Q() :- R(x)",
		"Q() :- R(x), S(x,y)",
		"Q() :- R(x), S(x,y), T(x)",
		"Q() :- R(x), T(y)",
		"Q() :- R(x)\nQ() :- T(y)",
		"Q() :- R(x1), S(x1,y1)\nQ() :- T(x2), S(x2,y2)",
		"Q() :- R(x), S(x,y), y > 15",
		"Q() :- R(1)",
		"Q() :- R(1), S(1,y)",
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		db := randDB(rng, false)
		for _, src := range shapes {
			q := ucq.MustParse(src)
			got, err := Prob(db, q.UCQ)
			if err != nil {
				t.Fatalf("%q: %v", src, err)
			}
			want := bruteForce(t, db, q.UCQ)
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("trial %d %q: lifted = %v brute = %v", trial, src, got, want)
			}
		}
	}
}

func TestLiftedNegativeProbabilities(t *testing.T) {
	// The MarkoView translation produces negative probabilities; the safe
	// plan algebra must still be exact.
	shapes := []string{
		"Q() :- R(x), S(x,y)",
		"Q() :- R(x)\nQ() :- T(y)",
		"Q() :- R(x1), S(x1,y1)\nQ() :- T(x2), S(x2,y2)",
	}
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 50; trial++ {
		db := randDB(rng, true)
		for _, src := range shapes {
			q := ucq.MustParse(src)
			got, err := Prob(db, q.UCQ)
			if err != nil {
				t.Fatalf("%q: %v", src, err)
			}
			want := bruteForce(t, db, q.UCQ)
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("trial %d %q: lifted = %v brute = %v", trial, src, got, want)
			}
		}
	}
}

// obddProb compiles u over db and evaluates it under db's (possibly
// negative) probabilities: the OBDD method's kernel, independent of lift.
func obddProb(t *testing.T, db *engine.Database, u ucq.UCQ) float64 {
	t.Helper()
	m, f, _, err := obdd.Compile(db, u, obdd.IdentityPerm(db), obdd.CompileOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	return m.Prob(f, db.Probs())
}

func TestLiftedAgainstOBDD(t *testing.T) {
	// Every rule of the lifted algebra against OBDD compilation, with
	// negative probabilities on every other trial: a join with a
	// deterministic relation, inclusion-exclusion, ground lookups, separator
	// projection, and H0 bound per answer on either head variable (Boolean
	// H0 is unsafe, each binding is hierarchical).
	shapes := []string{
		"Q() :- R(x), D(x)",
		"Q() :- R(x), S(x,y)\nQ() :- R(x2), T(x2)",
		"Q() :- R(1), S(1,y)",
		"Q() :- R(2)\nQ() :- T(2)",
		"Q() :- R(x), S(x,y), T(x)",
		"Q() :- R(x1), S(x1,y1)\nQ() :- T(x2), S(x2,y2)",
		"Q() :- R(x), S(x,y), y > 15",
		"Q() :- R(x), S(x,y)\nQ() :- R(x2), D(x2)",
	}
	h0 := []string{"Q(x) :- R(x), S(x,y), U(y)", "Q(y) :- R(x), S(x,y), U(y)"}
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 40; trial++ {
		db := randDB(rng, trial%2 == 0)
		db.MustCreateRelation("U", false, "b") // joins S's second column
		for j := int64(10); j < 40; j += 10 {
			db.MustInsert("U", rng.Float64()*2, engine.Int(j+1))
		}
		var qs []ucq.UCQ
		for _, src := range shapes {
			qs = append(qs, ucq.MustParse(src).UCQ)
		}
		for _, src := range h0 {
			q := ucq.MustParse(src)
			rows, err := ucq.Eval(db, q)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rows {
				b, err := q.Bind(r.Head)
				if err != nil {
					t.Fatal(err)
				}
				qs = append(qs, b)
			}
		}
		for _, u := range qs {
			got, err := Prob(db, u)
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, u, err)
			}
			if want := obddProb(t, db, u); math.Abs(got-want) > 1e-9 {
				t.Fatalf("trial %d %v: lifted = %v obdd = %v", trial, u, got, want)
			}
		}
	}
}

func TestLiftedInclusionExclusion(t *testing.T) {
	// R(x),S(x,y) ∨ S(x2,y2),T2(x2): shares S but T2 is a fresh relation on
	// the same first column — still requires I/E... build a union that is
	// not separable: R(x),S(x,y) ∨ R(x2),T(x2).
	db := engine.NewDatabase()
	db.MustCreateRelation("R", false, "a")
	db.MustCreateRelation("T", false, "a")
	db.MustCreateRelation("S", false, "a", "b")
	rng := rand.New(rand.NewSource(7))
	for i := int64(1); i <= 3; i++ {
		db.MustInsert("R", rng.Float64(), engine.Int(i))
		db.MustInsert("T", rng.Float64(), engine.Int(i))
		db.MustInsert("S", rng.Float64(), engine.Int(i), engine.Int(10+i))
	}
	q := ucq.MustParse("Q() :- R(x), S(x,y)\nQ() :- R(x2), T(x2)")
	got, err := Prob(db, q.UCQ)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteForce(t, db, q.UCQ)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("lifted = %v brute = %v", got, want)
	}
}

func TestLiftedUnsafe(t *testing.T) {
	db := engine.NewDatabase()
	db.MustCreateRelation("R", false, "a")
	db.MustCreateRelation("S", false, "a", "b")
	db.MustCreateRelation("T", false, "b")
	db.MustInsert("R", 1, engine.Int(1))
	db.MustInsert("S", 1, engine.Int(1), engine.Int(2))
	db.MustInsert("T", 1, engine.Int(2))
	q := ucq.MustParse("Q() :- R(x), S(x,y), T(y)") // H0, #P-hard
	_, err := Prob(db, q.UCQ)
	if !errors.Is(err, ErrUnsafe) {
		t.Errorf("H0 err = %v, want ErrUnsafe", err)
	}
}

func TestLiftedSelfJoinUnsafe(t *testing.T) {
	db := engine.NewDatabase()
	db.MustCreateRelation("S", false, "a", "b")
	db.MustInsert("S", 1, engine.Int(1), engine.Int(2))
	db.MustInsert("S", 1, engine.Int(2), engine.Int(1))
	// S(x,y),S(y,x): separator positions conflict.
	q := ucq.MustParse("Q() :- S(x,y), S(y,x)")
	if _, err := Prob(db, q.UCQ); !errors.Is(err, ErrUnsafe) {
		t.Errorf("err = %v, want ErrUnsafe", err)
	}
}

func TestIsSafe(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"Q() :- R(x), S(x,y)", true},
		{"Q() :- R(x), S(x,y), T(y)", false},
		{"Q() :- R(x)\nQ() :- T(y)", true},
		{"Q() :- R(x1), S(x1,y1)\nQ() :- T(x2), S(x2,y2)", true},
		{"Q() :- S(x,y), S(y,x)", false},
		{"Q() :- R(x), T(y)", true},
	}
	for _, c := range cases {
		q := ucq.MustParse(c.src)
		if got := IsSafe(q.UCQ); got != c.want {
			t.Errorf("IsSafe(%q) = %v want %v", c.src, got, c.want)
		}
	}
}

func TestGroundDuplicateTuple(t *testing.T) {
	// The same tuple used twice in a conjunct counts once.
	db := engine.NewDatabase()
	db.MustCreateRelation("R", false, "a")
	db.MustInsert("R", 1, engine.Int(1)) // p = 0.5
	q := ucq.MustParse("Q() :- R(1), R(1)")
	got, err := Prob(db, q.UCQ)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.5) > 1e-12 {
		t.Errorf("P = %v want 0.5", got)
	}
}

func TestGroundNegatedDeterministic(t *testing.T) {
	db := engine.NewDatabase()
	db.MustCreateRelation("R", false, "a")
	db.MustCreateRelation("D", true, "a")
	db.MustInsert("R", 1, engine.Int(1))
	db.MustInsertDet("D", engine.Int(1))
	q := ucq.MustParse("Q() :- R(1), not D(1)")
	got, err := Prob(db, q.UCQ)
	if err != nil || got != 0 {
		t.Errorf("P = %v, %v; want 0", got, err)
	}
	q = ucq.MustParse("Q() :- R(1), not D(2)")
	got, err = Prob(db, q.UCQ)
	if err != nil || math.Abs(got-0.5) > 1e-12 {
		t.Errorf("P = %v, %v; want 0.5", got, err)
	}
}

func TestLiftedAgainstOBDDOnSafeShapes(t *testing.T) {
	// Same shapes, larger databases than brute force allows.
	db := engine.NewDatabase()
	db.MustCreateRelation("R", false, "a")
	db.MustCreateRelation("S", false, "a", "b")
	rng := rand.New(rand.NewSource(99))
	for i := int64(1); i <= 40; i++ {
		db.MustInsert("R", rng.Float64()*3, engine.Int(i))
		for j := int64(0); j < 3; j++ {
			db.MustInsert("S", rng.Float64()*3, engine.Int(i), engine.Int(100*i+j))
		}
	}
	q := ucq.MustParse("Q() :- R(x), S(x,y)")
	got, err := Prob(db, q.UCQ)
	if err != nil {
		t.Fatal(err)
	}
	// Closed form: 1 - Π_i (1 - p(R_i)(1 - Π_j(1-p(S_ij)))).
	want := 1.0
	ri := 0
	_ = ri
	prod := 1.0
	for i := 0; i < 40; i++ {
		r := db.Relation("R").Tuples[i]
		pi := engine.WeightToProb(r.Weight)
		ps := 1.0
		for j := 0; j < 3; j++ {
			s := db.Relation("S").Tuples[i*3+j]
			ps *= 1 - engine.WeightToProb(s.Weight)
		}
		prod *= 1 - pi*(1-ps)
	}
	want = 1 - prod
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("lifted = %v closed form = %v", got, want)
	}
}

func TestLiftedMinimizationEnablesSafePlans(t *testing.T) {
	// The union R(x),S(x,y) ∨ R(u),S(u,v),S(u,w) is logically just
	// R(x),S(x,y); without subsumption removal, inclusion-exclusion merges
	// the disjuncts into a self-join that no rule handles.
	db := engine.NewDatabase()
	db.MustCreateRelation("R", false, "a")
	db.MustCreateRelation("S", false, "a", "b")
	rng := rand.New(rand.NewSource(3))
	for i := int64(1); i <= 3; i++ {
		db.MustInsert("R", rng.Float64(), engine.Int(i))
		for j := int64(1); j <= 2; j++ {
			db.MustInsert("S", rng.Float64(), engine.Int(i), engine.Int(10*i+j))
		}
	}
	q := ucq.MustParse("Q() :- R(x), S(x,y)\nQ() :- R(u), S(u,v), S(u,w)")
	got, err := Prob(db, q.UCQ)
	if err != nil {
		t.Fatalf("minimized union still unsafe: %v", err)
	}
	want := bruteForce(t, db, q.UCQ)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("lifted = %v brute = %v", got, want)
	}
}
