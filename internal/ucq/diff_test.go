package ucq

import (
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"mvdb/internal/engine"
)

// TestEvalAgainstNestedLoops is a randomised differential test of the join
// kernel. Small random databases (int and string values, deterministic and
// probabilistic relations) are queried with random UCQs — constants,
// repeated variables, self-joins, comparison predicates with offsets, LIKE,
// negated deterministic atoms — and Eval and EvalBoolean must return exactly
// the head → lineage-term sets of a naive evaluator that enumerates the
// cross product of the atoms' tuples. Between query rounds, random inserts
// and deletes patch the lazily built hash and sorted indexes in place, so
// those are checked too.
func TestEvalAgainstNestedLoops(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := randomDB(rng)
		for round := 0; round < 6; round++ {
			for i := 0; i < 25; i++ {
				q := randomEvalQuery(rng)
				checkEval(t, db, q)
			}
			mutateDB(t, rng, db)
		}
	}
}

// diffRels is the schema of the random databases.
var diffRels = []struct {
	name  string
	det   bool
	arity int
}{
	{"R", false, 2}, {"S", false, 2}, {"P", false, 1}, {"T", true, 2}, {"U", true, 1},
}

var diffVars = []string{"x", "y", "z", "w"}

func randomValue(rng *rand.Rand) engine.Value {
	if rng.Intn(3) == 0 {
		return engine.Str([]string{"a", "b", "ab"}[rng.Intn(3)])
	}
	return engine.Int(int64(rng.Intn(4)))
}

func randomTuple(rng *rand.Rand, arity int) []engine.Value {
	vals := make([]engine.Value, arity)
	for i := range vals {
		vals[i] = randomValue(rng)
	}
	return vals
}

// insertRandom inserts one random tuple into rel unless it already exists.
func insertRandom(rng *rand.Rand, db *engine.Database, rel string, det bool, arity int) error {
	vals := randomTuple(rng, arity)
	if db.HasTuple(rel, vals) {
		return nil
	}
	if det {
		return db.InsertDet(rel, vals...)
	}
	_, err := db.Insert(rel, 0.5+rng.Float64(), vals...)
	return err
}

func randomDB(rng *rand.Rand) *engine.Database {
	db := engine.NewDatabase()
	for _, r := range diffRels {
		db.MustCreateRelation(r.name, r.det, []string{"c0", "c1"}[:r.arity]...)
		for i := 0; i < 4+rng.Intn(10); i++ {
			if err := insertRandom(rng, db, r.name, r.det, r.arity); err != nil {
				panic(err)
			}
		}
	}
	return db
}

// mutateDB inserts and deletes a few random tuples per relation.
func mutateDB(t *testing.T, rng *rand.Rand, db *engine.Database) {
	t.Helper()
	for _, r := range diffRels {
		for i := rng.Intn(4); i > 0; i-- {
			if err := insertRandom(rng, db, r.name, r.det, r.arity); err != nil {
				t.Fatal(err)
			}
		}
		rel := db.Relation(r.name)
		for i := rng.Intn(4); i > 0 && rel.Len() > 1; i-- {
			vals := append([]engine.Value(nil), rel.Tuples[rng.Intn(rel.Len())].Vals...)
			if _, err := db.DeleteTuple(r.name, vals); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func randomTerm(rng *rand.Rand) Term {
	if rng.Intn(5) == 0 {
		return C(randomValue(rng))
	}
	return V(diffVars[rng.Intn(len(diffVars))])
}

// randomEvalQuery builds a query with zero to two head variables and one or two
// disjuncts; every head, predicate and negated-atom variable is bound by a
// positive atom, as Validate requires.
func randomEvalQuery(rng *rand.Rand) *Query {
	q := &Query{Name: "Q"}
	for _, v := range diffVars[:rng.Intn(3)] {
		q.Head = append(q.Head, v)
	}
	for d := 1 + rng.Intn(2); d > 0; d-- {
		q.Disjuncts = append(q.Disjuncts, randomEvalCQ(rng, q.Head))
	}
	return q
}

func randomEvalCQ(rng *rand.Rand, head []string) CQ {
	var cq CQ
	pos := map[string]bool{}
	addAtom := func(args ...Term) {
		rel := diffRels[rng.Intn(len(diffRels))]
		for len(args) < rel.arity {
			args = append(args, randomTerm(rng))
		}
		for _, a := range args {
			if !a.IsConst {
				pos[a.Var] = true
			}
		}
		cq.Atoms = append(cq.Atoms, Atom{Rel: rel.name, Args: args})
	}
	for n := 1 + rng.Intn(3); n > 0; n-- {
		addAtom()
	}
	for _, h := range head {
		if !pos[h] {
			addAtom(V(h))
		}
	}
	var bound []string
	for _, v := range diffVars {
		if pos[v] {
			bound = append(bound, v)
		}
	}
	if len(bound) == 0 {
		return cq // only constants: no predicate or negation can refer to a variable
	}
	boundTerm := func() Term { return V(bound[rng.Intn(len(bound))]) }
	for n := rng.Intn(3); n > 0; n-- {
		p := Pred{Op: PredOp(rng.Intn(int(OpLike) + 1)), L: boundTerm()}
		switch {
		case p.Op == OpLike:
			p.R = CStr([]string{"a%", "%b", "_", "a_", "%"}[rng.Intn(5)])
		case rng.Intn(2) == 0:
			p.R = boundTerm()
		default:
			p.R = C(randomValue(rng))
		}
		if p.Op != OpLike {
			p.Offset = int64(rng.Intn(3) - 1)
			if rng.Intn(3) == 0 {
				p.L, p.R = p.R, p.L // a constant on the left exercises the mirrored bounds
			}
		}
		cq.Preds = append(cq.Preds, p)
	}
	if rng.Intn(3) == 0 {
		rel := diffRels[3+rng.Intn(2)] // T or U: negation needs a deterministic relation
		args := make([]Term, rel.arity)
		for i := range args {
			if rng.Intn(4) == 0 {
				args[i] = C(randomValue(rng))
			} else {
				args[i] = boundTerm()
			}
		}
		cq.Atoms = append(cq.Atoms, Atom{Rel: rel.name, Args: args, Negated: true})
	}
	return cq
}

// answerSet maps a head key to the set of lineage-term keys.
type answerSet map[string]map[string]bool

func (s answerSet) add(head []engine.Value, term []int) {
	k := engine.TupleKey(head)
	if s[k] == nil {
		s[k] = map[string]bool{}
	}
	s[k][termKey(term)] = true
}

func termKey(term []int) string {
	parts := make([]string, len(term))
	for i, v := range term {
		parts[i] = strconv.Itoa(v)
	}
	return strings.Join(parts, ",")
}

func checkEval(t *testing.T, db *engine.Database, q *Query) {
	t.Helper()
	want := answerSet{}
	for _, d := range q.Disjuncts {
		naiveCQ(db, d, q.Head, want)
	}
	rows, err := Eval(db, q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	got := answerSet{}
	for i, r := range rows {
		if i > 0 && !lessTuple(rows[i-1].Head, r.Head) {
			t.Errorf("%s: rows not strictly sorted at %d", q, i)
		}
		for _, term := range r.Lineage {
			got.add(r.Head, term)
		}
		if len(got[engine.TupleKey(r.Head)]) != len(r.Lineage) {
			t.Errorf("%s: head %v has duplicate terms %v", q, r.Head, r.Lineage)
		}
	}
	compareSets(t, q.String(), got, want)

	wantB := answerSet{}
	for _, d := range q.Disjuncts {
		naiveCQ(db, d, nil, wantB)
	}
	lin, err := EvalBoolean(db, q.UCQ)
	if err != nil {
		t.Fatalf("%s: EvalBoolean: %v", q, err)
	}
	gotB := answerSet{}
	for _, term := range lin {
		gotB.add(nil, term)
	}
	compareSets(t, "boolean "+q.UCQ.String(), gotB, wantB)
}

func compareSets(t *testing.T, what string, got, want answerSet) {
	t.Helper()
	render := func(s answerSet) string {
		var heads []string
		for h, terms := range s {
			var ts []string
			for k := range terms {
				ts = append(ts, "{"+k+"}")
			}
			slices.Sort(ts)
			heads = append(heads, h+":"+strings.Join(ts, " "))
		}
		slices.Sort(heads)
		return strings.Join(heads, "; ")
	}
	if g, w := render(got), render(want); g != w {
		t.Errorf("%s:\n got  %s\n want %s", what, g, w)
	}
}

// naiveCQ enumerates the cross product of the positive atoms' tuples,
// keeps the assignments that unify and satisfy every predicate and negated
// atom, and records (head, sorted distinct tuple variables).
func naiveCQ(db *engine.Database, cq CQ, head []string, out answerSet) {
	var pos, neg []Atom
	for _, a := range cq.Atoms {
		if a.Negated {
			neg = append(neg, a)
		} else {
			pos = append(pos, a)
		}
	}
	value := func(b map[string]engine.Value, t Term) engine.Value {
		if t.IsConst {
			return t.Const
		}
		return b[t.Var]
	}
	var rec func(i int, b map[string]engine.Value, vars []int)
	rec = func(i int, b map[string]engine.Value, vars []int) {
		if i == len(pos) {
			for _, p := range cq.Preds {
				if !p.EvalBound(value(b, p.L), value(b, p.R)) {
					return
				}
			}
			for _, a := range neg {
				for _, tup := range db.Relation(a.Rel).Tuples {
					match := true
					for j, arg := range a.Args {
						match = match && value(b, arg).Equal(tup.Vals[j])
					}
					if match {
						return
					}
				}
			}
			h := make([]engine.Value, len(head))
			for j, v := range head {
				h[j] = b[v]
			}
			term := slices.Clone(vars)
			slices.Sort(term)
			out.add(h, slices.Compact(term))
			return
		}
		a := pos[i]
	tuples:
		for _, tup := range db.Relation(a.Rel).Tuples {
			nb := make(map[string]engine.Value, len(b)+len(a.Args))
			for k, v := range b {
				nb[k] = v
			}
			for j, arg := range a.Args {
				if arg.IsConst {
					if !arg.Const.Equal(tup.Vals[j]) {
						continue tuples
					}
				} else if v, ok := nb[arg.Var]; ok {
					if !v.Equal(tup.Vals[j]) {
						continue tuples
					}
				} else {
					nb[arg.Var] = tup.Vals[j]
				}
			}
			nv := vars
			if tup.Var != 0 {
				nv = append(slices.Clip(vars), tup.Var)
			}
			rec(i+1, nb, nv)
		}
	}
	rec(0, map[string]engine.Value{}, nil)
}
