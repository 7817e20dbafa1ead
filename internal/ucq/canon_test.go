package ucq

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// randomCQ builds a random conjunct over relations R0..R3 (arities 1..3) and
// variables x0..x5, with occasional constants, negation, and predicates.
func randomCQ(rng *rand.Rand) CQ {
	arity := []int{1, 2, 3, 2}
	var c CQ
	nAtoms := 1 + rng.Intn(4)
	for i := 0; i < nAtoms; i++ {
		rel := rng.Intn(len(arity))
		a := Atom{Rel: fmt.Sprintf("R%d", rel), Negated: rng.Intn(8) == 0}
		for j := 0; j < arity[rel]; j++ {
			if rng.Intn(6) == 0 {
				a.Args = append(a.Args, CInt(int64(rng.Intn(3))))
			} else {
				a.Args = append(a.Args, V(fmt.Sprintf("x%d", rng.Intn(6))))
			}
		}
		c.Atoms = append(c.Atoms, a)
	}
	vars := c.Vars()
	if len(vars) > 0 && rng.Intn(3) == 0 {
		c.Preds = append(c.Preds, Pred{
			Op: PredOp(rng.Intn(6)),
			L:  V(vars[rng.Intn(len(vars))]),
			R:  V(vars[rng.Intn(len(vars))]),
		})
	}
	return c
}

func randomUCQ(rng *rand.Rand) UCQ {
	u := UCQ{}
	for i := 0; i < 1+rng.Intn(3); i++ {
		u.Disjuncts = append(u.Disjuncts, randomCQ(rng))
	}
	return u
}

// scramble renames every variable injectively and shuffles atom, predicate,
// and disjunct order — a random member of the query's isomorphism class.
func scramble(u UCQ, head []string, rng *rand.Rand) (UCQ, []string) {
	perm := rng.Perm(16)
	rename := func(t Term) Term {
		if t.IsConst {
			return t
		}
		var i int
		fmt.Sscanf(t.Var, "x%d", &i)
		return V(fmt.Sprintf("z%d", perm[i]))
	}
	out := UCQ{Disjuncts: make([]CQ, len(u.Disjuncts))}
	for i, d := range u.Disjuncts {
		nd := CQ{Atoms: make([]Atom, len(d.Atoms))}
		for j, a := range d.Atoms {
			na := Atom{Rel: a.Rel, Negated: a.Negated, Args: make([]Term, len(a.Args))}
			for k, t := range a.Args {
				na.Args[k] = rename(t)
			}
			nd.Atoms[j] = na
		}
		for _, p := range d.Preds {
			nd.Preds = append(nd.Preds, Pred{Op: p.Op, L: rename(p.L), R: rename(p.R), Offset: p.Offset})
		}
		rng.Shuffle(len(nd.Atoms), func(a, b int) { nd.Atoms[a], nd.Atoms[b] = nd.Atoms[b], nd.Atoms[a] })
		rng.Shuffle(len(nd.Preds), func(a, b int) { nd.Preds[a], nd.Preds[b] = nd.Preds[b], nd.Preds[a] })
		out.Disjuncts[i] = nd
	}
	rng.Shuffle(len(out.Disjuncts), func(a, b int) {
		out.Disjuncts[a], out.Disjuncts[b] = out.Disjuncts[b], out.Disjuncts[a]
	})
	nh := make([]string, len(head))
	for i, h := range head {
		nh[i] = rename(V(h)).Var
	}
	return out, nh
}

// TestFingerprintRenameInvariance: every scrambled isomorph of a random UCQ
// must share the original's fingerprint — the soundness half of the cache key
// (missing it would only cost hits, but here it must hold by construction).
func TestFingerprintRenameInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		u := randomUCQ(rng)
		fp := fingerprintUCQ(u)
		if fp.IsZero() {
			t.Fatalf("zero fingerprint for %v", u)
		}
		for rep := 0; rep < 4; rep++ {
			s, _ := scramble(u, nil, rng)
			if got := fingerprintUCQ(s); got != fp {
				t.Fatalf("trial %d: fingerprint changed under rename/shuffle\noriginal:  %v → %v\nscrambled: %v → %v",
					trial, u, fp, s, got)
			}
		}
	}
}

// TestFingerprintQueryInvariance: the same property for named queries — and
// the query's name must not enter the hash, while its head does.
func TestFingerprintQueryInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		u := randomUCQ(rng)
		vars := u.Disjuncts[0].Vars()
		if len(vars) == 0 {
			continue
		}
		head := vars[:1]
		q := &Query{Name: "Q", Head: head, UCQ: u}
		fp := FingerprintQuery(q)
		su, sh := scramble(u, head, rng)
		sq := &Query{Name: "Renamed", Head: sh, UCQ: su}
		if got := FingerprintQuery(sq); got != fp {
			t.Fatalf("trial %d: query fingerprint changed under rename/shuffle\n%v vs %v", trial, q, sq)
		}
	}
}

// TestFingerprintSeparates: structural perturbations must change the
// fingerprint — a collision here would serve one query's cached answers to a
// different query.
func TestFingerprintSeparates(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	seen := map[Fingerprint]string{}
	for trial := 0; trial < 400; trial++ {
		u := randomUCQ(rng)
		cu := canonicalUCQ(u)
		key := cu.String() // canonical spelling identifies the isomorphism class
		fp := fingerprintUCQ(u)
		if prev, ok := seen[fp]; ok && prev != key {
			t.Fatalf("fingerprint collision between %q and %q", prev, key)
		}
		seen[fp] = key
	}

	base := UCQ{Disjuncts: []CQ{{Atoms: []Atom{
		{Rel: "R0", Args: []Term{V("x"), V("y")}},
		{Rel: "R1", Args: []Term{V("y"), V("z")}},
	}}}}
	fp := fingerprintUCQ(base)
	perturbations := []UCQ{
		// different relation
		{Disjuncts: []CQ{{Atoms: []Atom{
			{Rel: "R2", Args: []Term{V("x"), V("y")}},
			{Rel: "R1", Args: []Term{V("y"), V("z")}},
		}}}},
		// broken join (z joins instead of y)
		{Disjuncts: []CQ{{Atoms: []Atom{
			{Rel: "R0", Args: []Term{V("x"), V("y")}},
			{Rel: "R1", Args: []Term{V("z"), V("z")}},
		}}}},
		// constant instead of variable
		{Disjuncts: []CQ{{Atoms: []Atom{
			{Rel: "R0", Args: []Term{V("x"), CInt(1)}},
			{Rel: "R1", Args: []Term{V("y"), V("z")}},
		}}}},
		// negation
		{Disjuncts: []CQ{{Atoms: []Atom{
			{Rel: "R0", Args: []Term{V("x"), V("y")}, Negated: true},
			{Rel: "R1", Args: []Term{V("y"), V("z")}},
		}}}},
		// extra atom
		{Disjuncts: []CQ{{Atoms: []Atom{
			{Rel: "R0", Args: []Term{V("x"), V("y")}},
			{Rel: "R1", Args: []Term{V("y"), V("z")}},
			{Rel: "R0", Args: []Term{V("z"), V("x")}},
		}}}},
	}
	for i, p := range perturbations {
		if fingerprintUCQ(p) == fp {
			t.Errorf("perturbation %d kept the fingerprint: %v", i, p)
		}
	}
}

// TestFingerprintHeadPositions: queries that differ only in which join
// variable is exported must not collide, and head order matters.
func TestFingerprintHeadPositions(t *testing.T) {
	u := UCQ{Disjuncts: []CQ{{Atoms: []Atom{
		{Rel: "R0", Args: []Term{V("x"), V("y")}},
	}}}}
	qx := &Query{Name: "Q", Head: []string{"x"}, UCQ: u}
	qy := &Query{Name: "Q", Head: []string{"y"}, UCQ: u}
	if FingerprintQuery(qx) == FingerprintQuery(qy) {
		t.Fatal("head position x vs y collided")
	}
	qxy := &Query{Name: "Q", Head: []string{"x", "y"}, UCQ: u}
	qyx := &Query{Name: "Q", Head: []string{"y", "x"}, UCQ: u}
	if FingerprintQuery(qxy) == FingerprintQuery(qyx) {
		t.Fatal("head order collided")
	}
	if FingerprintQuery(qx) == fingerprintUCQ(u) {
		t.Fatal("named query collided with its Boolean body")
	}
}

// TestCanonicalUCQIdempotent: canonicalization is a fixpoint and lands every
// isomorph on the same concrete value.
func TestCanonicalUCQIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		u := randomUCQ(rng)
		c1 := canonicalUCQ(u)
		c2 := canonicalUCQ(c1)
		if !reflect.DeepEqual(c1, c2) {
			t.Fatalf("not idempotent:\n%v\n%v", c1, c2)
		}
		s, _ := scramble(u, nil, rng)
		if cs := canonicalUCQ(s); !reflect.DeepEqual(c1, cs) {
			t.Fatalf("isomorphs canonicalized differently:\n%v\n%v", c1, cs)
		}
	}
}

// TestFingerprintSymmetricSelfJoin exercises the individualize-and-refine
// search: fully symmetric self-joins where color refinement alone cannot
// split the variables.
func TestFingerprintSymmetricSelfJoin(t *testing.T) {
	// Triangle R(x,y),R(y,z),R(z,x): a cyclic automorphism group.
	tri := func(a, b, c string) UCQ {
		return UCQ{Disjuncts: []CQ{{Atoms: []Atom{
			{Rel: "R", Args: []Term{V(a), V(b)}},
			{Rel: "R", Args: []Term{V(b), V(c)}},
			{Rel: "R", Args: []Term{V(c), V(a)}},
		}}}}
	}
	fp := fingerprintUCQ(tri("x", "y", "z"))
	for _, names := range [][3]string{{"u", "v", "w"}, {"c", "a", "b"}, {"z", "x", "y"}} {
		if got := fingerprintUCQ(tri(names[0], names[1], names[2])); got != fp {
			t.Fatalf("triangle rename %v changed the fingerprint", names)
		}
	}
	// A path R(x,y),R(y,z),R(z,w) must not collide with the triangle.
	path := UCQ{Disjuncts: []CQ{{Atoms: []Atom{
		{Rel: "R", Args: []Term{V("x"), V("y")}},
		{Rel: "R", Args: []Term{V("y"), V("z")}},
		{Rel: "R", Args: []Term{V("z"), V("w")}},
	}}}}
	if fingerprintUCQ(path) == fp {
		t.Fatal("path collided with triangle")
	}
}

// TestFingerprintDisjunctDedup: duplicated disjuncts do not change the
// fingerprint (Q ∨ Q ≡ Q).
func TestFingerprintDisjunctDedup(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 100; trial++ {
		u := randomUCQ(rng)
		dup := UCQ{Disjuncts: append(append([]CQ{}, u.Disjuncts...), u.Disjuncts[0])}
		if fingerprintUCQ(dup) != fingerprintUCQ(u) {
			t.Fatalf("duplicate disjunct changed the fingerprint: %v", u)
		}
	}
}

// FuzzFingerprintRenameInvariance drives the invariance property from a fuzz
// seed: whatever random query the seed produces, all its scrambles agree.
func FuzzFingerprintRenameInvariance(f *testing.F) {
	for _, s := range []int64{1, 2, 42, 1 << 40} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		u := randomUCQ(rng)
		fp := fingerprintUCQ(u)
		for i := 0; i < 3; i++ {
			s, _ := scramble(u, nil, rng)
			if fingerprintUCQ(s) != fp {
				t.Fatalf("seed %d: fingerprint not rename-invariant for %v", seed, u)
			}
		}
		if !reflect.DeepEqual(canonicalUCQ(u), canonicalUCQ(canonicalUCQ(u))) {
			t.Fatalf("seed %d: canonicalUCQ not idempotent", seed)
		}
	})
}

// fingerprintUCQ returns the canonical fingerprint of a Boolean UCQ.
func fingerprintUCQ(u UCQ) Fingerprint {
	return fingerprintStrings(canonDisjunctStrings(u, nil))
}

// canonicalUCQ returns a canonical copy of the UCQ: variables renamed to
// v0, v1, ... per disjunct, atoms and predicates sorted, duplicate disjuncts
// dropped, and disjuncts ordered by their canonical serialization. Two UCQs
// equal up to renaming and reordering canonicalize to deeply equal values.
func canonicalUCQ(u UCQ) UCQ {
	type cd struct {
		s string
		d CQ
	}
	cds := make([]cd, 0, len(u.Disjuncts))
	for _, d := range u.Disjuncts {
		nd, s := canonicalCQ(d, nil)
		cds = append(cds, cd{s, nd})
	}
	sort.Slice(cds, func(i, j int) bool { return cds[i].s < cds[j].s })
	out := UCQ{Disjuncts: make([]CQ, 0, len(cds))}
	prev := ""
	for i, c := range cds {
		if i > 0 && c.s == prev {
			continue
		}
		prev = c.s
		out.Disjuncts = append(out.Disjuncts, c.d)
	}
	return out
}
