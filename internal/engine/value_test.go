package engine

import (
	"math"
	"testing"
	"testing/quick"
)

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(1), 1},
		{Int(5), Int(5), 0},
		{Int(-3), Int(0), -1},
		{Str("a"), Str("b"), -1},
		{Str("b"), Str("a"), 1},
		{Str("x"), Str("x"), 0},
		{Int(999), Str(""), -1}, // ints sort before strings
		{Str(""), Int(999), 1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v,%v)=%d want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestValueEqual(t *testing.T) {
	if !Int(3).Equal(Int(3)) {
		t.Error("Int(3) != Int(3)")
	}
	if Int(3).Equal(Str("3")) {
		t.Error("Int(3) == Str(3)")
	}
	if !Str("ab").Equal(Str("ab")) {
		t.Error("Str(ab) != Str(ab)")
	}
	// Int field is ignored for strings only if construction goes through Str;
	// Equal compares all fields, so hand-built mixed values differ.
	if (Value{Int: 1, Str: "a", IsStr: true}).Equal(Str("a")) {
		t.Error("values with differing Int fields compare equal")
	}
}

func TestValueKeyInjective(t *testing.T) {
	vals := []Value{Int(1), Int(-1), Int(12), Str("1"), Str("-1"), Str(""), Str("i1"), Str("s")}
	seen := map[string]Value{}
	for _, v := range vals {
		k := v.Key()
		if prev, ok := seen[k]; ok {
			t.Errorf("Key collision: %v and %v both map to %q", prev, v, k)
		}
		seen[k] = v
	}
}

func TestTupleKeyInjective(t *testing.T) {
	a := TupleKey([]Value{Str("ab"), Str("c")})
	b := TupleKey([]Value{Str("a"), Str("bc")})
	if a == b {
		t.Errorf("TupleKey not injective: %q", a)
	}
	c := TupleKey([]Value{Str("a"), Str("b"), Str("c")})
	if a == c {
		t.Errorf("TupleKey not injective across arities: %q", a)
	}
}

func TestLike(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"Sam Madden", "%Madden%", true},
		{"Sam Madden", "Sam%", true},
		{"Sam Madden", "%Sam", false},
		{"Sam Madden", "%M_dden", true},
		{"Sam Madden", "Sam Madden", true},
		{"Sam Madden", "sam madden", false}, // case-sensitive
		{"", "%", true},
		{"", "", true},
		{"", "_", false},
		{"abc", "a%c", true},
		{"ac", "a%c", true},
		{"abc", "a_c", true},
		{"abbc", "a_c", false},
		{"aXbXc", "%X%X%", true},
		{"madden", "%Madden%", false},
		{"xMaddeny", "%Madden%", true},
		{"%", "%%", true},
		{"abc", "%%%", true},
	}
	for _, c := range cases {
		if got := Like(c.s, c.p); got != c.want {
			t.Errorf("Like(%q,%q)=%v want %v", c.s, c.p, got, c.want)
		}
	}
}

func TestLikeNoWildcardsEqualsEquality(t *testing.T) {
	f := func(s string) bool {
		// A pattern without wildcards matches iff strings are equal.
		return Like(s, s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWeightProbConversions(t *testing.T) {
	cases := []struct{ w, p float64 }{
		{0, 0},
		{1, 0.5},
		{3, 0.75},
		{math.Inf(1), 1},
		{-0.5, -1}, // negative weight from view translation: p = -0.5/0.5
	}
	for _, c := range cases {
		if got := WeightToProb(c.w); math.Abs(got-c.p) > 1e-12 {
			t.Errorf("WeightToProb(%v)=%v want %v", c.w, got, c.p)
		}
	}
	// WeightToProb inverts the odds w = p/(1-p) on ordinary values.
	for _, p := range []float64{0, 0.1, 0.5, 0.9} {
		if got := WeightToProb(p / (1 - p)); math.Abs(got-p) > 1e-12 {
			t.Errorf("round trip p=%v got %v", p, got)
		}
	}
}
