package engine

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randValue generates integer and string Values, biased toward collisions.
type randValue struct{ V Value }

// Generate implements quick.Generator.
func (randValue) Generate(rng *rand.Rand, size int) reflect.Value {
	var v Value
	if rng.Intn(2) == 0 {
		v = Int(rng.Int63n(20) - 10)
	} else {
		alphabet := []string{"", "a", "b", "ab", "i5", "s", "-3", "5"}
		v = Str(alphabet[rng.Intn(len(alphabet))])
	}
	return reflect.ValueOf(randValue{v})
}

// TestQuickCompareTotalOrder: Compare is antisymmetric and consistent with
// Equal.
func TestQuickCompareTotalOrder(t *testing.T) {
	f := func(a, b randValue) bool {
		ca, cb := a.V.Compare(b.V), b.V.Compare(a.V)
		if ca != -cb {
			return false
		}
		return (ca == 0) == a.V.Equal(b.V)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestQuickCompareTransitive on random triples.
func TestQuickCompareTransitive(t *testing.T) {
	f := func(a, b, c randValue) bool {
		if a.V.Compare(b.V) <= 0 && b.V.Compare(c.V) <= 0 {
			return a.V.Compare(c.V) <= 0
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestQuickValueKeyInjective: Key collides only on equal values.
func TestQuickValueKeyInjective(t *testing.T) {
	f := func(a, b randValue) bool {
		return (a.V.Key() == b.V.Key()) == a.V.Equal(b.V)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestQuickTupleKeyInjective: TupleKey collides only on equal tuples.
func TestQuickTupleKeyInjective(t *testing.T) {
	f := func(a, b []randValue) bool {
		ta := make([]Value, len(a))
		for i, v := range a {
			ta[i] = v.V
		}
		tb := make([]Value, len(b))
		for i, v := range b {
			tb[i] = v.V
		}
		equal := len(ta) == len(tb)
		if equal {
			for i := range ta {
				if !ta[i].Equal(tb[i]) {
					equal = false
					break
				}
			}
		}
		return (TupleKey(ta) == TupleKey(tb)) == equal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestQuickWeightProbRoundTrip on probabilities in (-1, 1).
func TestQuickWeightProbRoundTrip(t *testing.T) {
	f := func(raw float64) bool {
		p := math.Mod(math.Abs(raw), 1.99) - 0.995 // in (-1, 1)
		if math.IsNaN(p) || math.Abs(1-p) < 1e-9 {
			return true
		}
		got := WeightToProb(p / (1 - p))
		return math.Abs(got-p) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestQuickLikePrefixSuffix: "%s" and "s%" behave like HasSuffix/HasPrefix
// for wildcard-free s.
func TestQuickLikePrefixSuffix(t *testing.T) {
	clean := func(s string) string {
		out := []byte{}
		for i := 0; i < len(s); i++ {
			if s[i] != '%' && s[i] != '_' {
				out = append(out, s[i])
			}
		}
		return string(out)
	}
	f := func(prefix, suffix string) bool {
		p, s := clean(prefix), clean(suffix)
		full := p + "xyz" + s
		return Like(full, p+"%") && Like(full, "%"+s) && Like(full, p+"%"+s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
