// Package engine implements the relational substrate of the MVDB system: a
// small in-memory database holding deterministic and probabilistic relations.
//
// Probabilistic tuples carry weights, which are odds: a weight w corresponds
// to the marginal probability p = w/(1+w) (Definition 2 of the paper). A
// weight of +Inf marks a deterministic tuple. Weights may be negative: the
// MarkoView translation of Section 3 produces tuples with weight (1-w)/w,
// which is negative whenever the view weight w exceeds 1, and the engine
// propagates the resulting negative probabilities untouched.
//
// Concurrency: any number of goroutines may read a Database at once —
// evaluate queries, probe MatchingIndexes and RangeScan, look up tuples —
// including the first probe of a column, which builds its index lazily under
// the relation's lock and publishes it for lock-free reads (parallel block
// compilation relies on this). Writes (Insert, InsertDet, DeleteTuple,
// UpdateWeight, SetWeight) must be exclusive: no reader or other writer may
// run alongside one — through any handle on the same store (Share).
// internal/server orders the two with its index lock.
package engine

import (
	"fmt"
	"strconv"
	"strings"
)

// Value is a database value: either an int64 or a string. The zero Value is
// the integer 0.
type Value struct {
	Int   int64
	Str   string
	IsStr bool
}

// Int returns an integer Value.
func Int(i int64) Value { return Value{Int: i} }

// Str returns a string Value.
func Str(s string) Value { return Value{Str: s, IsStr: true} }

// Compare orders Values: all integers sort before all strings, integers by
// numeric order, strings lexicographically. It returns -1, 0 or +1.
func (v Value) Compare(o Value) int {
	switch {
	case !v.IsStr && o.IsStr:
		return -1
	case v.IsStr && !o.IsStr:
		return 1
	case v.IsStr:
		return strings.Compare(v.Str, o.Str)
	case v.Int < o.Int:
		return -1
	case v.Int > o.Int:
		return 1
	}
	return 0
}

// Equal reports whether two Values are identical.
func (v Value) Equal(o Value) bool {
	return v.IsStr == o.IsStr && v.Int == o.Int && v.Str == o.Str
}

// String renders the value; strings are quoted.
func (v Value) String() string {
	if v.IsStr {
		return strconv.Quote(v.Str)
	}
	return strconv.FormatInt(v.Int, 10)
}

// Key returns a collision-free map key for the value.
func (v Value) Key() string {
	if v.IsStr {
		return "s" + v.Str
	}
	return "i" + strconv.FormatInt(v.Int, 10)
}

// TupleKey returns a collision-free map key for a sequence of values.
func TupleKey(vals []Value) string {
	var b strings.Builder
	for _, v := range vals {
		k := v.Key()
		b.WriteString(strconv.Itoa(len(k)))
		b.WriteByte(':')
		b.WriteString(k)
	}
	return b.String()
}

// AppendValueKey appends a collision-free encoding of v to b. Unlike Key it
// builds no intermediate strings, so hot paths can key maps with
// string(buf) lookups that the compiler keeps allocation-free.
func AppendValueKey(b []byte, v Value) []byte {
	if v.IsStr {
		b = append(b, 's')
		b = strconv.AppendInt(b, int64(len(v.Str)), 10)
		b = append(b, ':')
		return append(b, v.Str...)
	}
	b = append(b, 'i')
	b = strconv.AppendInt(b, v.Int, 10)
	return append(b, ';')
}

// AppendTupleKey appends a collision-free encoding of the tuple to b; the
// per-value delimiters make concatenation unambiguous.
func AppendTupleKey(b []byte, vals []Value) []byte {
	for _, v := range vals {
		b = AppendValueKey(b, v)
	}
	return b
}

// FormatTuple renders a tuple as "(v1, v2, ...)".
func FormatTuple(vals []Value) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Like implements SQL LIKE matching with % (any run, possibly empty) and _
// (exactly one byte). Matching is case-sensitive, as in Postgres.
func Like(s, pattern string) bool {
	return likeMatch(s, pattern)
}

func likeMatch(s, p string) bool {
	// Iterative two-pointer algorithm with backtracking on the last %.
	si, pi := 0, 0
	starP, starS := -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case pi < len(p) && p[pi] == '%':
			starP = pi
			starS = si
			pi++
		case starP >= 0:
			starS++
			si = starS
			pi = starP + 1
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}

// ParseValue parses a literal: a quoted string ('...' or "...") or an
// integer.
func ParseValue(s string) (Value, error) {
	s = strings.TrimSpace(s)
	if len(s) >= 2 && (s[0] == '\'' || s[0] == '"') && s[len(s)-1] == s[0] {
		return Str(s[1 : len(s)-1]), nil
	}
	i, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return Value{}, fmt.Errorf("engine: cannot parse value %q", s)
	}
	return Int(i), nil
}
