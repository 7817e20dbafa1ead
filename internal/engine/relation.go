package engine

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Deterministic is the weight of a deterministic tuple: infinite odds,
// probability 1.
var Deterministic = math.Inf(1)

// Tuple is a row of a relation. Var is the Boolean variable attached to a
// probabilistic tuple (0 for deterministic tuples), Weight its odds.
type Tuple struct {
	Vals   []Value
	Var    int
	Weight float64
}

// Prob converts the tuple's weight (odds) to a marginal probability
// p = w/(1+w). Deterministic tuples have probability 1. Negative weights
// yield the (valid in this framework) negative probability 1 - 1/(1+w); for
// w = -1 the translation is degenerate and Prob returns -Inf.
func (t Tuple) Prob() float64 {
	return WeightToProb(t.Weight)
}

// WeightToProb converts odds to probability: p = w/(1+w).
func WeightToProb(w float64) float64 {
	if math.IsInf(w, 1) {
		return 1
	}
	return w / (1 + w)
}

// ProbToWeight converts probability to odds: w = p/(1-p).
func ProbToWeight(p float64) float64 {
	if p == 1 {
		return math.Inf(1)
	}
	return p / (1 - p)
}

// Relation is a named table. Probabilistic relations hold weighted tuples;
// deterministic relations hold tuples with Weight = Deterministic and Var 0.
//
// Reads are safe for concurrent use: the hash and sorted indexes are built
// lazily under mu, so parallel compilation workers and concurrent query
// evaluators may share a relation as long as no tuples are being inserted
// at the same time.
type Relation struct {
	Name          string
	Cols          []string
	Deterministic bool
	Tuples        []Tuple

	mu      sync.RWMutex               // serialises index builds and writers
	byKey   map[string]int             // full tuple key -> index in Tuples
	indexes []atomic.Pointer[colIndex] // per column; nil until first probed
	sorted  map[int][]int              // column -> tuple indexes ordered by value
}

// newRelation returns an empty relation with room for one hash index per
// column.
func newRelation(name string, deterministic bool, cols []string, tuples int) *Relation {
	return &Relation{
		Name:          name,
		Cols:          append([]string(nil), cols...),
		Deterministic: deterministic,
		byKey:         make(map[string]int, tuples),
		indexes:       make([]atomic.Pointer[colIndex], len(cols)),
	}
}

// colIndex maps one column's values to the positions of the tuples holding
// them. Integers and strings get a map each, so a probe
// hashes an int64 or a string rather than the whole Value struct.
// MatchingIndexes sits on the compiler's and evaluator's innermost loops.
type colIndex struct {
	ints map[int64][]int
	strs map[string][]int
}

func (ix *colIndex) bucket(v Value) []int {
	if v.IsStr {
		return ix.strs[v.Str]
	}
	return ix.ints[v.Int]
}

// add appends pos to v's bucket, making the column's int or string map on
// its first value of that kind.
func (ix *colIndex) add(v Value, pos int) {
	switch {
	case v.IsStr && ix.strs == nil:
		ix.strs = map[string][]int{v.Str: {pos}}
	case v.IsStr:
		ix.strs[v.Str] = append(ix.strs[v.Str], pos)
	case ix.ints == nil:
		ix.ints = map[int64][]int{v.Int: {pos}}
	default:
		ix.ints[v.Int] = append(ix.ints[v.Int], pos)
	}
}

// drop removes pos from v's bucket, keeping the order of the rest, and
// drops the key once its bucket is empty.
func (ix *colIndex) drop(v Value, pos int) {
	b := ix.bucket(v)
	if i := slices.Index(b, pos); i >= 0 {
		b = slices.Delete(b, i, i+1)
	}
	switch {
	case v.IsStr && len(b) == 0:
		delete(ix.strs, v.Str)
	case v.IsStr:
		ix.strs[v.Str] = b
	case len(b) == 0:
		delete(ix.ints, v.Int)
	default:
		ix.ints[v.Int] = b
	}
}

// Arity returns the number of columns.
func (r *Relation) Arity() int { return len(r.Cols) }

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.Tuples) }

// Lookup returns the index of the tuple with exactly the given values, or -1.
// The key is built in a stack buffer, so a miss or hit costs no allocation
// for tuples of ordinary size (the compiler probes once per ground atom per
// chain block).
func (r *Relation) Lookup(vals []Value) int {
	var buf [96]byte
	if i, ok := r.byKey[string(AppendTupleKey(buf[:0], vals))]; ok {
		return i
	}
	return -1
}

// insert appends a tuple, rejecting duplicates (every relation has a key; we
// take the full tuple as key, as the paper does when no natural key exists).
func (r *Relation) insert(t Tuple) (int, error) {
	if len(t.Vals) != len(r.Cols) {
		return 0, fmt.Errorf("engine: relation %s has arity %d, got %d values", r.Name, len(r.Cols), len(t.Vals))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	key := string(AppendTupleKey(nil, t.Vals))
	if _, dup := r.byKey[key]; dup {
		return 0, fmt.Errorf("engine: duplicate tuple %s%s", r.Name, FormatTuple(t.Vals))
	}
	idx := len(r.Tuples)
	r.Tuples = append(r.Tuples, t)
	r.byKey[key] = idx
	for col := range r.indexes {
		if ix := r.indexes[col].Load(); ix != nil {
			ix.add(t.Vals[col], idx)
		}
	}
	// Sorted indexes are rebuilt lazily; SortedIndex detects staleness by
	// length, so just leave them.
	return idx, nil
}

// MatchingIndexes returns the indexes of tuples whose value in column col
// equals v, using (and building if needed) the hash index.
// The caller must not modify the returned slice.
//
// A built index is read with one atomic load and no lock. The first probe of
// a column builds its index under mu and publishes it (concurrent first
// probes wait for that one build); writers patch it in place under the
// exclusive-writer contract.
func (r *Relation) MatchingIndexes(col int, v Value) []int {
	ix := r.indexes[col].Load()
	if ix == nil {
		ix = r.buildIndex(col)
	}
	return ix.bucket(v)
}

func (r *Relation) buildIndex(col int) *colIndex {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ix := r.indexes[col].Load(); ix != nil {
		return ix
	}
	ix := new(colIndex)
	for i, t := range r.Tuples {
		ix.add(t.Vals[col], i)
	}
	r.indexes[col].Store(ix)
	return ix
}

// SortedIndex returns (building and caching on first use) the tuple indexes
// of the relation ordered by the value in the given column. Safe for
// concurrent readers, like MatchingIndexes.
func (r *Relation) SortedIndex(col int) []int {
	r.mu.RLock()
	ix, ok := r.sorted[col]
	r.mu.RUnlock()
	if ok && len(ix) == len(r.Tuples) {
		return ix
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sorted == nil {
		r.sorted = map[int][]int{}
	}
	if ix, ok := r.sorted[col]; ok && len(ix) == len(r.Tuples) {
		return ix
	}
	ix = make([]int, len(r.Tuples))
	for i := range ix {
		ix[i] = i
	}
	sort.Slice(ix, func(a, b int) bool {
		return r.Tuples[ix[a]].Vals[col].Compare(r.Tuples[ix[b]].Vals[col]) < 0
	})
	r.sorted[col] = ix
	return ix
}

// RangeScan returns the indexes of tuples whose value in col lies in the
// interval formed by the optional bounds. A nil bound is unbounded; the
// booleans make each bound inclusive.
func (r *Relation) RangeScan(col int, lo *Value, loIncl bool, hi *Value, hiIncl bool) []int {
	ix := r.SortedIndex(col)
	start := 0
	if lo != nil {
		start = sort.Search(len(ix), func(i int) bool {
			c := r.Tuples[ix[i]].Vals[col].Compare(*lo)
			if loIncl {
				return c >= 0
			}
			return c > 0
		})
	}
	end := len(ix)
	if hi != nil {
		end = sort.Search(len(ix), func(i int) bool {
			c := r.Tuples[ix[i]].Vals[col].Compare(*hi)
			if hiIncl {
				return c > 0
			}
			return c >= 0
		})
	}
	if start >= end {
		return nil
	}
	return ix[start:end]
}
