package engine

import (
	"fmt"
	"math"
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

// Relation is a named table. Probabilistic relations hold weighted tuples;
// deterministic relations hold tuples with Weight = Deterministic and Var 0.
//
// Reads are safe for concurrent use: the column and sorted indexes are built
// lazily under mu, so parallel compilation workers and concurrent query
// evaluators may share a relation as long as no tuples are being inserted
// at the same time.
type Relation struct {
	Name          string
	Cols          []string
	Deterministic bool
	Tuples        []Tuple

	mu      sync.RWMutex               // serialises index builds and writers
	keys    posTable                   // full tuple -> position in Tuples
	indexes []atomic.Pointer[colIndex] // per column; nil until first probed
	sorted  map[int][]int              // column -> tuple indexes ordered by value
}

// newRelation returns an empty relation with room for one hash index per
// column.
func newRelation(name string, deterministic bool, cols []string) *Relation {
	return &Relation{
		Name:          name,
		Cols:          append([]string(nil), cols...),
		Deterministic: deterministic,
		keys:          posTable{col: -1},
		indexes:       make([]atomic.Pointer[colIndex], len(cols)),
	}
}

// Arity returns the number of columns.
func (r *Relation) Arity() int { return len(r.Cols) }

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.Tuples) }

// Lookup returns the index of the tuple with exactly the given values, or -1.
// It allocates nothing (the compiler probes once per ground atom per chain
// block).
func (r *Relation) Lookup(vals []Value) int {
	_, pos := r.keys.find(r.Tuples, vals)
	return pos
}

// insert appends a tuple, rejecting duplicates (every relation has a key; we
// take the full tuple as key, as the paper does when no natural key exists).
func (r *Relation) insert(t Tuple) (int, error) {
	if len(t.Vals) != len(r.Cols) {
		return 0, fmt.Errorf("engine: relation %s has arity %d, got %d values", r.Name, len(r.Cols), len(t.Vals))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	idx := len(r.Tuples)
	if idx >= maxTuples {
		return 0, fmt.Errorf("engine: relation %s is full (%d tuples)", r.Name, idx)
	}
	slot, dup := r.keys.find(r.Tuples, t.Vals)
	if dup >= 0 {
		return 0, fmt.Errorf("engine: duplicate tuple %s%s", r.Name, FormatTuple(t.Vals))
	}
	r.Tuples = append(r.Tuples, t)
	r.keys.insert(r.Tuples, slot, idx)
	for col := range r.indexes {
		if ix := r.indexes[col].Load(); ix != nil {
			ix.add(r.Tuples, idx)
		}
	}
	// Sorted indexes are rebuilt lazily; SortedIndex detects staleness by
	// length, so just leave them.
	return idx, nil
}

// restore installs the tuples of a snapshot in an empty relation, building
// the key table; a tuple of the wrong arity or a repeated tuple is an error.
func (r *Relation) restore(tuples []Tuple) error {
	if len(tuples) > maxTuples {
		return fmt.Errorf("engine: relation %s has %d tuples, more than %d", r.Name, len(tuples), maxTuples)
	}
	r.keys.reserve(tuples, len(tuples))
	for i, t := range tuples {
		if len(t.Vals) != len(r.Cols) {
			return fmt.Errorf("engine: relation %s has arity %d, its tuple %d has %d values", r.Name, len(r.Cols), i, len(t.Vals))
		}
		slot, dup := r.keys.find(tuples, t.Vals)
		if dup >= 0 {
			return fmt.Errorf("engine: relation %s holds %s twice, at %d and %d", r.Name, FormatTuple(t.Vals), dup, i)
		}
		r.keys.insert(tuples, slot, i)
	}
	r.Tuples = tuples
	return nil
}

// Match returns the tuples whose value in column col equals v, using (and
// building if needed) the column's hash index.
//
// A built index is read with one atomic load and no lock. The first probe of
// a column builds its index under mu and publishes it (concurrent first
// probes wait for that one build); writers patch it in place under the
// exclusive-writer contract.
func (r *Relation) Match(col int, v Value) Matches {
	ix := r.indexes[col].Load()
	if ix == nil {
		ix = r.buildIndex(col)
	}
	key := [1]Value{v}
	slot, last := ix.tab.find(r.Tuples, key[:])
	if last < 0 {
		return Matches{}
	}
	return Matches{next: ix.next, first: ix.next[last], last: int32(last), n: ix.tab.counts[slot]}
}

func (r *Relation) buildIndex(col int) *colIndex {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ix := r.indexes[col].Load(); ix != nil {
		return ix
	}
	ix := &colIndex{tab: posTable{col: col}, next: make([]int32, 0, len(r.Tuples))}
	for i := range r.Tuples {
		ix.add(r.Tuples, i)
	}
	r.indexes[col].Store(ix)
	return ix
}

// SortedIndex returns (building and caching on first use) the tuple indexes
// of the relation ordered by the value in the given column. Safe for
// concurrent readers, like Match.
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
