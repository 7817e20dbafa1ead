package engine

import (
	"hash/maphash"
	"math"
)

// The two lookup structures a relation keeps beside its tuples hold int32
// tuple positions, not copies of the values: the key table finds a tuple by
// all of its values, a column index the tuples holding one value in one
// column. Both check a candidate against r.Tuples, which stays the only copy
// of a tuple's values.

// maxTuples bounds a relation's size: positions are stored as int32, and the
// key table stores position+1.
var maxTuples = math.MaxInt32

// keySeed seeds the hash of the key table and the column indexes, a fresh
// one per process; nothing is enumerated in hash order, so no output
// depends on it.
var (
	keySeed = maphash.MakeSeed()
	keyMix  = maphash.String(keySeed, "")
)

// hashVals hashes a tuple's values: each string through hash/maphash, each
// integer as itself, every value folded into the running hash by a seeded
// bijective mixer (MurmurHash3's finaliser). Hashing an int64 this way takes
// about a third of the time maphash takes over its eight bytes, and the
// column indexes, probed on the join kernel's innermost loop, mostly hash
// one.
func hashVals(vals []Value) uint64 {
	h := keyMix
	for _, v := range vals {
		x := uint64(v.Int)
		if v.IsStr {
			x = maphash.String(keySeed, v.Str)
		}
		h ^= x
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
		h *= 0xc4ceb9fe1a85ec53
		h ^= h >> 33
	}
	return h
}

func sameVals(a, b []Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// posTable is a hash table of tuple positions keyed by a projection of the
// tuple: all of its values (col -1, the key table) or one column's (a column
// index). Open addressing with linear probing over a power-of-two array, at
// most 3/4 full; a slot holds position+1, 0 when empty, and the key is read
// from the tuple at that position. Deletion shifts the rest of the probe run
// back, so no tombstones accumulate.
type posTable struct {
	col    int
	slots  []int32
	counts []int32 // column indexes only: per slot, how many tuples hold its value
	n      int
}

// key projects a tuple's values onto the table's key.
func (t *posTable) key(vals []Value) []Value {
	if t.col < 0 {
		return vals
	}
	return vals[t.col : t.col+1]
}

// find returns the position stored under key (-1 if none) and its slot, or
// the empty slot where key would go (-1 while the table has no slots).
func (t *posTable) find(tuples []Tuple, key []Value) (slot, pos int) {
	if len(t.slots) == 0 {
		return -1, -1
	}
	mask := len(t.slots) - 1
	for i := int(hashVals(key)) & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return i, -1
		}
		if sameVals(t.key(tuples[s-1].Vals), key) {
			return i, int(s - 1)
		}
	}
}

// reserve makes room for n entries, rehashing the table if it would pass
// 3/4 full; it reports whether it rehashed.
func (t *posTable) reserve(tuples []Tuple, n int) bool {
	if n*4 <= len(t.slots)*3 {
		return false
	}
	size := 8
	for n*4 > size*3 {
		size *= 2
	}
	slots, counts := t.slots, t.counts
	t.slots = make([]int32, size)
	if t.col >= 0 {
		t.counts = make([]int32, size)
	}
	for j, s := range slots {
		if s == 0 {
			continue
		}
		i := int(hashVals(t.key(tuples[s-1].Vals))) & (size - 1)
		for t.slots[i] != 0 {
			i = (i + 1) & (size - 1)
		}
		t.slots[i] = s
		if counts != nil {
			t.counts[i] = counts[j]
		}
	}
	return true
}

// insert stores pos, whose key a find just missed at slot, and returns the
// slot it went to (another one if the table had to grow first).
func (t *posTable) insert(tuples []Tuple, slot, pos int) int {
	if t.reserve(tuples, t.n+1) {
		slot, _ = t.find(tuples, t.key(tuples[pos].Vals))
	}
	t.slots[slot] = int32(pos + 1)
	t.n++
	return slot
}

// remove empties a slot, moving each later entry of its probe run back into
// the hole unless the entry's home slot lies cyclically after the hole.
// tuples must still hold every entry's values.
func (t *posTable) remove(tuples []Tuple, slot int) {
	mask := len(t.slots) - 1
	hole := slot
	for j := (slot + 1) & mask; t.slots[j] != 0; j = (j + 1) & mask {
		home := int(hashVals(t.key(tuples[t.slots[j]-1].Vals))) & mask
		// The entry at j may fill the hole unless home is in (hole, j].
		if (hole < j && (home <= hole || home > j)) || (hole > j && home <= hole && home > j) {
			t.slots[hole] = t.slots[j]
			if t.counts != nil {
				t.counts[hole] = t.counts[j]
			}
			hole = j
		}
	}
	t.slots[hole] = 0
	t.n--
}

// colIndex is one column's hash index: a table from each value to the last
// position holding it, with their count, and one circular chain through the
// relation's positions in which each value's last position links back to
// its first. A value's chain runs in the order its tuples entered the index
// — position order when the index was built, then insertion order — and a
// tuple that a delete moves keeps its place in it.
type colIndex struct {
	tab  posTable
	next []int32 // next[p]: the position after p in its value's chain
}

// add links pos, the relation's newest position, in at the end of its
// value's chain.
func (ix *colIndex) add(tuples []Tuple, pos int) {
	p := int32(pos)
	ix.next = append(ix.next, p)
	key := ix.tab.key(tuples[pos].Vals)
	slot, last := ix.tab.find(tuples, key)
	if last < 0 {
		slot = ix.tab.insert(tuples, slot, pos)
		ix.tab.counts[slot] = 1
		return
	}
	ix.next[pos], ix.next[last] = ix.next[last], p
	ix.tab.slots[slot] = p + 1
	ix.tab.counts[slot]++
}

// prev returns the position before p in its chain.
func (ix *colIndex) prev(p int32) int32 {
	q := p
	for ix.next[q] != p {
		q = ix.next[q]
	}
	return q
}

// drop unlinks pos from its value's chain; tuples must still hold it.
func (ix *colIndex) drop(tuples []Tuple, pos int) {
	slot, last := ix.tab.find(tuples, ix.tab.key(tuples[pos].Vals))
	if ix.tab.counts[slot] == 1 {
		ix.tab.remove(tuples, slot)
		return
	}
	p := int32(pos)
	q := ix.prev(p)
	ix.next[q] = ix.next[p]
	if last == pos {
		ix.tab.slots[slot] = q + 1
	}
	ix.tab.counts[slot]--
}

// move relabels the tuple at position from as position to, keeping its
// place in its chain; tuples must still hold it at from, and to must be in
// no chain.
func (ix *colIndex) move(tuples []Tuple, from, to int) {
	f, t := int32(from), int32(to)
	slot, last := ix.tab.find(tuples, ix.tab.key(tuples[from].Vals))
	if ix.next[f] == f {
		ix.next[t] = t
	} else {
		ix.next[ix.prev(f)] = t
		ix.next[t] = ix.next[f]
	}
	if last == from {
		ix.tab.slots[slot] = t + 1
	}
}

// Matches is the tuples of a relation holding one value in one column, as a
// count and a walk over their positions in index order:
//
//	for p := m.First(); p >= 0; p = m.Next(p) { ... r.Tuples[p] ... }
//
// A Matches is valid until the relation is next written.
type Matches struct {
	next        []int32
	first, last int32
	n           int32
}

// Len returns the number of matching tuples.
func (m Matches) Len() int { return int(m.n) }

// First returns the first matching position, or -1 if there is none.
func (m Matches) First() int {
	if m.n == 0 {
		return -1
	}
	return int(m.first)
}

// Next returns the matching position after p, or -1 after the last.
func (m Matches) Next(p int) int {
	if int32(p) == m.last {
		return -1
	}
	return int(m.next[p])
}
