package obdd

// uniqueTable is the CUDD-style unique table: an open-addressing hash set
// over the manager's node store. Slots hold NodeIDs into Manager.nodes; the
// node fields themselves live only in the nodes slice, so the table is a flat
// []int32 that the probe loop walks with no pointer chasing and no
// per-insert allocation. Capacity is a power of two, probing is linear, and
// nodes are never deleted, so there are no tombstones; the table grows by
// doubling when the load factor reaches 3/4.
//
// Slot value 0 marks an empty slot: NodeID 0 is the False terminal, and
// terminals are never hash-consed (MkNode only inserts internal nodes, whose
// ids start at 2).
type uniqueTable struct {
	slots []NodeID
	n     int // occupied slots
}

const uniqueInitialSlots = 64

// Mixing constants (splitmix64 finalizer multipliers).
const (
	mixA = 0x9E3779B97F4A7C15
	mixB = 0xBF58476D1CE4E5B9
	mixC = 0x94D049BB133111EB
)

// hashNode mixes a node's three fields into a table-quality 64-bit hash.
func hashNode(level int32, lo, hi NodeID) uint64 {
	h := uint64(uint32(level))*mixA ^ uint64(uint32(lo))*mixB ^ uint64(uint32(hi))*mixC
	h ^= h >> 32
	h *= mixB
	h ^= h >> 29
	return h
}

func (t *uniqueTable) init() {
	t.slots = make([]NodeID, uniqueInitialSlots)
	t.n = 0
}

// lookup probes for (level, lo, hi) and returns its id, or 0 and the slot
// index where it must be inserted.
func (t *uniqueTable) lookup(nodes []node, level int32, lo, hi NodeID) (NodeID, uint64) {
	mask := uint64(len(t.slots) - 1)
	for i := hashNode(level, lo, hi) & mask; ; i = (i + 1) & mask {
		id := t.slots[i]
		if id == 0 {
			return 0, i
		}
		n := &nodes[id]
		if n.level == level && n.lo == lo && n.hi == hi {
			return id, i
		}
	}
}

// insert places id at the slot returned by a failed lookup and grows the
// table past the 3/4 load factor, rehashing every node (ids 2..len-1) into
// the doubled slot array.
func (t *uniqueTable) insert(nodes []node, id NodeID, slot uint64) {
	t.slots[slot] = id
	t.n++
	if t.n*4 >= len(t.slots)*3 {
		t.rehash(nodes, len(t.slots)*2)
	}
}

func (t *uniqueTable) rehash(nodes []node, size int) {
	t.slots = make([]NodeID, size)
	mask := uint64(size - 1)
	for nid := NodeID(2); int(nid) < len(nodes); nid++ {
		n := &nodes[nid]
		i := hashNode(n.level, n.lo, n.hi) & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = nid
	}
}

// levelTable is the unique table of one level of the sifter's working graph
// (sift.go): an open-addressing hash set keyed on a node's (lo, hi) pair —
// the level is implicit, one table per level. Unlike uniqueTable it supports
// deletion, because adjacent-level swaps relabel nodes and free the ones
// whose reference count drops to zero. Deletion uses backward shifting, so
// the table never accumulates tombstones and probe chains stay short across
// the millions of swap/undo steps of a sifting pass. Slot value 0 marks an
// empty slot (sifter ids 0 and 1 are the terminals, which are never
// hash-consed).
type levelTable struct {
	slots []int32
	n     int
}

// hashPair mixes a (lo, hi) child pair into a table-quality 64-bit hash.
func hashPair(lo, hi int32) uint64 {
	h := uint64(uint32(lo))*mixB ^ uint64(uint32(hi))*mixC
	h ^= h >> 32
	h *= mixA
	h ^= h >> 29
	return h
}

func newLevelTable(expected int) *levelTable {
	cap := 8
	for cap*3 < expected*4 { // keep the initial load factor under 3/4
		cap *= 2
	}
	return &levelTable{slots: make([]int32, cap)}
}

// lookup probes for the node with children (a, b) and returns its id, or 0
// and the slot index where it must be inserted.
func (t *levelTable) lookup(lo, hi []int32, a, b int32) (int32, uint64) {
	mask := uint64(len(t.slots) - 1)
	for i := hashPair(a, b) & mask; ; i = (i + 1) & mask {
		id := t.slots[i]
		if id == 0 {
			return 0, i
		}
		if lo[id] == a && hi[id] == b {
			return id, i
		}
	}
}

// insert places id at the slot returned by a failed lookup and doubles the
// table past the 3/4 load factor.
func (t *levelTable) insert(lo, hi []int32, id int32, slot uint64) {
	t.slots[slot] = id
	t.n++
	if t.n*4 < len(t.slots)*3 {
		return
	}
	old := t.slots
	t.slots = make([]int32, len(old)*2)
	mask := uint64(len(t.slots) - 1)
	for _, e := range old {
		if e == 0 {
			continue
		}
		i := hashPair(lo[e], hi[e]) & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = e
	}
}

// del removes the node with children (a, b), if present, and backward-shifts
// the probe chain behind it so that linear probing stays correct without
// tombstones.
func (t *levelTable) del(lo, hi []int32, a, b int32) {
	mask := uint64(len(t.slots) - 1)
	i := hashPair(a, b) & mask
	for {
		id := t.slots[i]
		if id == 0 {
			return
		}
		if lo[id] == a && hi[id] == b {
			break
		}
		i = (i + 1) & mask
	}
	t.slots[i] = 0
	t.n--
	// An entry at slot j whose home slot h lies cyclically outside (i, j]
	// was displaced across i by linear probing; move it back into the hole
	// and continue with the new hole at j.
	for j := (i + 1) & mask; t.slots[j] != 0; j = (j + 1) & mask {
		id := t.slots[j]
		h := hashPair(lo[id], hi[id]) & mask
		if (j-h)&mask >= (j-i)&mask {
			t.slots[i] = id
			t.slots[j] = 0
			i = j
		}
	}
}
