package obdd

import "sync"

// applyCache is the CUDD-style computed table for Apply: a fixed-size
// direct-mapped cache of (op, f, g) → result. Entries are overwritten on
// collision (lossy) — hash-consing makes every recomputation return the
// identical NodeID, so losing an entry costs time, never correctness or
// canonicity. Keys pack op|f|g into one uint64 (both operands are int32 ids
// after terminal short-circuiting, so 31+31+1 bits fit); key 0 marks an
// empty slot, unreachable because g ≥ 2 in every cached call.
//
// The cache starts tiny (scratch managers must stay cheap to create) and
// grows whenever an Apply miss finds the node store has outgrown it,
// re-inserting the old entries, up to the manager's maximum
// (DefaultApplyCacheSize unless SetApplyCacheMax changed it).
type applyCache struct {
	keys []uint64
	vals []NodeID
	max  int // maximum number of entries (power of two)

	// hits/misses count get outcomes. Plain counters: the cache is only
	// consulted during node-creating operations, which the manager's
	// concurrency contract already restricts to a single goroutine; reading
	// them follows the same contract as other manager reads (frozen manager,
	// or the owning goroutine).
	hits, misses uint64
}

const (
	applyCacheInitial = 128
	// DefaultApplyCacheSize is the default cap on apply/computed-table
	// entries (1M entries ≈ 12 MiB). See SetApplyCacheMax.
	DefaultApplyCacheSize = 1 << 20
)

func applyKeyPack(op opKind, f, g NodeID) uint64 {
	return uint64(op)<<62 | uint64(uint32(f))<<31 | uint64(uint32(g))
}

func (c *applyCache) init(max int) {
	c.max = ceilPow2(max)
	n := applyCacheInitial
	if n > c.max {
		n = c.max
	}
	c.keys = make([]uint64, n)
	c.vals = make([]NodeID, n)
}

func (c *applyCache) slot(key uint64) uint64 {
	return (key * mixA) >> 32 & uint64(len(c.keys)-1)
}

func (c *applyCache) get(key uint64) (NodeID, bool) {
	i := c.slot(key)
	if c.keys[i] == key {
		return c.vals[i], true
	}
	return 0, false
}

func (c *applyCache) put(key uint64, r NodeID) {
	i := c.slot(key)
	c.keys[i] = key
	c.vals[i] = r
}

// maybeGrow enlarges the cache (re-inserting surviving entries) to the first
// power of two covering the node store, as far as the cap allows. Called on
// Apply misses, so the cache tracks roughly one entry per live node while
// synthesis is running — until it hits max — and a manager that only ever
// concatenates or copies nodes never pays for it.
func (c *applyCache) maybeGrow(numNodes int) {
	size := len(c.keys)
	for numNodes > size && size < c.max {
		size *= 2
	}
	if size == len(c.keys) {
		return
	}
	old, oldVals := c.keys, c.vals
	c.keys = make([]uint64, size)
	c.vals = make([]NodeID, size)
	for i, k := range old {
		if k != 0 {
			c.put(k, oldVals[i])
		}
	}
}

// reset drops every entry in place — a memclr, no reallocation.
func (c *applyCache) reset() {
	clear(c.keys)
}

func ceilPow2(n int) int {
	if n < 1 {
		n = 1
	}
	c := 1
	for c < n {
		c <<= 1
	}
	return c
}

// --- dense per-call memos ---
//
// The traversals that used to allocate a map[NodeID]X per call (Not, Prob,
// OrDisjoint/AndDisjoint, Import, Cofactor, Reachable) instead
// borrow a dense, NodeID-indexed scratch memo from a sync.Pool. Reset is
// O(1): each entry is valid only when its stamp equals the memo's current
// epoch, so reuse just bumps the epoch. The arrays grow geometrically (see
// memoCap) to the largest manager they have served and are reused across
// calls and queries.
//
// For a huge manager a dense memo costs O(NumNodes) to allocate once; when a
// caller cannot promise the traversal touches a significant fraction of the
// store (dense=false) and no sufficiently large pooled array exists, the
// memo falls back to a small map — the small-query fallback that keeps a
// cold pool from allocating megabytes for a ten-node cone.

const sparseMemoCutoff = 1 << 20

// memoCap sizes a dense memo that must key n nodes when the current arrays
// hold have: at least double, so a caller that borrows a memo once per step
// of a growing manager (a chain of OrDisjoint/AndDisjoint calls, Not after a
// compile) reallocates O(log) times — O(nodes) bytes in total — instead of
// once per call.
func memoCap(have, n int) int {
	if 2*have > n {
		return 2 * have
	}
	return n
}

// nodeMemo is a NodeID → NodeID memo.
type nodeMemo struct {
	val    []NodeID
	stamp  []uint32
	epoch  uint32
	sparse map[NodeID]NodeID
}

func (mm *nodeMemo) reset(n int, dense bool) {
	if !dense && n > sparseMemoCutoff && cap(mm.val) < n {
		mm.sparse = make(map[NodeID]NodeID, 64)
		return
	}
	mm.sparse = nil
	if cap(mm.val) < n {
		c := memoCap(cap(mm.val), n)
		mm.val = make([]NodeID, c)
		mm.stamp = make([]uint32, c)
		mm.epoch = 1
		return
	}
	mm.val = mm.val[:cap(mm.val)]
	mm.stamp = mm.stamp[:cap(mm.val)]
	mm.epoch++
	if mm.epoch == 0 { // stamp wrap: one real clear every 2^32 resets
		clear(mm.stamp)
		mm.epoch = 1
	}
}

func (mm *nodeMemo) get(x NodeID) (NodeID, bool) {
	if mm.sparse != nil {
		r, ok := mm.sparse[x]
		return r, ok
	}
	if mm.stamp[x] == mm.epoch {
		return mm.val[x], true
	}
	return 0, false
}

func (mm *nodeMemo) put(x, r NodeID) {
	if mm.sparse != nil {
		mm.sparse[x] = r
		return
	}
	mm.stamp[x] = mm.epoch
	mm.val[x] = r
}

// floatMemo is a NodeID → float64 memo with the same contract.
type floatMemo struct {
	val    []float64
	stamp  []uint32
	epoch  uint32
	sparse map[NodeID]float64
}

func (mm *floatMemo) reset(n int, dense bool) {
	if !dense && n > sparseMemoCutoff && cap(mm.val) < n {
		mm.sparse = make(map[NodeID]float64, 64)
		return
	}
	mm.sparse = nil
	if cap(mm.val) < n {
		c := memoCap(cap(mm.val), n)
		mm.val = make([]float64, c)
		mm.stamp = make([]uint32, c)
		mm.epoch = 1
		return
	}
	mm.val = mm.val[:cap(mm.val)]
	mm.stamp = mm.stamp[:cap(mm.val)]
	mm.epoch++
	if mm.epoch == 0 {
		clear(mm.stamp)
		mm.epoch = 1
	}
}

func (mm *floatMemo) get(x NodeID) (float64, bool) {
	if mm.sparse != nil {
		r, ok := mm.sparse[x]
		return r, ok
	}
	if mm.stamp[x] == mm.epoch {
		return mm.val[x], true
	}
	return 0, false
}

func (mm *floatMemo) put(x NodeID, r float64) {
	if mm.sparse != nil {
		mm.sparse[x] = r
		return
	}
	mm.stamp[x] = mm.epoch
	mm.val[x] = r
}

var nodeMemoPool = sync.Pool{New: func() any { return new(nodeMemo) }}
var floatMemoPool = sync.Pool{New: func() any { return new(floatMemo) }}

// getNodeMemo borrows a reset memo able to key nodes [0, n); dense promises
// the traversal is proportional to n (full-cone walks), permitting the
// up-front dense allocation on huge managers.
func getNodeMemo(n int, dense bool) *nodeMemo {
	mm := nodeMemoPool.Get().(*nodeMemo)
	mm.reset(n, dense)
	return mm
}

func putNodeMemo(mm *nodeMemo) { nodeMemoPool.Put(mm) }

func getFloatMemo(n int, dense bool) *floatMemo {
	mm := floatMemoPool.Get().(*floatMemo)
	mm.reset(n, dense)
	return mm
}

func putFloatMemo(mm *floatMemo) { floatMemoPool.Put(mm) }
