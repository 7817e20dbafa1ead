package mvindex

import (
	"sync"

	"mvdb/internal/engine"
	"mvdb/internal/obdd"
)

// The cache-conscious representation of Section 4.3 is a directory of
// segments, one per chain block, each holding the block's ¬W nodes as a flat
// struct-of-arrays vector in DFS preorder from the block's root (which sits
// at index 0), so the online intersection walks memory mostly sequentially
// instead of chasing node pointers.
//
// A segment is position- and order-independent: child links are indices
// relative to the segment (or one of the exits below), nodes name their
// variables rather than their levels — a node's level is the order's
// Level(var), looked up on the fly — and nothing in it names its block's
// number. A segment is immutable once published, so a mutation batch builds
// segments only for the blocks it dirtied and a new directory that points at
// every clean segment of the previous one; re-weighing a block replaces its
// segment, sharing the structural half.

// shape is the structural half of a segment.
type shape struct {
	sep    engine.Value // the separator value whose block this chain block is part of (under a block record)
	vars   []int32      // the variable each node tests
	lo, hi []int32      // segment-relative index, or ccFalse / ccExit

	// byLevel lists the node indices sorted by level (preorder among
	// equals): the sweep order of the augmentation and the IntraBddIndex — a
	// variable's nodes are one run of it.
	byLevel []int32
}

// segment is one chain block: its shape and the weight-dependent half of
// the augmentation (package comment): probUnder counts the next chain root
// as True, reach restarts at 1 on the block's root, b is b_k.
type segment struct {
	shape
	prob      []float64 // tuple probability of each node's variable
	probUnder []float64
	reach     []float64
	b         float64
}

// Exits of a segment. ccExit is the block's accepting exit: the root of the
// next chain block or, after the last block, the True terminal — one code
// for both, so a segment reads the same wherever its block sits in the chain
// (True edges only ever occur in the last block, see appendChain).
const (
	ccFalse int32 = -1
	ccExit  int32 = -2
)

// ccWalk is one CC-MVIntersect traversal: the same recursion as MVIntersect,
// but the ¬W side walks the segments and memoization uses an open-addressed
// table keyed by (query node, cc index) packed into one int64 — no pointer
// chasing, no map-bucket overhead. qm is the manager holding the query OBDD
// (a scratch manager over the index's order); levels is the order's
// variable → level table; stop is the first block past the query's span.
type ccWalk struct {
	ix          *Index
	ch          *chain
	qm          *obdd.Manager
	levels      []int32
	stop        int
	memo, qprob *pairMemo
	g           *guard
}

// intersectCC is CC-MVIntersect over the query's block span.
func (ix *Index) intersectCC(qm *obdd.Manager, fQ obdd.NodeID, s span, memo, qprob *pairMemo, g *guard) float64 {
	w := ccWalk{ix: ix, ch: ix.ch, qm: qm, levels: ix.ch.ord.VarLevels(), stop: s.last + 1, memo: memo, qprob: qprob, g: g}
	return w.rec(fQ, s.first, 0)
}

// rec mirrors Index.intersect in conditioned units (see that method) for
// node w of block k: each w-side edge leaving a block divides by the block's
// probability.
func (t *ccWalk) rec(q obdd.NodeID, k int, w int32) float64 {
	if q == obdd.False {
		return 0
	}
	seg := t.ch.segs[k]
	if q == obdd.True {
		return seg.probUnder[w] / seg.b
	}
	// Non-terminal q >= 2 and a cc index >= 0, so the packed key is never
	// zero (the empty-slot sentinel).
	key := int64(q)<<32 | int64(uint32(t.ch.off[k]+w))
	if r, ok := t.memo.get(key); ok {
		return r
	}
	t.g.visit()
	qm := t.qm
	lq, lw := qm.NodeLevel(q), t.levels[seg.vars[w]]
	var r float64
	switch {
	case lq < lw:
		p := t.ix.probs[qm.VarAtLevel(int(lq))]
		r = (1-p)*t.rec(qm.Lo(q), k, w) + p*t.rec(qm.Hi(q), k, w)
	case lw < lq:
		p := seg.prob[w]
		r = (1-p)*t.wchild(q, k, seg.lo[w]) + p*t.wchild(q, k, seg.hi[w])
	default:
		p := seg.prob[w]
		r = (1-p)*t.wchild(qm.Lo(q), k, seg.lo[w]) + p*t.wchild(qm.Hi(q), k, seg.hi[w])
	}
	t.memo.put(key, r)
	return r
}

// wchild evaluates the w-side child edge c (segment-relative, or an exit) of
// a node in block k, dividing by the block's probability when the edge leaves
// the block accepting; past the span's last block the rest of the chain
// cancels and only the bare query probability remains.
func (t *ccWalk) wchild(q obdd.NodeID, k int, c int32) float64 {
	if q == obdd.False || c == ccFalse {
		return 0
	}
	if c >= 0 {
		return t.rec(q, k, c)
	}
	// c == ccExit; the span ends with the chain at the latest.
	b := t.ch.segs[k].b
	if k+1 == t.stop {
		return t.ix.qProb(t.qm, q, t.qprob) / b
	}
	return t.rec(q, k+1, 0) / b
}

// pairMemo is a linear-probing hash table from packed (q,w) keys to
// probabilities. Key 0 marks an empty slot.
type pairMemo struct {
	keys []int64
	vals []float64
	mask uint64
	n    int
}

func newPairMemo(capacity int) *pairMemo {
	if capacity < 16 {
		capacity = 16
	}
	// round up to a power of two
	c := 16
	for c < capacity {
		c <<= 1
	}
	return &pairMemo{keys: make([]int64, c), vals: make([]float64, c), mask: uint64(c - 1)}
}

func (m *pairMemo) slot(key int64) uint64 {
	return (uint64(key) * 0x9E3779B97F4A7C15) >> 32 & m.mask
}

func (m *pairMemo) get(key int64) (float64, bool) {
	for i := m.slot(key); ; i = (i + 1) & m.mask {
		switch m.keys[i] {
		case key:
			return m.vals[i], true
		case 0:
			return 0, false
		}
	}
}

func (m *pairMemo) put(key int64, v float64) {
	if m.n*4 >= len(m.keys)*3 { // 75% load factor
		m.grow()
	}
	for i := m.slot(key); ; i = (i + 1) & m.mask {
		switch m.keys[i] {
		case key:
			m.vals[i] = v
			return
		case 0:
			m.keys[i] = key
			m.vals[i] = v
			m.n++
			return
		}
	}
}

func (m *pairMemo) grow() {
	old := *m
	m.keys = make([]int64, len(old.keys)*2)
	m.vals = make([]float64, len(old.vals)*2)
	m.mask = uint64(len(m.keys) - 1)
	m.n = 0
	for i, k := range old.keys {
		if k != 0 {
			m.put(k, old.vals[i])
		}
	}
}

// reset empties the memo for reuse. A memo that ballooned on one huge query
// is shrunk back rather than pinned in the pool forever.
func (m *pairMemo) reset() {
	if len(m.keys) > 1<<16 {
		m.keys = make([]int64, 1<<10)
		m.vals = make([]float64, 1<<10)
		m.mask = uint64(len(m.keys) - 1)
	} else {
		clear(m.keys)
	}
	m.n = 0
}

// Per-query scratch memos are pooled: a steady stream of MVIntersect calls
// reuses the same two tables instead of allocating maps per query.
var pairMemoPool = sync.Pool{New: func() any { return newPairMemo(1 << 10) }}

func getPairMemo() *pairMemo {
	m := pairMemoPool.Get().(*pairMemo)
	m.reset()
	return m
}

func putPairMemo(m *pairMemo) { pairMemoPool.Put(m) }
