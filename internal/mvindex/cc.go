package mvindex

import (
	"sync"

	"mvdb/internal/obdd"
)

// ccLayout is the cache-conscious representation of Section 4.3: the ¬W
// OBDD nodes stored in a flat struct-of-arrays vector, so the online
// intersection walks memory mostly sequentially instead of chasing node
// pointers. The vector is the concatenation of one segment per chain block —
// block k owns [off[k], off[k+1]) — each sorted by DFS preorder from the
// block's root (which therefore sits at off[k]).
//
// A segment is position-independent: child links are indices relative to the
// segment's start (or one of the exits below), and nothing in it names its
// block's number or its offset. Blocks a mutation batch leaves untouched are
// thus carried into the next layout by plain copies, with only the manager
// node ids and levels renamed (see Index.carry); the per-block augmentation
// (flattenBlock, weighBlock) is the one primitive that fills a segment.
type ccLayout struct {
	off []int32 // per block, plus the total: segment boundaries

	id     []obdd.NodeID // the manager node behind each cc node
	level  []int32
	lo, hi []int32   // segment-relative index, or ccFalse / ccExit
	prob   []float64 // tuple probability at the node's level

	// Block-local augmentation (see the package comment): probUnder counts
	// the next chain root as True, reach restarts at 1 on the block's root.
	probUnder []float64
	reach     []float64

	// byLevel lists, per segment, its segment-relative indices sorted by
	// level (preorder among equals): the sweep order of the augmentation and
	// the IntraBddIndex — a variable's nodes are one run of its block's list.
	byLevel []int32

	// idOf maps a manager node id to its cc index, dense over the node
	// store; -1 marks nodes not reachable from the index root (and the two
	// terminals, which flatten to ccFalse/ccTrue instead).
	idOf []int32
}

// Exits of a flattened segment. ccExit is the block's accepting exit: the
// root of the next chain block or, after the last block, the True terminal —
// one code for both, so a segment reads the same wherever its block sits in
// the chain (True edges only ever occur in the last block, see appendChain).
const (
	ccFalse int32 = -1
	ccExit  int32 = -2
)

// newCCLayout returns an empty layout over a manager of numNodes nodes, with
// room for the given number of blocks and cc nodes.
func newCCLayout(numNodes, blocks, nodes int) *ccLayout {
	cc := &ccLayout{
		off:       make([]int32, 1, blocks+1),
		id:        make([]obdd.NodeID, 0, nodes),
		level:     make([]int32, 0, nodes),
		lo:        make([]int32, 0, nodes),
		hi:        make([]int32, 0, nodes),
		prob:      make([]float64, 0, nodes),
		probUnder: make([]float64, 0, nodes),
		reach:     make([]float64, 0, nodes),
		byLevel:   make([]int32, 0, nodes),
		idOf:      make([]int32, numNodes),
	}
	for i := range cc.idOf {
		cc.idOf[i] = -1
	}
	return cc
}

// ccWalk is one CC-MVIntersect traversal: the same recursion as MVIntersect,
// but the ¬W side walks the flattened vector and memoization uses an
// open-addressed table keyed by (query node, cc index) packed into one int64
// — no pointer chasing, no map-bucket overhead. qm is the manager holding the
// query OBDD (the shared manager or a per-call scratch over the same order);
// stop is the first block past the query's span.
type ccWalk struct {
	ix          *Index
	cc          *ccLayout
	qm          *obdd.Manager
	stop        int
	memo, qprob *pairMemo
	g           *guard
}

// intersect is CC-MVIntersect over the query's block span.
func (cc *ccLayout) intersect(ix *Index, qm *obdd.Manager, fQ obdd.NodeID, s span, memo, qprob *pairMemo, g *guard) float64 {
	w := ccWalk{ix: ix, cc: cc, qm: qm, stop: s.last + 1, memo: memo, qprob: qprob, g: g}
	return w.rec(fQ, s.first, cc.off[s.first])
}

// rec mirrors Index.intersect in conditioned units (see that method) for the
// cc node w of block k: each w-side edge leaving a block divides by the
// block's probability.
func (t *ccWalk) rec(q obdd.NodeID, k int, w int32) float64 {
	if q == obdd.False {
		return 0
	}
	cc := t.cc
	if q == obdd.True {
		return cc.probUnder[w] / t.ix.blockProb[k]
	}
	// Non-terminal q >= 2 and w >= 0, so the packed key is never zero (the
	// empty-slot sentinel).
	key := int64(q)<<32 | int64(uint32(w))
	if r, ok := t.memo.get(key); ok {
		return r
	}
	t.g.visit()
	qm := t.qm
	lq, lw := qm.NodeLevel(q), cc.level[w]
	var r float64
	switch {
	case lq < lw:
		p := t.ix.probs[qm.VarAtLevel(int(lq))]
		r = (1-p)*t.rec(qm.Lo(q), k, w) + p*t.rec(qm.Hi(q), k, w)
	case lw < lq:
		p := cc.prob[w]
		r = (1-p)*t.wchild(q, k, cc.lo[w]) + p*t.wchild(q, k, cc.hi[w])
	default:
		p := cc.prob[w]
		r = (1-p)*t.wchild(qm.Lo(q), k, cc.lo[w]) + p*t.wchild(qm.Hi(q), k, cc.hi[w])
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
		return t.rec(q, k, t.cc.off[k]+c)
	}
	// c == ccExit; the span ends with the chain at the latest.
	b := t.ix.blockProb[k]
	if k+1 == t.stop {
		return t.ix.qProb(t.qm, q, t.qprob) / b
	}
	return t.rec(q, k+1, t.cc.off[k+1]) / b
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
