package mvindex

import (
	"mvdb/internal/lineage"
	"mvdb/internal/obdd"
)

// MVIntersect returns Fig. 9's baseline, the pointer MVIntersect that
// CC-MVIntersect is timed and tested against; no read of the index runs it.
// It materialises ¬W as a pointer OBDD once and returns IntersectLineage
// computed by the pointer walk over it, without the cache. The function is
// safe for concurrent callers until the index's next mutating operation.
func (ix *Index) MVIntersect() func(linQ lineage.DNF, opts IntersectOptions) (float64, error) {
	n := ix.ch.materialize()
	ptr := func(ix *Index, qm *obdd.Manager, fQ obdd.NodeID, s span, memo, qprob *pairMemo, g *guard) float64 {
		t := ptrWalk{ix: ix, n: n, qm: qm, stop: obdd.False, memo: memo, qprob: qprob, g: g}
		if s.last+1 < len(n.roots) {
			t.stop = n.roots[s.last+1]
		}
		return t.rec(fQ, n.roots[s.first])
	}
	return func(linQ lineage.DNF, opts IntersectOptions) (float64, error) {
		if linQ.IsFalse() {
			return 0, nil
		}
		qm, fQ, err := ix.queryOBDD(linQ, opts)
		if err != nil {
			return 0, err
		}
		p, _, _, err := ix.walk(qm, fQ, opts, ptr)
		return p, err
	}
}

// ptrWalk is one MVIntersect traversal over the pointer OBDD of ¬W; stop is
// the root of the first block past the query's span (False: none).
type ptrWalk struct {
	ix          *Index
	n           *negW
	qm          *obdd.Manager
	stop        obdd.NodeID
	memo, qprob *pairMemo
	g           *guard
}

// block returns the chain block of a node of ¬W and its index there.
func (t *ptrWalk) block(w obdd.NodeID) (int, int32) {
	return t.ix.ch.blockForLevel(t.n.m.NodeLevel(w)), t.n.at[w]
}

// rec is MVIntersect in conditioned units: it returns
// P0(ΦQ ∧ C_{block(w)..last} | paths reaching w) / Π_{j=block(w)..last} b_j,
// so the final call at the entry chain root directly yields Theorem 1's
// ratio — every block division happens as its boundary is crossed, and no
// unrepresentable global product is ever formed.
func (t *ptrWalk) rec(q, w obdd.NodeID) float64 {
	if q == obdd.False || w == obdd.False {
		return 0
	}
	if w == t.stop || w == obdd.True {
		// Constraints beyond the span factor out of the ratio.
		return t.ix.qProb(t.qm, q, t.qprob)
	}
	wBlock, wi := t.block(w)
	if q == obdd.True {
		// Remaining constraint mass of this block (conditioned), the
		// suffix blocks cancel.
		seg := t.ix.ch.segs[wBlock]
		return seg.probUnder[wi] / seg.b
	}
	// Both q and w are internal (≥ 2), so the packed key is never zero.
	key := int64(q)<<32 | int64(uint32(w))
	if r, ok := t.memo.get(key); ok {
		return r
	}
	t.g.visit()
	qm, m, probs := t.qm, t.n.m, t.ix.probs
	lq, lw := qm.NodeLevel(q), m.NodeLevel(w)
	var r float64
	switch {
	case lq < lw:
		p := probs[qm.VarAtLevel(int(lq))]
		r = (1-p)*t.rec(qm.Lo(q), w) + p*t.rec(qm.Hi(q), w)
	case lw < lq:
		p := probs[m.VarAtLevel(int(lw))]
		r = (1-p)*t.wchild(q, m.Lo(w), wBlock) + p*t.wchild(q, m.Hi(w), wBlock)
	default:
		p := probs[qm.VarAtLevel(int(lq))]
		r = (1-p)*t.wchild(qm.Lo(q), m.Lo(w), wBlock) + p*t.wchild(qm.Hi(q), m.Hi(w), wBlock)
	}
	t.memo.put(key, r)
	return r
}

// wchild evaluates a w-side child edge in conditioned units: leaving block
// wBlock (into the next chain root or the True terminal) divides by that
// block's probability; reaching the span's stop root contributes the bare
// query probability.
func (t *ptrWalk) wchild(q, c obdd.NodeID, wBlock int) float64 {
	if q == obdd.False || c == obdd.False {
		return 0
	}
	b := t.ix.ch.segs[wBlock].b
	if c == t.stop || c == obdd.True {
		return t.ix.qProb(t.qm, q, t.qprob) / b
	}
	val := t.rec(q, c)
	if k, _ := t.block(c); k > wBlock {
		val /= b
	}
	return val
}
