package mvindex

import (
	"fmt"
	"math"
	"sort"

	"mvdb/internal/obdd"
)

// The augmentation is organized around one primitive, applied to one chain
// block at a time: flattenBlock lays the block's nodes out as a segment of
// the cc layout (the structure: DFS order, child links, level-sorted list),
// and weighBlock fills in everything that depends on tuple weights (prob,
// probUnder, reach, the block probability b_k). Build, Sift, Compact and
// snapshot restore run both halves over every block (augmentAll); Reweight
// runs weighBlock over every block; a mutation batch runs them over the
// blocks it dirtied and carries every other segment across unchanged.

// appendChain appends the convergence points of the sub-OBDD rooted at from
// to roots/levels, with a level-ordered sweep: whenever the frontier of
// discovered-but-unprocessed nodes has exactly one element, every accepting
// path passes through it. These are the block boundaries of the concatenated
// per-separator-value OBDDs (and any finer ones inside them). The sweep ends
// at stop, itself a convergence point that is not appended — the root of the
// next separator block when only one block is re-examined; pass obdd.False to
// sweep down to the terminals.
func appendChain(m *obdd.Manager, from, stop obdd.NodeID, roots []obdd.NodeID, levels []int32) ([]obdd.NodeID, []int32) {
	if m.IsTerminal(from) {
		return roots, levels
	}
	// The frontier is as wide as the OBDD at the sweep line — narrow for the
	// chains this index is built for — so it is scanned linearly both to pop
	// the shallowest node and to test membership.
	pending := []obdd.NodeID{from}
	// A singleton frontier proves convergence only while no processed node
	// had an edge to the True terminal: such an edge is an accepting path
	// that bypasses everything below, breaking the D ∧ C decomposition that
	// the block factorization relies on.
	seenTrueEdge := false
	for len(pending) > 0 {
		best := 0
		for i := 1; i < len(pending); i++ {
			if m.NodeLevel(pending[i]) < m.NodeLevel(pending[best]) {
				best = i
			}
		}
		u := pending[best]
		if u == stop {
			break
		}
		if len(pending) == 1 && !seenTrueEdge {
			roots = append(roots, u)
			levels = append(levels, m.NodeLevel(u))
		}
		pending[best] = pending[len(pending)-1]
		pending = pending[:len(pending)-1]
	children:
		for _, c := range [2]obdd.NodeID{m.Lo(u), m.Hi(u)} {
			if c == obdd.True {
				seenTrueEdge = true
			}
			if m.IsTerminal(c) {
				continue
			}
			for _, p := range pending {
				if p == c {
					continue children
				}
			}
			pending = append(pending, c)
		}
	}
	return roots, levels
}

// augmentAll computes every derived structure from (m, root, probs): the
// chain, and the per-block augmentation of every block. It returns the
// number of cc nodes.
func (ix *Index) augmentAll() int {
	ix.chainRoots, ix.chainLevels = appendChain(ix.m, ix.root, obdd.False, nil, nil)
	ix.blockProb = make([]float64, len(ix.chainRoots))
	size := 0
	if ix.cc != nil {
		size = len(ix.cc.id) // a re-augmentation: about as many nodes as before
	}
	ix.cc = newCCLayout(ix.m.NumNodes(), len(ix.chainRoots), size)
	for k := range ix.chainRoots {
		ix.flattenBlock(k)
		ix.weighBlock(k)
	}
	ix.sumBlocks()
	return len(ix.cc.id)
}

// flattenBlock appends block k's segment to the cc layout — the structural
// half of the per-block augmentation. The chain directory must be complete
// (the DFS stops at the next block's root) and every earlier block already
// flattened.
func (ix *Index) flattenBlock(k int) {
	cc, m := ix.cc, ix.m
	base := int32(len(cc.id))
	next := ix.nextRoot(k)
	var dfs func(u obdd.NodeID) int32
	dfs = func(u obdd.NodeID) int32 {
		switch u {
		case obdd.False:
			return ccFalse
		case obdd.True, next:
			return ccExit
		}
		if w := cc.idOf[u]; w >= 0 {
			return w - base
		}
		w := int32(len(cc.id))
		cc.idOf[u] = w
		cc.id = append(cc.id, u)
		cc.level = append(cc.level, m.NodeLevel(u))
		cc.lo = append(cc.lo, 0)
		cc.hi = append(cc.hi, 0)
		lo := dfs(m.Lo(u))
		hi := dfs(m.Hi(u))
		cc.lo[w], cc.hi[w] = lo, hi
		return w - base
	}
	dfs(ix.chainRoots[k])
	n := int32(len(cc.id)) - base
	for i := int32(0); i < n; i++ {
		cc.byLevel = append(cc.byLevel, i)
	}
	// Level order: parents before children (edges strictly increase levels).
	order, level := cc.byLevel[base:], cc.level[base:]
	sort.Slice(order, func(a, b int) bool {
		if la, lb := level[order[a]], level[order[b]]; la != lb {
			return la < lb
		}
		return order[a] < order[b]
	})
	cc.prob = append(cc.prob, make([]float64, n)...)
	cc.probUnder = append(cc.probUnder, make([]float64, n)...)
	cc.reach = append(cc.reach, make([]float64, n)...)
	cc.off = append(cc.off, base+n)
}

// weighBlock recomputes the weight-dependent half of block k's augmentation
// in place from ix.probs: the per-node tuple probabilities, the block-local
// probUnder and reachability, and the block probability. It returns the
// number of nodes in the block.
func (ix *Index) weighBlock(k int) int {
	cc := ix.cc
	a, b := cc.off[k], cc.off[k+1]
	level, lo, hi := cc.level[a:b], cc.lo[a:b], cc.hi[a:b]
	prob, under, reach, order := cc.prob[a:b], cc.probUnder[a:b], cc.reach[a:b], cc.byLevel[a:b]
	for i, l := range level {
		prob[i] = ix.probs[ix.m.VarAtLevel(int(l))]
	}
	// Local probUnder, bottom-up: leaving the block through the next chain
	// root counts as 1 (the suffix blocks factor out).
	child := func(c int32) float64 {
		switch c {
		case ccFalse:
			return 0
		case ccExit:
			return 1
		}
		return under[c]
	}
	for j := len(order) - 1; j >= 0; j-- {
		i := order[j]
		p := prob[i]
		under[i] = (1-p)*child(lo[i]) + p*child(hi[i])
	}
	ix.blockProb[k] = under[0]
	// Local reachability, top-down: restarts at 1 on the block's root; edges
	// that leave the block are dropped.
	clear(reach)
	reach[0] = 1
	for _, i := range order {
		r, p := reach[i], prob[i]
		if c := lo[i]; c >= 0 {
			reach[c] += r * (1 - p)
		}
		if c := hi[i]; c >= 0 {
			reach[c] += r * p
		}
	}
	return int(b - a)
}

// sumBlocks folds the block probabilities into P0(¬W) = Π_k b_k, in log-sign
// form.
func (ix *Index) sumBlocks() {
	ix.pNotWLog, ix.pNotWSign = 0, 1
	if ix.root == obdd.False {
		ix.pNotWLog, ix.pNotWSign = math.Inf(-1), 0
		return
	}
	for _, b := range ix.blockProb {
		if b == 0 {
			ix.pNotWLog, ix.pNotWSign = math.Inf(-1), 0
			return
		}
		ix.pNotWLog += math.Log(math.Abs(b))
		if b < 0 {
			ix.pNotWSign = -ix.pNotWSign
		}
	}
}

// levelRun returns the chain block whose levels include variable v's and,
// as a run of the block's level-sorted list, the nodes labeled with v —
// segment-relative, so node i of the run is cc node cc.off[k]+i. The run is
// empty when v does not occur in the index.
func (ix *Index) levelRun(v int) (k int, run []int32) {
	l := int32(ix.m.Level(v))
	if l < 0 || len(ix.chainRoots) == 0 {
		return 0, nil
	}
	cc := ix.cc
	k = ix.blockForLevel(l)
	level := cc.level[cc.off[k]:cc.off[k+1]]
	order := cc.byLevel[cc.off[k]:cc.off[k+1]]
	lo := sort.Search(len(order), func(j int) bool { return level[order[j]] >= l })
	hi := lo
	for hi < len(order) && level[order[hi]] == l {
		hi++
	}
	return k, order[lo:hi]
}

// carry brings the augmentation across an incremental recompile (a
// non-full obdd.Delta over the index's previous manager and block record):
// every chain block the splice copied keeps its segment — one copy per array
// for each run of consecutive clean blocks, with manager node ids and levels
// renamed through the delta's maps — and only the recompiled separator blocks
// are re-examined for convergence points and re-augmented (counted in st). It
// returns which blocks, by new block number, are fresh. Every recorded
// separator-block root is a chain root of the index (the record is cut from
// the same chain); carry fails, with the augmentation untouched, if that
// invariant is broken.
func (ix *Index) carry(d *obdd.Delta, oldRec *obdd.BlockRecord, st *MaintStats) (fresh []bool, err error) {
	oldM, oldRoots, oldLevels, oldProb, oldCC := ix.m, ix.chainRoots, ix.chainLevels, ix.blockProb, ix.cc
	// oldBlock finds the old chain block a recorded separator block starts.
	oldBlock := func(root obdd.NodeID) int {
		k := ix.blockForLevel(oldM.NodeLevel(root))
		if oldRoots[k] != root {
			return -1
		}
		return k
	}

	// The new directory: carried runs keep their old blocks' boundaries, the
	// recompiled separator blocks are swept for theirs.
	type run struct{ at, k0, k1 int } // new blocks [at, at+k1-k0) are old blocks [k0, k1)
	var runs []run
	roots := make([]obdd.NodeID, 0, len(oldRoots)+8)
	levels := make([]int32, 0, len(oldRoots)+8)
	rec := d.Rec
	for i := 0; i < len(rec.Roots); {
		from := d.From[i]
		if from < 0 {
			stop := obdd.False
			if i+1 < len(rec.Roots) {
				stop = rec.Roots[i+1]
			}
			roots, levels = appendChain(d.M, rec.Roots[i], stop, roots, levels)
			i++
			continue
		}
		// A run of blocks copied from consecutive old separator blocks covers
		// one contiguous range of old chain blocks.
		last := from
		for i++; i < len(rec.Roots) && d.From[i] == last+1; i++ {
			last++
		}
		k0, k1 := oldBlock(oldRec.Roots[from]), len(oldRoots)
		if int(last)+1 < len(oldRec.Roots) {
			k1 = oldBlock(oldRec.Roots[last+1])
		}
		if k0 < 0 || k1 <= k0 {
			return nil, fmt.Errorf("mvindex: recorded separator blocks %d..%d do not start chain blocks (chain blocks %d, %d)", from, last, k0, k1)
		}
		runs = append(runs, run{at: len(roots), k0: k0, k1: k1})
		for k := k0; k < k1; k++ {
			roots = append(roots, d.NodeMap[oldRoots[k]])
			levels = append(levels, d.LevelMap[oldLevels[k]])
		}
	}

	ix.m, ix.root = d.M, d.Root
	ix.chainRoots, ix.chainLevels = roots, levels
	ix.blockProb = make([]float64, len(roots))
	cc := newCCLayout(d.M.NumNodes(), len(roots), len(oldCC.id)+64)
	ix.cc = cc
	fresh = make([]bool, len(roots))
	for k := 0; k < len(roots); {
		if len(runs) == 0 || runs[0].at != k {
			ix.flattenBlock(k)
			st.AugmentedBlocks++
			st.AugmentedNodes += ix.weighBlock(k)
			fresh[k] = true
			k++
			continue
		}
		r := runs[0]
		runs = runs[1:]
		a, b := oldCC.off[r.k0], oldCC.off[r.k1]
		shift := int32(len(cc.id)) - a
		for _, u := range oldCC.id[a:b] {
			nu := d.NodeMap[u]
			cc.idOf[nu] = int32(len(cc.id))
			cc.id = append(cc.id, nu)
		}
		for _, l := range oldCC.level[a:b] {
			cc.level = append(cc.level, d.LevelMap[l])
		}
		cc.lo = append(cc.lo, oldCC.lo[a:b]...)
		cc.hi = append(cc.hi, oldCC.hi[a:b]...)
		cc.prob = append(cc.prob, oldCC.prob[a:b]...)
		cc.probUnder = append(cc.probUnder, oldCC.probUnder[a:b]...)
		cc.reach = append(cc.reach, oldCC.reach[a:b]...)
		cc.byLevel = append(cc.byLevel, oldCC.byLevel[a:b]...)
		for _, end := range oldCC.off[r.k0+1 : r.k1+1] {
			cc.off = append(cc.off, end+shift)
		}
		copy(ix.blockProb[k:], oldProb[r.k0:r.k1])
		k += r.k1 - r.k0
	}
	return fresh, nil
}
