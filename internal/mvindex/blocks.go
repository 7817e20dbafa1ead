package mvindex

import (
	"math"
	"math/bits"
	"slices"
	"sort"

	"mvdb/internal/engine"
	"mvdb/internal/obdd"
)

// The augmentation is organized around one primitive, applied to one chain
// block at a time: flatten lays the block's nodes out as a segment shape (DFS
// order, child links, level-sorted list), and weigh turns a shape into a
// segment by computing everything that depends on tuple weights (prob,
// probUnder, reach, the block probability b_k). Build, Sift, snapshot
// restore and a full recompile run both halves over every block of an OBDD
// of ¬W (newChain); Reweight runs weigh over every block; a mutation batch
// runs them over the blocks it dirtied and points at every other segment.

// chain is one published version of the index's ¬W: the variable order, the
// directory of segments in chain (level) order — the InterBddIndex: a
// variable's block is the last one whose root level does not exceed the
// variable's level — and P0(¬W). A chain is never modified once published;
// a batch publishes a successor that shares every clean segment.
type chain struct {
	// ord is a node-free manager over the order. Query OBDDs are built in
	// its scratch managers, which share its order tables.
	ord  *obdd.Manager
	segs []*segment
	// off[k] is the number of nodes before block k: the cc index of the
	// block's first node, which the traversal memos key on; off[len(segs)]
	// is the index size.
	off   []int32
	pNotW logProd
	vals  int // separator values with a block, under a block record
}

// level returns the level of a variable of the chain.
func (c *chain) level(v int32) int32 { return int32(c.ord.Level(int(v))) }

// window returns block k's levels: its root's and its deepest node's.
func (c *chain) window(k int) (first, last int32) {
	s := c.segs[k]
	return c.level(s.vars[0]), c.level(s.vars[s.byLevel[len(s.byLevel)-1]])
}

// blockForLevel returns the index of the last block whose root level is <=
// the given level (the block containing that level), 0 when none is.
func (c *chain) blockForLevel(level int32) int {
	k := sort.Search(len(c.segs), func(k int) bool { return c.level(c.segs[k].vars[0]) > level })
	return max(k-1, 0)
}

// levelRun returns the block whose levels include variable v's and, as a run
// of the block's level-sorted list, the nodes labeled with v. The run is
// empty when v does not occur in the index.
func (c *chain) levelRun(v int) (k int, run []int32) {
	l := int32(c.ord.Level(v))
	if l < 0 || len(c.segs) == 0 {
		return 0, nil
	}
	k = c.blockForLevel(l)
	s := c.segs[k]
	lo := sort.Search(len(s.byLevel), func(j int) bool { return c.level(s.vars[s.byLevel[j]]) >= l })
	hi := lo
	for hi < len(s.byLevel) && s.vars[s.byLevel[hi]] == int32(v) {
		hi++
	}
	return k, s.byLevel[lo:hi]
}

// appendChain appends the convergence points of the sub-OBDD rooted at from
// to roots, with a level-ordered sweep: whenever the frontier of
// discovered-but-unprocessed nodes has exactly one element, every accepting
// path passes through it. These are the block boundaries of the concatenated
// per-separator-value OBDDs (and any finer ones inside them). The sweep runs
// down to the terminals; an edge to the True terminal ends the search for
// boundaries, and so does — in the chain — an edge to the next separator
// block's root, which therefore yields the same boundaries whether a block
// is swept inside the chain or standalone.
func appendChain(m *obdd.Manager, from obdd.NodeID, roots []obdd.NodeID) []obdd.NodeID {
	if m.IsTerminal(from) {
		return roots
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
		if len(pending) == 1 && !seenTrueEdge {
			roots = append(roots, u)
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
	return roots
}

// flattener lays out the blocks of one OBDD in m as segment shapes, carved
// from one backing store per field — sized by the caller to the nodes it
// will lay out — so a chain's shapes cost a handful of allocations, not a
// few per block (newChain does the same for the segments and weights). at
// maps a node of m to its index in its block + 1 (0: not flattened); levels
// is scratch.
type flattener struct {
	m                             *obdd.Manager
	at                            []int32
	vars, lo, hi, byLevel, levels []int32
}

func newFlattener(m *obdd.Manager, nodes int) *flattener {
	f := &flattener{m: m, at: make([]int32, m.NumNodes())}
	for _, a := range []*[]int32{&f.vars, &f.lo, &f.hi, &f.byLevel} {
		*a = make([]int32, 0, nodes)
	}
	return f
}

// flatten lays out the block from root down to, and excluding, next (the
// following block's root, or True after the last block) — the structural
// half of the per-block augmentation.
func (f *flattener) flatten(root, next obdd.NodeID, sep engine.Value) shape {
	m, base := f.m, int32(len(f.vars))
	f.levels = f.levels[:0]
	var dfs func(u obdd.NodeID) int32
	dfs = func(u obdd.NodeID) int32 {
		switch u {
		case obdd.False:
			return ccFalse
		case obdd.True, next:
			return ccExit
		}
		if w := f.at[u]; w > 0 {
			return w - 1 // blocks share no node
		}
		w := int32(len(f.vars)) - base
		f.at[u] = w + 1
		l := m.NodeLevel(u)
		f.levels = append(f.levels, l)
		f.vars = append(f.vars, int32(m.VarAtLevel(int(l))))
		f.lo = append(f.lo, 0)
		f.hi = append(f.hi, 0)
		lo := dfs(m.Lo(u))
		hi := dfs(m.Hi(u))
		f.lo[base+w], f.hi[base+w] = lo, hi
		return w
	}
	dfs(root)
	end := int32(len(f.vars))
	for i := range end - base {
		f.byLevel = append(f.byLevel, i)
	}
	sh := shape{sep: sep, vars: f.vars[base:end:end], lo: f.lo[base:end:end], hi: f.hi[base:end:end], byLevel: f.byLevel[base:end:end]}
	// Level order: parents before children (edges strictly increase levels).
	levels := f.levels
	slices.SortFunc(sh.byLevel, func(a, b int32) int {
		if la, lb := levels[a], levels[b]; la != lb {
			return int(la - lb)
		}
		return int(a - b)
	})
	return sh
}

// weigh computes the weight-dependent half of a block's augmentation from
// probs (indexed by variable): the per-node tuple probabilities, the
// block-local probUnder and reachability, and the block probability. The
// three arrays are carved from buf when it holds 3 values per node.
func weigh(sh shape, probs, buf []float64) segment {
	n := len(sh.vars)
	if len(buf) < 3*n {
		buf = make([]float64, 3*n)
	}
	s := segment{shape: sh, prob: buf[:n:n], probUnder: buf[n : 2*n : 2*n], reach: buf[2*n : 3*n : 3*n]}
	prob, under, reach, lo, hi := s.prob, s.probUnder, s.reach, sh.lo, sh.hi
	for i, v := range sh.vars {
		prob[i] = probs[v]
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
	for j := n - 1; j >= 0; j-- {
		i := sh.byLevel[j]
		p := prob[i]
		under[i] = (1-p)*child(lo[i]) + p*child(hi[i])
	}
	s.b = under[0]
	// Local reachability, top-down: restarts at 1 on the block's root; edges
	// that leave the block are dropped.
	reach[0] = 1
	for _, i := range sh.byLevel {
		r, p := reach[i], prob[i]
		if c := lo[i]; c >= 0 {
			reach[c] += r * (1 - p)
		}
		if c := hi[i]; c >= 0 {
			reach[c] += r * p
		}
	}
	return s
}

// newChain augments the OBDD of ¬W rooted at root in m: it finds the chain
// blocks and flattens and weighs every one. The chain keeps no reference to
// m, so a compile's manager is garbage once its caller drops it. With a
// usable block record of that OBDD (rec.Roots in m) every block is tagged
// with its separator value, and the record is returned for the index to keep
// (without the roots); nil when it does not line up with the chain.
func newChain(m *obdd.Manager, root obdd.NodeID, rec *obdd.BlockRecord, probs []float64) (c *chain, kept *obdd.BlockRecord) {
	c = &chain{ord: m.NewScratch()}
	if root == obdd.False {
		c.pNotW.zeros = 1 // ¬W is unsatisfiable: P0(¬W) = 0
	}
	roots := appendChain(m, root, nil)
	// Tag the blocks: the record's value roots are chain roots, Roots[0] the
	// first, unless the record does not describe this chain.
	ok := rec != nil && rec.HasSep
	vi := -1
	size := m.Size(root)
	f := newFlattener(m, size)
	store, weights := make([]segment, len(roots)), make([]float64, 3*size)
	c.segs, c.off = make([]*segment, len(roots)), make([]int32, len(roots)+1)
	for k, r := range roots {
		next := obdd.True
		if k+1 < len(roots) {
			next = roots[k+1]
		}
		var sep engine.Value
		if ok && vi+1 < len(rec.Roots) && rec.Roots[vi+1] == r {
			vi++
		}
		if ok = ok && vi >= 0; ok {
			sep = rec.Values[vi]
		}
		store[k] = weigh(f.flatten(r, next, sep), probs, weights[3*c.off[k]:])
		c.segs[k] = &store[k]
		c.off[k+1] = c.off[k] + int32(len(store[k].vars))
		c.pNotW.add(c.segs[k].b, 1)
	}
	if ok && vi == len(rec.Roots)-1 {
		c.vals, kept = len(rec.Values), &obdd.BlockRecord{U: rec.U, HasSep: true, Sep: rec.Sep}
	}
	return c, kept
}

// logProd holds P0(¬W) = Π_k b_k exactly enough to be maintained by the
// changed blocks' terms alone: Σ_k log|b_k| as a 64.64 two's-complement
// fixed-point integer — integer sums are associative, so adding and removing
// terms in any order gives the bits a from-scratch sum gives — plus the
// counts of zero and of negative factors.
type logProd struct {
	hi          int64
	lo          uint64
	zeros, negs int
}

// add multiplies (sign 1) or divides (sign -1) the product by b.
func (p *logProd) add(b float64, sign int) {
	switch {
	case b == 0:
		p.zeros += sign
		return
	case b < 0:
		p.negs += sign
	}
	// |log|b|| in 64.64 fixed point, bits below 2^-64 truncated.
	l := math.Log(math.Abs(b))
	ip, frac := math.Modf(math.Abs(l))
	hi, lo := uint64(ip), uint64(math.Ldexp(frac, 64))
	var c uint64
	if (l < 0) == (sign < 0) {
		p.lo, c = bits.Add64(p.lo, lo, 0)
		p.hi += int64(hi + c)
	} else {
		p.lo, c = bits.Sub64(p.lo, lo, 0)
		p.hi -= int64(hi + c)
	}
}

// value returns the product as (log|·|, sign); sign 0 means exactly zero.
func (p logProd) value() (float64, int) {
	if p.zeros > 0 {
		return math.Inf(-1), 0
	}
	sign := 1
	if p.negs%2 != 0 {
		sign = -1
	}
	return float64(p.hi) + float64(p.lo)*0x1p-64, sign
}

// negW is a chain's ¬W as a pointer OBDD — what the pointer MVIntersect of
// Fig. 9, Sift and SaveSeq work on, each materialising its own; no chain
// keeps one. at maps a node of m to its index in its block (-1 for nodes
// outside the chain); roots are the blocks' roots.
type negW struct {
	m     *obdd.Manager
	root  obdd.NodeID
	roots []obdd.NodeID
	at    []int32
}

// materialize rebuilds ¬W from the segments in a fresh scratch manager of
// the order, block by block from the last, children before parents.
func (c *chain) materialize() *negW {
	m := c.ord.NewScratch()
	n := &negW{m: m, root: obdd.True, roots: make([]obdd.NodeID, len(c.segs)), at: []int32{-1, -1}}
	if c.pNotW.zeros > 0 && len(c.segs) == 0 {
		n.root = obdd.False
	}
	var ids []obdd.NodeID
	for k := len(c.segs) - 1; k >= 0; k-- {
		s := c.segs[k]
		ids = slices.Grow(ids[:0], len(s.vars))[:len(s.vars)]
		child := func(x int32) obdd.NodeID {
			switch x {
			case ccFalse:
				return obdd.False
			case ccExit:
				return n.root
			}
			return ids[x]
		}
		for j := len(s.byLevel) - 1; j >= 0; j-- {
			i := s.byLevel[j]
			id := m.MkNode(c.level(s.vars[i]), child(s.lo[i]), child(s.hi[i]))
			for int(id) >= len(n.at) {
				n.at = append(n.at, -1)
			}
			ids[i], n.at[id] = id, i
		}
		n.root, n.roots[k] = ids[0], ids[0]
	}
	return n
}
