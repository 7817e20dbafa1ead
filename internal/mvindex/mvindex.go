// Package mvindex implements the MV-index of Section 4: the OBDD of ¬W
// augmented with per-node precomputations — probUnder (the probability of
// the sub-OBDD) and reachability (the probability mass of root-to-node
// paths) — plus the indices that let online query evaluation start at the
// first block the query touches:
//
//   - InterBddIndex: tuple variable → chain block containing it (the block
//     directory, searched by the variable's level);
//   - IntraBddIndex: tuple variable → OBDD nodes labeled with it (one run of
//     its block's level-sorted node list).
//
// Two intersection algorithms compute P(Q) = P0(ΦQ ∧ ¬W)/P0(¬W):
// MVIntersect, a top-down memoized pairwise traversal, and CC-MVIntersect,
// the cache-conscious variant that lays the OBDD out as a flat vector in
// DFS order (Sect. 4.3).
//
// # Numerical stability at scale
//
// ¬W is a conjunction of thousands of per-separator-value blocks, so the
// global P0(¬W) (and every global probUnder/reachability value) is a
// product of thousands of factors: it underflows or overflows float64 long
// before the paper's data sizes, and the negative probabilities of the
// translation rule out log-space tricks. The index therefore stores all
// augmented quantities *block-locally*: probUnder treats the next chain
// root as the True terminal, reachability restarts at 1 at every chain
// root, and each block k records its own probability b_k = P0(C_k). In
// Theorem 1's ratio the prefix and suffix block products cancel
// analytically, so online evaluation only ever multiplies the b_k of the
// few blocks the query touches.
package mvindex

import (
	"context"
	"fmt"
	"math"
	"time"

	"mvdb/internal/budget"
	"mvdb/internal/core"
	"mvdb/internal/lineage"
	"mvdb/internal/obdd"
	"mvdb/internal/qcache"
	"mvdb/internal/ucq"
)

// Index is a compiled MV-index over a Translation.
//
// After Build returns, every field of the Index — including the shared OBDD
// manager — is frozen: the read path (IntersectOBDD, IntersectLineage,
// Query, ProbBoolean, ExplainLineage, TupleMarginal, ...) never mutates the
// index or its manager and is safe for any number of concurrent callers.
// Per-query OBDDs are built in scratch managers sharing the frozen manager's
// variable order, and every traversal memo is per-call. The only mutating
// operations are Reweight and Compact, which require exclusive access (no
// concurrent readers).
type Index struct {
	tr    *core.Translation
	m     *obdd.Manager
	root  obdd.NodeID // OBDD of ¬W
	probs []float64

	// Chain blocks: convergence points every accepting path passes, in
	// level order. chainRoots[0] is the root. This directory is the
	// InterBddIndex: a variable's block is the last one whose root level does
	// not exceed the variable's level. blockProb[k] = b_k is the block-local
	// probUnder at chainRoots[k].
	chainRoots  []obdd.NodeID
	chainLevels []int32
	blockProb   []float64

	// P0(¬W) = Π_k b_k in log-sign form (the float64 product may not be
	// representable).
	pNotWLog  float64 // Σ log|b_k|; -Inf when some b_k = 0
	pNotWSign int

	// cc holds, block by block, the flattened nodes of ¬W together with the
	// block-local augmentation (see the package comment): the layout
	// CC-MVIntersect walks, the only store of probUnder and reach, and —
	// through each block's level-sorted node list — the IntraBddIndex.
	cc *ccLayout

	// cache, when non-nil, is the cross-query memoization layer (see
	// EnableCache): answer cache, lineage cache, and singleflight. The read
	// path consults it concurrently; installing or removing it is a mutating
	// operation like Reweight.
	cache *indexCache

	// rec, when non-nil, is the block record of the last (recorded) compile
	// of W, keyed to the current manager m; it lets ApplyMutations reuse
	// clean blocks. Nil until the first structural mutation batch and after
	// Compact (which moves NodeIDs).
	rec *obdd.BlockRecord

	// reorder, when non-nil, records that the index runs under a learned
	// (sifted) variable order rather than the static Π — either found by
	// Sift or restored from a snapshot. ApplyMutations then threads the
	// learned order into delta recompiles via CompileOptions.Order.
	reorder *ReorderInfo
}

// ReorderInfo is the reordering provenance of an index: how its learned
// variable order was obtained and what the sift achieved. Surfaced by the
// server's /stats and persisted through snapshots so recovery and replica
// bootstrap skip the search.
type ReorderInfo struct {
	Mode        string  `json:"mode"`
	Provenance  string  `json:"provenance"` // "sifted" | "snapshot"
	NodesBefore int     `json:"nodes_before"`
	NodesAfter  int     `json:"nodes_after"`
	Rounds      int     `json:"rounds"`
	SiftedVars  int     `json:"sifted_vars"`
	Swaps       int     `json:"swaps"`
	SiftMillis  float64 `json:"sift_ms"`
	// DeltaReuses counts delta recompiles that inherited the learned order
	// through maintain.go instead of regressing to static Π.
	DeltaReuses int `json:"delta_reuses"`
	// BlockProvenance counts chain blocks by how their current order was
	// obtained: "sifted"/"snapshot" right after a sift or restore,
	// "inherited-reused"/"inherited-recompiled" after a delta recompile
	// under the learned order.
	BlockProvenance map[string]int `json:"block_provenance"`
}

// Build compiles the MV-index for a translation: it reuses the translation's
// compiled OBDD of W (separator-first order), negates it, and computes the
// block-local augmentation.
func Build(tr *core.Translation) (*Index, error) {
	m, fW, err := tr.OBDD()
	if err != nil {
		return nil, err
	}
	ix := newIndex(tr, m, m.Not(fW))
	if tr.Reorder.Mode != obdd.ReorderOff {
		if _, err := ix.Sift(tr.Reorder); err != nil {
			return nil, err
		}
	}
	return ix, nil
}

// newIndex augments the OBDD of ¬W rooted at root in m.
func newIndex(tr *core.Translation, m *obdd.Manager, root obdd.NodeID) *Index {
	ix := &Index{tr: tr, m: m, root: root, probs: tr.DB.Probs()}
	ix.augmentAll()
	return ix
}

// Sift runs a Rudell sifting pass (obdd.Reorder) over the index OBDD with
// one window per chain block, so variables never cross block boundaries and
// the chain factorization — with its block-local numerics — survives. On
// success the index (and its translation) runs on a fresh manager under the
// learned order; the block record, if any, is remapped so incremental
// updates keep working. Requires exclusive access, like Reweight and
// Compact. A no-op when opts.Mode is ReorderOff or ¬W is terminal.
func (ix *Index) Sift(opts obdd.ReorderOptions) (obdd.ReorderStats, error) {
	var st obdd.ReorderStats
	if opts.Mode == obdd.ReorderOff || ix.m.IsTerminal(ix.root) {
		return st, nil
	}
	opts.Windows = ix.blockWindows()
	roots := []obdd.NodeID{ix.root}
	var nRec int
	if ix.rec != nil {
		nRec = len(ix.rec.Roots)
		roots = append(roots, ix.rec.Roots...)
	}
	nm, nroots, st, err := obdd.Reorder(ix.m, roots, opts)
	if err != nil {
		return st, err
	}
	ix.m = nm
	ix.root = nroots[0]
	if ix.rec != nil {
		ix.rec.Roots = append([]obdd.NodeID(nil), nroots[1:1+nRec]...)
	}
	ix.tr.AttachNegOBDD(nm, ix.root)
	ix.augmentAll()
	ix.noteReorder(opts.Mode, st, "sifted")
	// Cached answers and lineage probabilities stay valid: the represented
	// functions and weights are unchanged, and the caches never store
	// NodeIDs — same reasoning as Compact.
	return st, nil
}

// blockWindows derives one sifting window per chain block: the levels from
// the block's root down to its deepest node. Keeping each variable inside its
// window preserves the convergence points appendChain finds. Levels between
// two blocks' windows hold variables with no node in the index — tuples of
// separator values W does not constrain — and sifting leaves them where they
// are: a window never spans two separator values, so every value's variables
// stay contiguous in the learned order, which is what lets a later insert at
// any value, constrained so far or not, find its place by binary search
// (obdd.CompileDelta).
func (ix *Index) blockWindows() [][2]int {
	cc := ix.cc
	wins := make([][2]int, len(ix.chainLevels))
	for k, l := range ix.chainLevels {
		a, b := cc.off[k], cc.off[k+1]
		wins[k] = [2]int{int(l), int(cc.level[a+cc.byLevel[b-1]]) + 1}
	}
	return wins
}

// BlockWindows returns the per-block sifting windows (half-open level
// ranges) Sift uses: one window per chain block, in chain order and disjoint.
// Callers may use them to construct alternative block-local variable orders —
// any order that permutes levels only inside these windows preserves the
// chain factorization and is safe as CompileOptions.Order.
func (ix *Index) BlockWindows() [][2]int { return ix.blockWindows() }

// noteReorder records reordering provenance after a sift or restore.
func (ix *Index) noteReorder(mode obdd.ReorderMode, st obdd.ReorderStats, prov string) {
	ix.reorder = &ReorderInfo{
		Mode:            mode.String(),
		Provenance:      prov,
		NodesBefore:     st.NodesBefore,
		NodesAfter:      st.NodesAfter,
		Rounds:          st.Rounds,
		SiftedVars:      st.Sifted,
		Swaps:           st.Swaps,
		SiftMillis:      float64(st.Duration) / float64(time.Millisecond),
		BlockProvenance: map[string]int{prov: ix.Blocks()},
	}
}

// Reordered reports whether the index runs under a learned (sifted) order.
func (ix *Index) Reordered() bool { return ix.reorder != nil }

// ReorderInfo returns a copy of the reordering provenance, or nil while the
// index still uses the static Π order.
func (ix *Index) ReorderInfo() *ReorderInfo {
	if ix.reorder == nil {
		return nil
	}
	cp := *ix.reorder
	cp.BlockProvenance = make(map[string]int, len(ix.reorder.BlockProvenance))
	for k, v := range ix.reorder.BlockProvenance {
		cp.BlockProvenance[k] = v
	}
	return &cp
}

// nextRoot returns the chain root following block k, or False when k is the
// last block (no boundary node).
func (ix *Index) nextRoot(k int) obdd.NodeID {
	if k+1 < len(ix.chainRoots) {
		return ix.chainRoots[k+1]
	}
	return obdd.False // sentinel: never matches an internal node below
}

// blockForLevel returns the index of the last chain root whose level is <=
// the given level (the block containing that level).
func (ix *Index) blockForLevel(level int32) int {
	lo, hi := 0, len(ix.chainRoots)-1
	best := 0
	for lo <= hi {
		mid := (lo + hi) / 2
		if ix.chainLevels[mid] <= level {
			best = mid
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	return best
}

// ProbNotW returns P0(¬W) = 1 - P0(W) as a float64. At large scale this is
// a product of thousands of block probabilities and may underflow to 0 (or
// overflow) even though the index answers queries exactly; use LogProbNotW
// for the representable form.
func (ix *Index) ProbNotW() float64 {
	return float64(ix.pNotWSign) * math.Exp(ix.pNotWLog)
}

// LogProbNotW returns P0(¬W) as (log|·|, sign); sign 0 means exactly zero
// (the MarkoViews are inconsistent).
func (ix *Index) LogProbNotW() (logAbs float64, sign int) {
	return ix.pNotWLog, ix.pNotWSign
}

// Size returns the number of internal nodes of the ¬W OBDD.
func (ix *Index) Size() int { return len(ix.cc.id) }

// Width returns the OBDD width.
func (ix *Index) Width() int { return ix.m.Width(ix.root) }

// Blocks returns the number of chain blocks.
func (ix *Index) Blocks() int { return len(ix.chainRoots) }

// NodesOf returns the IntraBddIndex entry of a variable: the nodes of the
// ¬W OBDD labeled with it.
func (ix *Index) NodesOf(v int) []obdd.NodeID {
	k, run := ix.levelRun(v)
	if len(run) == 0 {
		return nil
	}
	out := make([]obdd.NodeID, len(run))
	for j, i := range run {
		out[j] = ix.cc.id[ix.cc.off[k]+i]
	}
	return out
}

// BlockOf returns the InterBddIndex entry of a variable: the chain block
// containing it (-1 if the variable does not occur in the index).
func (ix *Index) BlockOf(v int) int {
	k, run := ix.levelRun(v)
	if len(run) == 0 {
		return -1
	}
	return k
}

// Manager exposes the underlying OBDD manager (shared with the query side).
func (ix *Index) Manager() *obdd.Manager { return ix.m }

// Translation exposes the index's underlying translation (useful after
// loading a saved index).
func (ix *Index) Translation() *core.Translation { return ix.tr }

// IntersectOptions selects the online intersection algorithm and its
// shortcuts.
type IntersectOptions struct {
	// CacheConscious selects CC-MVIntersect (flattened DFS-order layout).
	CacheConscious bool
	// NoEntryShortcut disables the InterBddIndex entry into the first block
	// the query touches — an ablation that forces the traversal to start at
	// the root block.
	NoEntryShortcut bool
	// Ctx, when non-nil, is polled during evaluation — between answers in
	// Query and periodically inside the intersection recursions — aborting
	// with an error wrapping budget.ErrCanceled once done.
	Ctx context.Context
	// Budget bounds the per-call resources: MaxNodes caps the scratch
	// query-OBDD allocation, MaxPairs caps the memoized (query node, index
	// node) pairs one intersection may visit, and Deadline is a wall-clock
	// cutoff. Violations abort with errors wrapping budget.ErrBudgetExceeded
	// or budget.ErrCanceled. In Query, MaxNodes/MaxPairs apply per answer
	// (each answer runs its own intersection); Deadline bounds the whole
	// call.
	Budget budget.Budget
	// DisableCache bypasses the index's cross-query cache (EnableCache) for
	// this call: nothing is read from or written to the answer and lineage
	// caches, and the call does not join singleflight groups. Benchmarks use
	// it to measure the cold path on a cache-enabled index.
	DisableCache bool
}

// bounded reports whether the options impose any cancellation or budget.
func (o IntersectOptions) bounded() bool {
	return o.Ctx != nil || !o.Budget.IsZero()
}

// guard enforces the pair-visit budget and the periodic cancellation polls
// of one intersection. A nil guard (unbudgeted call) checks nothing — the
// hot path stays branch-cheap.
type guard struct {
	ctx      context.Context
	deadline time.Time
	maxPairs int
	pairs    int
}

func newGuard(opts IntersectOptions) *guard {
	if !opts.bounded() {
		return nil
	}
	return &guard{ctx: opts.Ctx, deadline: opts.Budget.Deadline, maxPairs: opts.Budget.MaxPairs}
}

// visit records one memoized pair and aborts the traversal via budget.Panic
// (caught at intersectOn) when the pair budget is exhausted; cancellation
// and the deadline are polled every 1024 pairs.
func (g *guard) visit() {
	if g == nil {
		return
	}
	g.pairs++
	if g.maxPairs > 0 && g.pairs > g.maxPairs {
		budget.Panic(budget.Exceeded("mvindex pair", g.maxPairs))
	}
	if g.pairs&1023 != 0 {
		return
	}
	if err := budget.Check(g.ctx, g.deadline); err != nil {
		budget.Panic(err)
	}
}

// span describes the blocks one query touches.
type span struct {
	first, last int // block range [first, last]
	stop        obdd.NodeID
}

// spanFor computes the block span of a query OBDD (qm is the manager the
// query OBDD lives in; levels coincide with the index manager's).
func (ix *Index) spanFor(qm *obdd.Manager, fQ obdd.NodeID, opts IntersectOptions) span {
	s := span{first: 0, last: len(ix.chainRoots) - 1}
	if !opts.NoEntryShortcut {
		s.first = ix.blockForLevel(qm.NodeLevel(fQ))
	}
	s.last = ix.blockForLevel(qm.MaxLevel(fQ))
	if s.last < s.first {
		s.last = s.first
	}
	s.stop = ix.nextRoot(s.last)
	return s
}

// IntersectLineage computes P(Q) = P0(ΦQ ∧ ¬W) / P0(¬W) for a query
// lineage. The prefix and suffix blocks outside the query's span cancel in
// the ratio, so only the touched blocks' probabilities enter the
// computation. The query OBDD is built in a private scratch manager, so the
// shared manager stays frozen and concurrent callers never contend.
func (ix *Index) IntersectLineage(linQ lineage.DNF, opts IntersectOptions) (float64, error) {
	if linQ.IsFalse() {
		return 0, nil
	}
	cache := ix.cache
	useCache := cache != nil && !opts.DisableCache
	var lkey qcache.Key
	if useCache {
		hi, lo := linQ.Hash()
		lkey = cacheKeyForLineage(hi, lo, opts)
		if p, ok := cache.lineage.Get(lkey); ok {
			return p, nil
		}
	}
	qm := ix.m.NewScratch()
	var fQ obdd.NodeID
	if opts.bounded() {
		// Arm the private scratch manager so query-OBDD synthesis respects
		// MaxNodes and cancellation; the shared manager stays untouched.
		qm.SetBudget(opts.Ctx, opts.Budget)
		if err := budget.Catch(func() { fQ = obdd.BuildDNF(qm, linQ) }); err != nil {
			return 0, err
		}
	} else {
		fQ = obdd.BuildDNF(qm, linQ)
	}
	p, err := ix.intersectOn(qm, fQ, opts)
	if cache != nil {
		h, ms := qm.ApplyCacheStats()
		cache.applyHits.Add(h)
		cache.applyMisses.Add(ms)
	}
	if useCache && err == nil {
		cache.lineage.Put(lkey, p)
	}
	return p, err
}

// IntersectOBDD computes P(Q) = P0(ΦQ ∧ ¬W) / P0(¬W) for a query OBDD built
// on the shared manager (or a scratch manager over the same order — pass it
// through IntersectLineage in that case). Read-only: safe for concurrent
// callers on a frozen index.
func (ix *Index) IntersectOBDD(fQ obdd.NodeID, opts IntersectOptions) (float64, error) {
	return ix.intersectOn(ix.m, fQ, opts)
}

// intersectOn runs the intersection with the query OBDD living in qm.
func (ix *Index) intersectOn(qm *obdd.Manager, fQ obdd.NodeID, opts IntersectOptions) (float64, error) {
	if err := budget.Check(opts.Ctx, opts.Budget.Deadline); err != nil {
		return 0, err
	}
	if ix.pNotWSign == 0 {
		return 0, fmt.Errorf("mvindex: P0(¬W) = 0 — inconsistent MarkoViews")
	}
	if fQ == obdd.False {
		return 0, nil
	}
	if fQ == obdd.True {
		return 1, nil
	}
	qprob := getPairMemo()
	defer putPairMemo(qprob)
	if ix.m.IsTerminal(ix.root) {
		// No constraints: P(Q) = P0(ΦQ).
		return ix.qProb(qm, fQ, qprob), nil
	}
	g := newGuard(opts)
	s := ix.spanFor(qm, fQ, opts)
	memo := getPairMemo()
	defer putPairMemo(memo)
	var p float64
	err := budget.Catch(func() {
		if opts.CacheConscious {
			p = ix.cc.intersect(ix, qm, fQ, s, memo, qprob, g)
			return
		}
		p = ix.intersect(qm, fQ, ix.chainRoots[s.first], s, memo, qprob, g)
	})
	return p, err
}

// intersect is MVIntersect in conditioned units: it returns
// P0(ΦQ ∧ C_{block(w)..last} | paths reaching w) / Π_{j=block(w)..last} b_j,
// so the final call at the entry chain root directly yields Theorem 1's
// ratio — every block division happens as its boundary is crossed, and no
// unrepresentable global product is ever formed.
func (ix *Index) intersect(qm *obdd.Manager, q, w obdd.NodeID, s span, memo, qprob *pairMemo, g *guard) float64 {
	if q == obdd.False || w == obdd.False {
		return 0
	}
	if w == s.stop || w == obdd.True {
		// Constraints beyond the span factor out of the ratio.
		return ix.qProb(qm, q, qprob)
	}
	wBlock := ix.blockForLevel(ix.m.NodeLevel(w))
	if q == obdd.True {
		// Remaining constraint mass of this block (conditioned), the
		// suffix blocks cancel.
		return ix.cc.probUnder[ix.cc.idOf[w]] / ix.blockProb[wBlock]
	}
	// Both q and w are internal (≥ 2), so the packed key is never zero.
	key := int64(q)<<32 | int64(uint32(w))
	if r, ok := memo.get(key); ok {
		return r
	}
	g.visit()
	lq, lw := qm.NodeLevel(q), ix.m.NodeLevel(w)
	var r float64
	switch {
	case lq < lw:
		p := ix.probs[qm.VarAtLevel(int(lq))]
		r = (1-p)*ix.intersect(qm, qm.Lo(q), w, s, memo, qprob, g) + p*ix.intersect(qm, qm.Hi(q), w, s, memo, qprob, g)
	case lw < lq:
		p := ix.probs[ix.m.VarAtLevel(int(lw))]
		r = (1-p)*ix.wchild(qm, q, ix.m.Lo(w), wBlock, s, memo, qprob, g) + p*ix.wchild(qm, q, ix.m.Hi(w), wBlock, s, memo, qprob, g)
	default:
		p := ix.probs[qm.VarAtLevel(int(lq))]
		r = (1-p)*ix.wchild(qm, qm.Lo(q), ix.m.Lo(w), wBlock, s, memo, qprob, g) + p*ix.wchild(qm, qm.Hi(q), ix.m.Hi(w), wBlock, s, memo, qprob, g)
	}
	memo.put(key, r)
	return r
}

// wchild evaluates a w-side child edge in conditioned units: leaving block
// wBlock (into the next chain root or the True terminal) divides by that
// block's probability; reaching the span's stop root contributes the bare
// query probability.
func (ix *Index) wchild(qm *obdd.Manager, q, c obdd.NodeID, wBlock int, s span, memo, qprob *pairMemo, g *guard) float64 {
	if q == obdd.False || c == obdd.False {
		return 0
	}
	b := ix.blockProb[wBlock]
	if c == s.stop {
		return ix.qProb(qm, q, qprob) / b
	}
	if c == obdd.True {
		return ix.qProb(qm, q, qprob) / b
	}
	val := ix.intersect(qm, q, c, s, memo, qprob, g)
	if ix.blockForLevel(ix.m.NodeLevel(c)) > wBlock {
		val /= b
	}
	return val
}

// qProb computes P0 of a query sub-OBDD; the memo is a pairMemo keyed by the
// bare node id (internal ids are ≥ 2, so keys never collide with the empty
// sentinel 0).
func (ix *Index) qProb(qm *obdd.Manager, q obdd.NodeID, memo *pairMemo) float64 {
	switch q {
	case obdd.False:
		return 0
	case obdd.True:
		return 1
	}
	if p, ok := memo.get(int64(q)); ok {
		return p
	}
	pv := ix.probs[qm.VarAtLevel(int(qm.NodeLevel(q)))]
	r := (1-pv)*ix.qProb(qm, qm.Lo(q), memo) + pv*ix.qProb(qm, qm.Hi(q), memo)
	memo.put(int64(q), r)
	return r
}

// ProbBoolean evaluates P(Q) through the index.
func (ix *Index) ProbBoolean(q ucq.UCQ, opts IntersectOptions) (float64, error) {
	linQ, err := ucq.EvalBoolean(ix.tr.DB, q)
	if err != nil {
		return 0, err
	}
	return ix.IntersectLineage(linQ, opts)
}

// Query evaluates a named query, one probability per answer tuple, each by
// its own intersection (core.AnswerRows). With opts.Ctx or a deadline set,
// cancellation is also checked between answers, so a canceled query stops
// after the current answer.
//
// With the cross-query cache enabled (EnableCache), the answer set is served
// from the cache when a canonically identical query (same up to variable
// renaming, atom/disjunct order, and query name) was evaluated under the
// current epoch; concurrent identical misses collapse into one evaluation
// (singleflight). A canceled or budget-aborted evaluation is never cached,
// and a caller whose own context expires while waiting on another caller's
// evaluation returns its context error without disturbing the leader. The
// returned slice is the caller's to sort or trim, but the Head tuples are
// shared with the cache and must be treated as immutable.
func (ix *Index) Query(q *ucq.Query, opts IntersectOptions) ([]core.Answer, error) {
	if err := budget.Check(opts.Ctx, opts.Budget.Deadline); err != nil {
		return nil, err
	}
	cache := ix.cache
	if cache == nil || opts.DisableCache {
		return ix.queryEval(q, opts)
	}
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	res, _, err := cache.answers.Do(ctx, cacheKeyForQuery(q, opts), func() ([]core.Answer, error) {
		return ix.queryEval(q, opts)
	})
	if err != nil {
		return nil, err
	}
	// The same slice may live in the cache (leader and waiter alike); hand
	// every caller a private outer slice.
	return copyAnswers(res), nil
}

// queryEval is the uncached evaluation behind Query.
func (ix *Index) queryEval(q *ucq.Query, opts IntersectOptions) ([]core.Answer, error) {
	rows, err := ucq.Eval(ix.tr.DB, q)
	if err != nil {
		return nil, err
	}
	return core.AnswerRows(opts.Ctx, opts.Budget.Deadline, rows, func(r ucq.AnswerRow) (float64, error) {
		return ix.IntersectLineage(r.Lineage, opts)
	})
}

// Reweight refreshes the index after tuple weights changed somewhere in the
// translated database (e.g. a learning loop updated the MVDB weights in
// place). The OBDD structure of ¬W only depends on which tuples exist, not
// on their weights, so only the weight-dependent half of the augmentation is
// recomputed — for every block, since the caller does not say which weights
// moved (mutation batches that do say re-weigh only the touched blocks, see
// ApplyMutations). Note that changing a MarkoView's weight requires updating
// the corresponding NV tuple weight to (1-w)/w; core.Translation owns that
// mapping.
func (ix *Index) Reweight() {
	ix.probs = ix.tr.DB.Probs()
	for k := range ix.chainRoots {
		ix.weighBlock(k)
	}
	ix.weightsChanged()
}

// weightsChanged finishes any step that re-weighed blocks: the block product
// is re-summed, the translation's lazily derived P0(W) is dropped, and the
// cache epochs are bumped — an O(1) invalidation that makes every answer and
// lineage probability computed against the old weights stale (entries are
// dropped lazily). Mutating steps require exclusive access, so no reader can
// observe the half-updated state.
func (ix *Index) weightsChanged() {
	ix.sumBlocks()
	ix.tr.AttachNegOBDD(ix.m, ix.root)
	if ix.cache != nil {
		ix.cache.answers.Invalidate()
		ix.cache.lineage.Invalidate()
	}
}

// Compact rebuilds the index on a fresh OBDD manager containing only the
// nodes of ¬W, dropping dead intermediates left behind by compilation and
// by per-query OBDD synthesis. Returns the number of manager nodes freed.
func (ix *Index) Compact() int {
	before := ix.m.NumNodes()
	nm, roots := ix.m.Compact(ix.root)
	ix.m = nm
	ix.root = roots[0]
	ix.tr.AttachNegOBDD(nm, ix.root)
	// The block record's roots are NodeIDs of the old manager; drop it (the
	// next structural mutation batch recompiles in full and re-records).
	ix.rec = nil
	ix.augmentAll()
	// Cached answers and lineage probabilities stay valid across Compact —
	// the weights (and hence every probability) are unchanged; only NodeIDs
	// moved, and the caches never store NodeIDs.
	return before - nm.NumNodes()
}
