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
// Every read computes P(Q) = P0(ΦQ ∧ ¬W)/P0(¬W) with CC-MVIntersect, the
// top-down memoized pairwise traversal over ¬W laid out as flat per-block
// segments in DFS order (Sect. 4.3), the form the index stores ¬W in. The
// pointer MVIntersect survives only as Fig. 9's baseline (Index.MVIntersect).
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
	"errors"
	"math"
	"slices"
	"time"

	"mvdb/internal/budget"
	"mvdb/internal/core"
	"mvdb/internal/lineage"
	"mvdb/internal/obdd"
	"mvdb/internal/ucq"
)

// Index is a compiled MV-index over a Translation.
//
// The read path (IntersectLineage, Query, ProbBoolean,
// ExplainLineage, TupleMarginal, ...) never mutates the index and is safe for
// any number of concurrent callers: query OBDDs are built in scratch
// managers over the index's variable order and every traversal memo is
// per-call. The mutating operations — ApplyMutations,
// Reweight, Sift, EnableCache — require exclusive access (no concurrent
// readers).
type Index struct {
	tr    *core.Translation
	probs []float64

	// ch is the current version of ¬W: the order and the directory of
	// per-block segments (see chain), the only store of the augmentation and
	// — through each block's level-sorted node list — the IntraBddIndex.
	ch *chain

	// cache, when non-nil, is the cross-query memoization layer (see
	// EnableCache): the answer cache and its singleflight. The read
	// path consults it concurrently; installing or removing it is a mutating
	// operation like Reweight.
	cache *indexCache

	// rec, when non-nil, says that the chain is W's recorded separator
	// expansion — its blocks are tagged with their separator values — so
	// ApplyMutations can recompile only the dirty values' blocks. Nil after
	// a snapshot restore until the first structural batch, and when W has no
	// chain to record.
	rec *obdd.BlockRecord

	// reorder, when non-nil, records that the index runs under a learned
	// (sifted) variable order rather than the static Π — either found by
	// Sift or restored from a snapshot. ApplyMutations keeps patching that
	// order rather than regressing to Π.
	reorder *ReorderInfo

	// compileFault, when set, fails ApplyMutations' compile (see
	// FailCompile).
	compileFault error
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

// Build compiles the MV-index for a translation: it compiles ¬W under the
// static order Π with the separator expansion recorded, so the first
// structural batch already recompiles only its dirty blocks, and computes the
// block-local augmentation. The index keeps no OBDD manager: ¬W lives in the
// per-block segments. Build never sifts: learning an order is the separate
// offline step Sift.
func Build(tr *core.Translation) (*Index, error) {
	return BuildOrder(tr, obdd.TupleOrder(tr.DB, tr.WPerm()))
}

// BuildOrder is Build under another variable order — the reorder
// experiment's untuned starting point. The order must be a permutation of
// the translated database's tuple variables; the caller vouches for it.
func BuildOrder(tr *core.Translation, order []int) (*Index, error) {
	ord := obdd.NewManager(order)
	d, err := obdd.CompileDelta(tr.DB, tr.W, ord, obdd.CompileOptions{}, nil, nil)
	if err != nil {
		return nil, err
	}
	ix := &Index{tr: tr, probs: tr.DB.Probs()}
	ix.ch, ix.rec = newChain(d.M, d.Root, d.Rec, ix.probs)
	return ix, nil
}

// Sift runs a Rudell sifting pass (obdd.Reorder) over ¬W with one window per
// chain block, so variables never cross block boundaries and the chain
// factorization — with its block-local numerics — survives. On success the
// index runs under the learned order; a block record survives, so
// incremental updates keep working. Requires exclusive access, like
// ApplyMutations. A no-op when opts.Mode is ReorderOff or ¬W is terminal.
func (ix *Index) Sift(opts obdd.ReorderOptions) (obdd.ReorderStats, error) {
	var st obdd.ReorderStats
	if opts.Mode == obdd.ReorderOff || len(ix.ch.segs) == 0 {
		return st, nil
	}
	opts.Windows = ix.BlockWindows()
	n := ix.ch.materialize()
	roots := []obdd.NodeID{n.root}
	var rec *obdd.BlockRecord
	if ix.rec != nil {
		// The record's roots: the first block of every separator value.
		rec = &obdd.BlockRecord{U: ix.rec.U, HasSep: true, Sep: ix.rec.Sep}
		for k, s := range ix.ch.segs {
			if k == 0 || !s.sep.Equal(ix.ch.segs[k-1].sep) {
				rec.Values = append(rec.Values, s.sep)
				roots = append(roots, n.roots[k])
			}
		}
	}
	nm, nroots, st, err := obdd.Reorder(n.m, roots, opts)
	if err != nil {
		return st, err
	}
	if rec != nil {
		rec.Roots = nroots[1:]
	}
	ix.ch, ix.rec = newChain(nm, nroots[0], rec, ix.probs)
	ix.noteReorder(opts.Mode, st, "sifted")
	// Cached answers stay valid: the represented functions and weights are
	// unchanged, and the cache never stores NodeIDs.
	return st, nil
}

// BlockWindows returns the per-block sifting windows (half-open level
// ranges) Sift uses: one window per chain block, in chain order and
// disjoint, from the block's root down to its deepest node. Keeping each
// variable inside its window preserves the convergence points appendChain
// finds, so callers may also use them to construct alternative block-local
// variable orders, safe as CompileOptions.Order. Levels between two blocks'
// windows hold variables with no node in the index — tuples of separator
// values W does not constrain — and sifting leaves them where they are: a
// window never spans two separator values, so every value's variables stay
// contiguous in the learned order, which is what lets a later insert at any
// value, constrained so far or not, find its place by binary search
// (obdd.PatchOrder).
func (ix *Index) BlockWindows() [][2]int {
	wins := make([][2]int, len(ix.ch.segs))
	for k := range wins {
		first, last := ix.ch.window(k)
		wins[k] = [2]int{int(first), int(last) + 1}
	}
	return wins
}

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

// ProbNotW returns P0(¬W) = 1 - P0(W) as a float64. At large scale this is
// a product of thousands of block probabilities and may underflow to 0 (or
// overflow) even though the index answers queries exactly; use LogProbNotW
// for the representable form.
func (ix *Index) ProbNotW() float64 {
	l, sign := ix.LogProbNotW()
	return float64(sign) * math.Exp(l)
}

// LogProbNotW returns P0(¬W) as (log|·|, sign); sign 0 means exactly zero
// (the MarkoViews are inconsistent).
func (ix *Index) LogProbNotW() (logAbs float64, sign int) {
	return ix.ch.pNotW.value()
}

// Size returns the number of internal nodes of the ¬W OBDD.
func (ix *Index) Size() int { return int(ix.ch.off[len(ix.ch.segs)]) }

// Width returns the OBDD width: the most nodes labeled with one variable.
// Blocks hold disjoint levels, so it is the widest run of any block's
// level-sorted list.
func (ix *Index) Width() int {
	w := 0
	for _, s := range ix.ch.segs {
		for j, run := 0, 0; j < len(s.byLevel); j++ {
			if j > 0 && s.vars[s.byLevel[j]] != s.vars[s.byLevel[j-1]] {
				run = 0
			}
			run++
			w = max(w, run)
		}
	}
	return w
}

// Blocks returns the number of chain blocks.
func (ix *Index) Blocks() int { return len(ix.ch.segs) }

// Manager returns a node-free manager over the index's variable order: query
// OBDDs for IntersectLineage are built in its NewScratch managers. The index itself holds no OBDD manager: ¬W lives
// in the per-block segments.
func (ix *Index) Manager() *obdd.Manager { return ix.ch.ord }

// Translation exposes the index's underlying translation (useful after
// loading a saved index).
func (ix *Index) Translation() *core.Translation { return ix.tr }

// IntersectOptions bounds one read and selects its ablations.
type IntersectOptions struct {
	// Deprecated: ignored; every intersection is CC-MVIntersect. Kept only
	// because benchmark/ sets it; C2 deletes it.
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
	// DisableCache bypasses the index's answer cache (EnableCache) for this
	// call: nothing is read from or written to it, and the call does not
	// join singleflight groups. Benchmarks use it to measure the cold path
	// on a cache-enabled index.
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

// span describes the blocks one query touches, [first, last].
type span struct{ first, last int }

// spanFor computes the block span of a query OBDD (qm is the manager the
// query OBDD lives in, over the index's order).
func (ix *Index) spanFor(qm *obdd.Manager, fQ obdd.NodeID, opts IntersectOptions) span {
	s := span{first: 0, last: len(ix.ch.segs) - 1}
	if !opts.NoEntryShortcut {
		s.first = ix.ch.blockForLevel(qm.NodeLevel(fQ))
	}
	s.last = max(ix.ch.blockForLevel(qm.MaxLevel(fQ)), s.first)
	return s
}

// IntersectLineage computes P(Q) = P0(ΦQ ∧ ¬W) / P0(¬W) for a query
// lineage. The prefix and suffix blocks outside the query's span cancel in
// the ratio, so only the touched blocks' probabilities enter the
// computation. The query OBDD is built in a private scratch manager, so the
// shared manager stays frozen and concurrent callers never contend. No
// probability is cached here: the answer cache above it (Query, QueryText)
// is the index's one cache.
func (ix *Index) IntersectLineage(linQ lineage.DNF, opts IntersectOptions) (float64, error) {
	if linQ.IsFalse() {
		return 0, nil
	}
	qm, fQ, err := ix.queryOBDD(linQ, opts)
	if err != nil {
		return 0, err
	}
	p, err := ix.intersectOn(qm, fQ, opts)
	if c := ix.cache; c != nil {
		h, ms := qm.ApplyCacheStats()
		c.applyHits.Add(h)
		c.applyMisses.Add(ms)
	}
	return p, err
}

// queryOBDD builds a query lineage's OBDD in a private scratch manager of
// the index's order, armed with the options' budget so synthesis respects
// MaxNodes and cancellation.
func (ix *Index) queryOBDD(linQ lineage.DNF, opts IntersectOptions) (*obdd.Manager, obdd.NodeID, error) {
	qm := ix.ch.ord.NewScratch()
	if !opts.bounded() {
		return qm, obdd.BuildDNF(qm, linQ), nil
	}
	qm.SetBudget(opts.Ctx, opts.Budget)
	var fQ obdd.NodeID
	err := budget.Catch(func() { fQ = obdd.BuildDNF(qm, linQ) })
	return qm, fQ, err
}

// errInconsistent reports P0(¬W) = 0: no world satisfies the MarkoViews.
var errInconsistent = errors.New("mvindex: P0(¬W) = 0 — inconsistent MarkoViews")

// intersectOn runs CC-MVIntersect with the query OBDD living in qm.
func (ix *Index) intersectOn(qm *obdd.Manager, fQ obdd.NodeID, opts IntersectOptions) (float64, error) {
	p, _, _, err := ix.walk(qm, fQ, opts, (*Index).intersectCC)
	return p, err
}

// traversal is an intersection algorithm over the blocks of span s:
// (*Index).intersectCC, or the pointer walk behind MVIntersect.
type traversal func(ix *Index, qm *obdd.Manager, fQ obdd.NodeID, s span, memo, qprob *pairMemo, g *guard) float64

// walk runs traversal t for the query OBDD fQ in qm, reporting the span it
// walked and the pairs it visited.
func (ix *Index) walk(qm *obdd.Manager, fQ obdd.NodeID, opts IntersectOptions, t traversal) (p float64, s span, pairs int, err error) {
	if err := budget.Check(opts.Ctx, opts.Budget.Deadline); err != nil {
		return 0, s, 0, err
	}
	if _, sign := ix.LogProbNotW(); sign == 0 {
		return 0, s, 0, errInconsistent
	}
	if fQ == obdd.False || fQ == obdd.True {
		return float64(fQ), s, 0, nil // the ids of False and True are 0 and 1
	}
	qprob := getPairMemo()
	defer putPairMemo(qprob)
	if len(ix.ch.segs) == 0 {
		// No constraints: P(Q) = P0(ΦQ).
		return ix.qProb(qm, fQ, qprob), s, 0, nil
	}
	g := newGuard(opts)
	s = ix.spanFor(qm, fQ, opts)
	memo := getPairMemo()
	defer putPairMemo(memo)
	err = budget.Catch(func() { p = t(ix, qm, fQ, s, memo, qprob, g) })
	return p, s, memo.n, err
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
// With the cross-query cache enabled (EnableCache), the answer set is keyed
// on q.String(), the text Parse reads back as q, so Query(q) and
// QueryText(q.String()) share one entry; see QueryText for the cache
// contract. The returned slice is the caller's to sort or trim, but the
// Head tuples are shared with the cache and must be treated as immutable.
func (ix *Index) Query(q *ucq.Query, opts IntersectOptions) ([]core.Answer, error) {
	res, err := ix.answers("", q, opts)
	if err != nil {
		return nil, err
	}
	// The same slice may live in the cache (leader and waiter alike); hand
	// every caller a private outer slice.
	return copyAnswers(res), nil
}

// QueryText evaluates the query whose source text is text. A query that
// does not parse or does not fit the schema (core.Translation.ValidateQuery)
// fails with a *QueryError.
//
// With the cross-query cache enabled (EnableCache), the answer set is
// served from the cache when the same text, byte for byte, was evaluated
// under the current epoch, so a hit neither parses nor validates: both run
// only inside a miss. Concurrent misses on one text collapse into one
// evaluation (singleflight). A failed, canceled or budget-aborted
// evaluation is never cached, and a caller whose own context expires while
// waiting on another caller's evaluation returns its context error without
// disturbing the leader. The returned slice may be the cached one: the
// caller must not modify it or its Head tuples.
func (ix *Index) QueryText(text string, opts IntersectOptions) ([]core.Answer, error) {
	return ix.answers(text, nil, opts)
}

// QueryError is a query rejected before evaluation: it does not parse, or
// it names an unknown or internal relation or the wrong arity. It marks bad
// input, as opposed to a failure during evaluation.
type QueryError struct{ Err error }

func (e *QueryError) Error() string { return e.Err.Error() }
func (e *QueryError) Unwrap() error { return e.Err }

// answers serves Query (q set) and QueryText (q nil, parsed from text on a
// miss) through the answer cache.
func (ix *Index) answers(text string, q *ucq.Query, opts IntersectOptions) ([]core.Answer, error) {
	if err := budget.Check(opts.Ctx, opts.Budget.Deadline); err != nil {
		return nil, err
	}
	eval := func() ([]core.Answer, error) {
		if q == nil {
			var err error
			if q, err = ucq.Parse(text); err != nil {
				return nil, &QueryError{err}
			}
		}
		if err := ix.tr.ValidateQuery(q.UCQ); err != nil {
			return nil, &QueryError{err}
		}
		return ix.queryEval(q, opts)
	}
	cache := ix.cache
	if cache == nil || opts.DisableCache {
		return eval()
	}
	if q != nil {
		text = q.String()
	}
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	res, _, err := cache.answers.Do(ctx, cacheKeyForText(text, opts), eval)
	return res, err
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
// translated database (e.g. a caller updated the MVDB weights in place).
// The OBDD structure of ¬W only depends on which tuples exist, not
// on their weights, so only the weight-dependent half of the augmentation is
// recomputed — for every block, since the caller does not say which weights
// moved (mutation batches that do say re-weigh only the touched blocks, see
// ApplyMutations). Note that changing a MarkoView's weight requires updating
// the corresponding NV tuple weight to (1-w)/w; core.Translation owns that
// mapping.
func (ix *Index) Reweight() {
	ix.probs = ix.tr.DB.Probs()
	c := ix.ch.reweighed()
	store, weights := make([]segment, len(c.segs)), make([]float64, 3*ix.Size())
	for k, s := range c.segs {
		store[k] = weigh(s.shape, ix.probs, weights[3*c.off[k]:])
		c.replace(k, &store[k])
	}
	ix.ch = c
	ix.weightsChanged()
}

// reweighed returns a successor of c with the same structure, whose blocks
// the caller re-weighs with replace.
func (c *chain) reweighed() *chain {
	nc := *c
	nc.segs = slices.Clone(c.segs)
	return &nc
}

// replace puts a re-weighed segment in block k of a chain under
// construction, fixing P0(¬W) by the block's two terms.
func (c *chain) replace(k int, s *segment) {
	c.pNotW.add(c.segs[k].b, -1)
	c.pNotW.add(s.b, 1)
	c.segs[k] = s
}

// weightsChanged finishes any step that re-weighed blocks: the answer
// cache's epoch is bumped — an O(1) invalidation that makes every answer
// computed against the old weights stale (entries are dropped lazily). Mutating steps require exclusive access, so no reader can observe
// the half-updated state.
func (ix *Index) weightsChanged() {
	if ix.cache != nil {
		ix.cache.answers.Invalidate()
	}
}
