package obdd

import (
	"reflect"
	"sort"

	"mvdb/internal/budget"
	"mvdb/internal/engine"
	"mvdb/internal/ucq"
)

// Incremental recompilation. A ConOBDD compiled through a top-level
// separator is a chain of per-separator-value blocks; a BlockRecord keeps the
// per-value chain roots so a later compile of the same query over a mutated
// database re-derives only the blocks the mutation can have touched and
// copies the rest. CompileDelta works on the negated formula ¬u — the form
// the MV-index stores — where the chain reads: block i's rejecting exits go
// to the False terminal and its accepting exits to the root of block i+1
// (the True terminal after the last block). Correctness rests on two facts:
//
//   - Reduced OBDDs over a fixed order are canonical, so copying a clean
//     block node by node (levels renamed into the new order, exits redirected
//     to the new successor) yields exactly the OBDD a from-scratch compile
//     would build, regardless of which blocks were copied.
//   - A mutation to a tuple carrying separator value v can only change the
//     function of block v: every grounding using the tuple binds the
//     separator to v. Tuples the separator cannot localize (deterministic,
//     negated or ground atoms) force a full recompile.
//
// A disjunct pruned from a block because its probe relation has no tuple at
// that value is identically false there, so probe-set differences at clean
// values never change block functions — reuse needs no probe bookkeeping.

// BlockRecord describes the top-level separator expansion of one compiled
// UCQ: the query, the separator, and — sorted by value — the separator values
// with a non-empty block together with the root of the ¬u chain from that
// block on (Roots[0] is the root of ¬u). HasSep is false when the compiled
// OBDD is not such a chain (no whole-union separator, ground disjuncts, a
// constant block, or an order under which blocks interleave); incremental
// maintenance then falls back to full recompilation.
type BlockRecord struct {
	U      ucq.UCQ
	HasSep bool
	Sep    ucq.Separator
	Values []engine.Value
	Roots  []NodeID
}

// ChangedTuple identifies a tuple whose presence changed (inserted or
// deleted) between the recorded compilation and the current database. Var,
// when known, is the variable the change created or freed (0 otherwise, and
// for deterministic tuples).
type ChangedTuple struct {
	Rel  string
	Vals []engine.Value
	Var  int
}

// DeltaStats reports how an incremental compile proceeded.
type DeltaStats struct {
	Blocks     int  // non-empty separator blocks in the new chain
	Reused     int  // clean blocks copied from the old manager
	Recompiled int  // dirty or new blocks compiled from scratch
	Spliced    int  // nodes copied from the old chain
	Full       bool // fell back to a full recompile
}

// Delta is the result of CompileDelta: a fresh manager holding ¬u, the block
// record for the next delta, and — unless the compile was full — the maps
// that let a caller carry per-node and per-block annotations across.
type Delta struct {
	M     *Manager
	Root  NodeID // OBDD of ¬u in M
	Rec   *BlockRecord
	Stats DeltaStats

	// The fields below are nil after a full compile. NodeMap sends every old
	// chain node that was copied to its image in M (0 for nodes that were
	// not: garbage, and the nodes of recompiled blocks). LevelMap sends old
	// levels to new ones (-1 for variables that no longer exist). From[i] is
	// the index in the old record of the block Rec.Roots[i] was copied from,
	// or -1 when it was compiled.
	NodeMap  []NodeID
	LevelMap []int32
	From     []int32
}

// CompileDelta compiles ¬u over the mutated database into a fresh manager,
// reusing every block of the previous compilation (old manager + record)
// whose function is untouched by the changed tuples. varMap translates the
// old manager's external variable ids into the new database's (identity for
// in-place mutation, which never renumbers; tuple identity across a
// re-translation) and reports deleted tuples' variables as unmapped; it must
// be injective. The new variable order is the old manager's with unmapped
// variables removed and the changed tuples inserted at their Π position
// (patchOrder), so surviving variables keep their relative order by
// construction and a clean block is copied without order checks. With a nil
// old manager the order is the static Π (or opts.Order).
//
// The compile is full — everything recompiled, Delta.Stats.Full set — when
// the record is missing or unusable, the query or its separator changed, a
// changed tuple cannot be localized to a separator value, or a recompiled
// block does not fit between its neighbours in the order.
func CompileDelta(db *engine.Database, u ucq.UCQ, pi Perm, opts CompileOptions,
	old *Manager, oldRec *BlockRecord, varMap func(int) (int, bool),
	changed []ChangedTuple) (*Delta, error) {
	if err := pi.Validate(db); err != nil {
		return nil, err
	}
	var order []int
	if old != nil {
		order = patchOrder(old.levelVar, varMap, db, pi, changed)
	} else {
		var err error
		if order, err = compileOrder(db, pi, opts); err != nil {
			return nil, err
		}
	}
	var d *Delta
	if old != nil && oldRec != nil && oldRec.HasSep && reflect.DeepEqual(oldRec.U, u) {
		var err error
		if d, err = spliceCompile(db, u, order, opts, old, oldRec, varMap, changed); err != nil {
			return nil, err
		}
	}
	if d == nil {
		// Full recompile, on a manager of its own so nothing a failed splice
		// attempt allocated is left behind.
		c, disarm := newArmedCompiler(NewManager(order), db, opts)
		defer disarm()
		d = &Delta{M: c.m, Stats: DeltaStats{Full: true}}
		var ferr error
		err := budget.Catch(func() { d.Root, d.Rec, ferr = c.ucqRecorded(u) })
		if err == nil {
			err = ferr
		}
		if err != nil {
			return nil, err
		}
		d.Stats.Blocks, d.Stats.Recompiled = len(d.Rec.Roots), len(d.Rec.Roots)
	}
	return d, nil
}

// spliceCompile is the incremental body of CompileDelta. It returns a nil
// Delta (and no error) when the batch needs a full recompile.
func spliceCompile(db *engine.Database, u ucq.UCQ, order []int, opts CompileOptions,
	old *Manager, oldRec *BlockRecord, varMap func(int) (int, bool),
	changed []ChangedTuple) (*Delta, error) {
	m := NewManager(order)
	m.reserve(len(old.nodes))
	c, disarm := newArmedCompiler(m, db, opts)
	defer disarm()
	var d *Delta
	var ferr error
	err := budget.Catch(func() { d, ferr = c.splice(u, old, oldRec, varMap, changed) })
	if err == nil {
		err = ferr
	}
	if err != nil || d == nil {
		return nil, err
	}
	d.M = m
	return d, nil
}

// newArmedCompiler builds a compiler over m and arms the manager's budget
// when the options ask for one; the returned disarm must be deferred.
func newArmedCompiler(m *Manager, db *engine.Database, opts CompileOptions) (*compiler, func()) {
	if opts.ApplyCacheSize > 0 {
		m.SetApplyCacheMax(opts.ApplyCacheSize)
	}
	c := &compiler{m: m, db: db, opts: opts}
	if opts.bounded() {
		m.SetBudget(opts.Ctx, opts.Budget)
		return c, func() { m.SetBudget(nil, budget.Budget{}) }
	}
	return c, func() {}
}

// ucqRecorded compiles ¬u, mirroring ucq()'s top level (simplify, R4 ground
// split) but trying the separator expansion on the whole open union first —
// above the R1 union-group split the plain compiler prefers — which yields
// the same canonical OBDD (possibly via a different construction order)
// while making every block individually addressable. The record captures
// the per-value chain roots when the result is a plain chain.
func (c *compiler) ucqRecorded(u ucq.UCQ) (NodeID, *BlockRecord, error) {
	rec := &BlockRecord{U: u}
	ground, open := c.splitLive(u)
	results := make([]NodeID, 0, len(ground)+1)
	for _, d := range ground {
		f, err := c.groundCQ(d)
		if err != nil {
			return False, nil, err
		}
		results = append(results, f)
	}
	var sep ucq.Separator
	var domain []engine.Value
	var chain []NodeID
	if len(open) > 0 {
		openU := ucq.UCQ{Disjuncts: open}
		var f NodeID
		var err error
		var ok bool
		if sep, ok = openU.FindSeparatorSkip(c.detSkip()); ok {
			var subs []ucq.UCQ
			var est []int
			domain, subs, est = c.sepExpand(openU, sep)
			chain = make([]NodeID, len(subs))
			f, err = c.blockChain(subs, est, chain)
		} else {
			f, err = c.openUCQ(openU)
		}
		if err != nil {
			return False, nil, err
		}
		results = append(results, f)
	}
	fU := c.combine(results, false)
	// One memo serves the negation of the whole formula and the lookups of
	// the per-block chain roots inside it.
	memo := getNodeMemo(len(c.m.nodes), true)
	defer putNodeMemo(memo)
	root := c.m.not(fU, memo)
	if chain != nil && len(ground) == 0 && !c.chainBroken {
		rec.HasSep, rec.Sep = true, sep
		for i, r := range chain {
			if r != False {
				rec.Values = append(rec.Values, domain[i])
				rec.Roots = append(rec.Roots, c.m.not(r, memo))
			}
		}
	}
	return root, rec, nil
}

// splitLive simplifies the disjuncts and splits them into ground and open,
// as ucq() does. Both slices nil means the union is identically false.
func (c *compiler) splitLive(u ucq.UCQ) (ground, open []ucq.CQ) {
	for _, d := range u.Disjuncts {
		sd, ok := simplifyCQ(d)
		if !ok {
			continue
		}
		if !sd.HasVars() {
			ground = append(ground, sd)
		} else {
			open = append(open, sd)
		}
	}
	return ground, open
}

// splice builds ¬u in the compiler's fresh manager from the old chain: it
// compiles the blocks of the dirty separator values, then walks the merged
// value list once from the deepest block up, copying each clean block out of
// the old manager (levels through the level map, exits redirected to the new
// successor) and hooking each compiled block in the same way. A nil Delta
// asks the caller for a full recompile.
func (c *compiler) splice(u ucq.UCQ, old *Manager, oldRec *BlockRecord,
	varMap func(int) (int, bool), changed []ChangedTuple) (*Delta, error) {
	ground, open := c.splitLive(u)
	if len(ground) > 0 || len(open) == 0 {
		return nil, nil // not a plain chain
	}
	openU := ucq.UCQ{Disjuncts: open}
	sep, ok := openU.FindSeparatorSkip(c.detSkip())
	if !ok || !reflect.DeepEqual(sep, oldRec.Sep) {
		return nil, nil
	}
	dirtySet, dirtyAll := dirtyValues(openU, sep, c.detSkip(), changed)
	if dirtyAll {
		return nil, nil
	}

	// Expand the separator at the dirty values only and compile their blocks
	// (standalone, in u's polarity) — through the worker pool when it pays.
	dirty := make([]engine.Value, 0, len(dirtySet))
	for v := range dirtySet {
		dirty = append(dirty, v)
	}
	sort.Slice(dirty, func(i, j int) bool { return dirty[i].Compare(dirty[j]) < 0 })
	subs, est := c.sepSubs(openU, sep, c.sepProbes(openU, sep), dirty)
	compiled, err := c.compileBlocks(subs, est)
	if err != nil {
		return nil, err
	}

	d := &Delta{
		NodeMap:  make([]NodeID, len(old.nodes)),
		LevelMap: make([]int32, len(old.levelVar)),
	}
	for l, v := range old.levelVar {
		d.LevelMap[l] = -1
		if nv, ok := varMap(v); ok {
			d.LevelMap[l] = c.m.varLevel[nv]
		}
	}

	// Merge the old values with the dirty ones, ascending: a dirty value
	// takes its compiled block (dropped when empty), every other old value
	// its old block.
	type link struct {
		val  engine.Value
		from int32  // index in the old record, -1 for compiled blocks
		root NodeID // compiled: standalone block; copied: old chain root
	}
	links := make([]link, 0, len(oldRec.Values)+len(dirty))
	oi, di := 0, 0
	for oi < len(oldRec.Values) || di < len(dirty) {
		cmp := -1 // old value first
		if oi == len(oldRec.Values) {
			cmp = 1
		} else if di < len(dirty) {
			cmp = oldRec.Values[oi].Compare(dirty[di])
		}
		if cmp < 0 {
			links = append(links, link{val: oldRec.Values[oi], from: int32(oi), root: oldRec.Roots[oi]})
			oi++
			continue
		}
		if cmp == 0 {
			oi++ // the old block at a dirty value is superseded
		}
		if len(subs[di].Disjuncts) > 0 {
			d.Stats.Recompiled++
			switch compiled[di] {
			case False: // empty block
			case True:
				return nil, nil // constant block: u is a tautology, no chain
			default:
				links = append(links, link{val: dirty[di], from: -1, root: compiled[di]})
			}
		}
		di++
	}

	rec := &BlockRecord{U: u, HasSep: true, Sep: sep,
		Values: make([]engine.Value, len(links)), Roots: make([]NodeID, len(links))}
	d.Rec, d.From = rec, make([]int32, len(links))
	d.Stats.Blocks = len(links)
	next := True
	for i := len(links) - 1; i >= 0; i-- {
		ln := links[i]
		var r NodeID
		if ln.from < 0 {
			if r, ok = c.hookBlock(ln.root, next); !ok {
				return nil, nil
			}
		} else {
			stop := False // no internal node: the last old block exits to True only
			if int(ln.from)+1 < len(oldRec.Roots) {
				stop = oldRec.Roots[ln.from+1]
			}
			before := len(c.m.nodes)
			if r, ok = c.copyBlock(old, ln.root, stop, next, d); !ok {
				return nil, nil
			}
			d.Stats.Reused++
			d.Stats.Spliced += len(c.m.nodes) - before
		}
		rec.Values[i], rec.Roots[i], d.From[i] = ln.val, r, ln.from
		next = r
	}
	d.Root = next
	return d, nil
}

// compileBlocks compiles the given per-value sub-queries to standalone block
// roots in the main manager (False for empty sub-queries), sequentially or
// on the parallel worker pool.
func (c *compiler) compileBlocks(subs []ucq.UCQ, est []int) ([]NodeID, error) {
	roots := make([]NodeID, len(subs))
	if workers := c.opts.workers(); workers > 1 && len(subs) > 1 {
		results, err := c.parallelBlocks(subs, est, workers)
		if err != nil {
			return nil, err
		}
		for i, r := range results {
			if r.m != nil {
				roots[i] = c.m.Import(r.m, r.root)
			}
		}
		return roots, nil
	}
	for i := range subs {
		if len(subs[i].Disjuncts) == 0 {
			continue
		}
		if err := c.blockCheck(i); err != nil {
			return nil, err
		}
		f, err := c.ucq(subs[i])
		if err != nil {
			return nil, err
		}
		roots[i] = f
	}
	return roots, nil
}

// hookBlock turns a freshly compiled standalone block f (a non-constant
// function in u's polarity) into its link of the ¬u chain: True sinks become
// False, False sinks lead on to next. ok is false when the block's variables
// do not all precede next's in the order.
func (c *compiler) hookBlock(f, next NodeID) (NodeID, bool) {
	m := c.m
	if !m.IsTerminal(next) && m.maxLevel[f] >= m.nodes[next].level {
		return False, false
	}
	memo := getNodeMemo(len(m.nodes), false)
	defer putNodeMemo(memo)
	var rec func(NodeID) NodeID
	rec = func(x NodeID) NodeID {
		switch x {
		case False:
			return next
		case True:
			return False
		}
		if r, ok := memo.get(x); ok {
			return r
		}
		n := m.nodes[x]
		r := m.MkNode(n.level, rec(n.lo), rec(n.hi))
		memo.put(x, r)
		return r
	}
	return rec(f), true
}

// copyBlock copies one clean block of the old ¬u chain — the nodes from root
// down to, and excluding, the old successor's root stop — into the fresh
// manager, renaming levels through d.LevelMap and redirecting the block's
// accepting exits (edges to stop, or to True in the old last block) to next.
// d.NodeMap doubles as the memo. ok is false when a variable of the block no
// longer exists or an exit would not descend in the new order.
func (c *compiler) copyBlock(old *Manager, root, stop, next NodeID, d *Delta) (NodeID, bool) {
	m := c.m
	nextLevel := m.nodes[next].level // terminalLevel for True
	ok := true
	var rec func(NodeID) NodeID
	rec = func(x NodeID) NodeID {
		if x == False {
			return False
		}
		if x == True || x == stop {
			return next
		}
		if r := d.NodeMap[x]; r != 0 {
			return r
		}
		n := old.nodes[x]
		nl := d.LevelMap[n.level]
		if nl < 0 || nl >= nextLevel {
			ok = false
			return False
		}
		r := m.MkNode(nl, rec(n.lo), rec(n.hi))
		d.NodeMap[x] = r
		return r
	}
	return rec(root), ok
}

// dirtyValues maps the changed tuples to the separator values whose blocks
// they can affect. A tuple grounding a separator-carrying atom binds the
// separator to the tuple's value at the relation's separator position, so
// only that block sees it; a tuple only reachable through skipped atoms
// (deterministic, negated, ground) cannot be localized and dirties all
// blocks (second return true).
func dirtyValues(openU ucq.UCQ, sep ucq.Separator, skip ucq.AtomSkip, changed []ChangedTuple) (map[engine.Value]bool, bool) {
	dirty := map[engine.Value]bool{}
	for _, ct := range changed {
		for di, d := range openU.Disjuncts {
			for _, a := range d.Atoms {
				if a.Rel != ct.Rel || !atomMayMatch(a, ct.Vals) {
					continue
				}
				pos, ok := sep.RelPos[a.Rel]
				if !skip(a) && ok && atomHasVarAt(a, sep.PerDisjunct[di], pos) {
					dirty[ct.Vals[pos]] = true
				} else {
					return nil, true
				}
			}
		}
	}
	return dirty, false
}

// atomMayMatch reports whether the tuple could ground the atom: matching
// arity and no contradicting constant argument.
func atomMayMatch(a ucq.Atom, vals []engine.Value) bool {
	if len(a.Args) != len(vals) {
		return false
	}
	for i, t := range a.Args {
		if t.IsConst && !t.Const.Equal(vals[i]) {
			return false
		}
	}
	return true
}

// reserve sizes the node store and the unique table for n nodes up front,
// so a bulk copy into a fresh manager does not pay for repeated doubling.
func (m *Manager) reserve(n int) {
	if cap(m.nodes) < n {
		m.nodes = append(make([]node, 0, n), m.nodes...)
		m.maxLevel = append(make([]int32, 0, n), m.maxLevel...)
	}
	m.unique.reserve(m.nodes, n)
}
