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
// separator expansion so a later compile of the same query over a mutated
// database re-derives only the blocks the mutation can have touched. The
// caller keeps the clean blocks — CompileDelta never sees, let alone copies,
// them — and receives the dirty ones standalone, each in the polarity of ¬u,
// the form the MV-index stores: in the chain, block v's rejecting exits go to
// the False terminal and its accepting ones, True in the standalone block,
// to the root of the next block. Correctness rests on two facts:
//
//   - Reduced OBDDs over a fixed order are canonical, so a standalone block
//     is node for node the block a from-scratch compile of ¬u would chain in,
//     with its True sink standing for the next block's root.
//   - A mutation to a tuple carrying separator value v can only change the
//     function of block v: every grounding using the tuple binds the
//     separator to v. Tuples the separator cannot localize (deterministic,
//     negated or ground atoms) force a full recompile.
//
// A disjunct pruned from a block because its probe relation has no tuple at
// that value is identically false there, so probe-set differences at clean
// values never change block functions — reuse needs no probe bookkeeping.

// BlockRecord describes the top-level separator expansion of one compiled
// UCQ: the query, the separator, and — after a full compile, sorted by value
// — the separator values with a non-empty block together with the root of
// the ¬u chain from that block on (Roots[0] is the root of ¬u). HasSep is
// false when the compiled OBDD is not such a chain (no whole-union
// separator, ground disjuncts, a constant block, or an order under which
// blocks interleave); incremental maintenance then falls back to full
// recompilation. An incremental compile needs only U, HasSep and Sep.
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

// Delta is the result of CompileDelta, in a manager of its own over the
// order it was given. A full compile leaves ¬u in Root with its record in
// Rec; an incremental one leaves, per dirty separator value in ascending
// order, the value's standalone block of ¬u — True when the value no longer
// has a block.
type Delta struct {
	M          *Manager
	Full       bool
	Recompiled int // blocks compiled: every block, or the dirty non-empty ones

	Root NodeID
	Rec  *BlockRecord

	Values []engine.Value
	Blocks []NodeID
}

// CompileDelta compiles ¬u over db in a scratch manager of ord (whose order
// the caller derives, e.g. with PatchOrder). With a usable record of the
// previous compile (same query and separator, HasSep) it compiles only the
// blocks of the separator values the changed tuples can affect; otherwise —
// or when a changed tuple cannot be localized to a separator value, or a
// dirty block turns out constant True, making u a tautology — it compiles
// ¬u in full and records it. Whether the dirty blocks fit between their
// clean neighbours is the caller's check: only it holds the neighbours.
func CompileDelta(db *engine.Database, u ucq.UCQ, ord *Manager, opts CompileOptions,
	oldRec *BlockRecord, changed []ChangedTuple) (*Delta, error) {
	m := ord.NewScratch()
	if opts.bounded() {
		m.SetBudget(opts.Ctx, opts.Budget)
		defer m.SetBudget(nil, budget.Budget{})
	}
	c := &compiler{m: m, db: db, opts: opts}
	d := &Delta{M: m}
	var ferr error
	err := budget.Catch(func() {
		// A record of u itself (the same disjunct array, as when one
		// translation's W is recompiled batch after batch) needs no
		// comparison; one of an equal query, say a re-translation's, is
		// compared in full and its separator re-derived.
		own := oldRec != nil && len(oldRec.U.Disjuncts) == len(u.Disjuncts) &&
			(len(u.Disjuncts) == 0 || &oldRec.U.Disjuncts[0] == &u.Disjuncts[0])
		if oldRec != nil && oldRec.HasSep && (own || reflect.DeepEqual(oldRec.U, u)) {
			if ferr = c.dirtyBlocks(u, oldRec.Sep, own, changed, d); ferr != nil || d.Blocks != nil {
				return
			}
		}
		d.Full = true
		if d.Root, d.Rec, ferr = c.ucqRecorded(u); ferr == nil {
			d.Recompiled = len(d.Rec.Roots)
		}
	})
	if err == nil {
		err = ferr
	}
	if err != nil {
		return nil, err
	}
	return d, nil
}

// dirtyBlocks is the incremental body of CompileDelta: it fills d.Values and
// d.Blocks, or leaves d.Blocks nil when the batch needs a full recompile.
// With own set the record is of u itself, whose separator is recSep; else
// the separator is re-derived and must equal it. The handful of dirty
// blocks compile sequentially on the caller — a fan-out costs more in
// goroutine start-up than it could save.
func (c *compiler) dirtyBlocks(u ucq.UCQ, recSep ucq.Separator, own bool, changed []ChangedTuple, d *Delta) error {
	ground, open := c.splitLive(u)
	if len(ground) > 0 || len(open) == 0 || len(recSep.PerDisjunct) != len(open) {
		return nil // not a plain chain, or a separator that does not fit it
	}
	openU := ucq.UCQ{Disjuncts: open}
	sep := recSep
	if !own {
		var ok bool
		if sep, ok = c.chainSep(ground, open); !ok || !reflect.DeepEqual(sep, recSep) {
			return nil
		}
	}
	dirtySet, dirtyAll := dirtyValues(openU, sep, c.detSkip(), changed)
	if dirtyAll {
		return nil
	}
	dirty := make([]engine.Value, 0, len(dirtySet))
	for v := range dirtySet {
		dirty = append(dirty, v)
	}
	sort.Slice(dirty, func(i, j int) bool { return dirty[i].Compare(dirty[j]) < 0 })
	e := &expansion{u: openU, sep: sep, probes: c.sepProbes(openU, sep), domain: dirty}
	blocks := make([]NodeID, len(dirty))
	for i := range dirty {
		blocks[i] = True // no disjunct at this value: the block is gone
		if e.empty(i) {
			continue
		}
		d.Recompiled++
		if err := c.blockCheck(i); err != nil {
			return err
		}
		f, err := c.ucq(e.block(i))
		if err != nil {
			return err
		}
		if f == True {
			return nil // constant block: u is a tautology, no chain
		}
		blocks[i] = c.m.Not(f)
	}
	d.Values, d.Blocks = dirty, blocks
	return nil
}

// ucqRecorded compiles ¬u, mirroring ucq()'s top level (simplify, R4 ground
// split) but, when ChainSeparator finds a separator, expanding the whole open
// union by it first — above the R1 union-group split the plain compiler
// prefers — which yields
// the same canonical OBDD (possibly via a different construction order)
// while making every block individually addressable. The record captures
// the per-value chain roots when the result is a plain chain.
func (c *compiler) ucqRecorded(u ucq.UCQ) (NodeID, *BlockRecord, error) {
	rec := &BlockRecord{U: u}
	ground, open := c.splitLive(u)
	sep, chained := c.chainSep(ground, open)
	results := make([]NodeID, 0, len(ground)+1)
	for _, d := range ground {
		f, err := c.groundCQ(d)
		if err != nil {
			return False, nil, err
		}
		results = append(results, f)
	}
	var domain []engine.Value
	var chain []NodeID
	if len(open) > 0 {
		openU := ucq.UCQ{Disjuncts: open}
		var f NodeID
		var err error
		if chained {
			e := c.sepExpand(openU, sep)
			domain = e.domain
			chain = make([]NodeID, len(domain))
			f, err = c.blockChain(e, chain)
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
	if chained && !c.chainBroken {
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

// ChainSeparator derives the separator a recorded compile of ¬u over db
// expands its chain by, the one its BlockRecord holds: u's live disjuncts
// must all be open (none ground) and share a separator found with db's
// deterministic relations skipped. ok is false when ¬u compiles to no chain.
func ChainSeparator(db *engine.Database, u ucq.UCQ) (sep ucq.Separator, ok bool) {
	c := &compiler{db: db}
	return c.chainSep(c.splitLive(u))
}

// chainSep is ChainSeparator over u's live disjuncts, split.
func (c *compiler) chainSep(ground, open []ucq.CQ) (ucq.Separator, bool) {
	if len(ground) > 0 || len(open) == 0 {
		return ucq.Separator{}, false
	}
	return ucq.UCQ{Disjuncts: open}.FindSeparatorSkip(c.detSkip())
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
