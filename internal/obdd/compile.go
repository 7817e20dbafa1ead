package obdd

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"mvdb/internal/budget"
	"mvdb/internal/engine"
	"mvdb/internal/lineage"
	"mvdb/internal/ucq"
)

// CompileOptions tunes the ConOBDD construction.
type CompileOptions struct {
	// FromLineage skips the structural recursion entirely: the query's
	// lineage DNF is computed and synthesized term by term with Apply. This
	// is the CUDD baseline of Figure 8 ("CUDD starts with some order Π and
	// synthesizes the OBDD traversing Φ recursively"); the resulting OBDD
	// is identical, construction is superlinear.
	FromLineage bool
	// Ctx, when non-nil, is polled periodically during compilation (at every
	// separator block boundary and every ~1k node allocations); a done
	// context aborts the compile with an error wrapping budget.ErrCanceled.
	Ctx context.Context
	// Budget bounds the compilation's resources: MaxNodes caps total node
	// allocation (across the target manager and every parallel worker's
	// scratch manager) and Deadline is a wall-clock cutoff. Violations abort
	// with an error wrapping budget.ErrBudgetExceeded (nodes) or
	// budget.ErrCanceled (deadline). MaxPairs does not apply to compilation.
	Budget budget.Budget
	// Order, when non-nil, overrides the static Π order with a learned
	// variable order (e.g. one persisted from an earlier sifting pass). It
	// must be a permutation of exactly the database's tuple variables;
	// Compile fails otherwise. CompileDelta ignores it: it compiles under
	// the order of the manager it is given (see PatchOrder), learned or not.
	Order []int

	// blockHook, when set, runs before each per-separator-value block is
	// compiled (sequentially or on a worker), receiving the block index; a
	// non-nil return aborts the compile with that error. Test-only fault
	// injection: deterministically failing or stalling at the Nth block
	// exercises cancellation and error paths mid-compile.
	blockHook func(block int) error
}

// bounded reports whether compilation must arm the manager.
func (o CompileOptions) bounded() bool {
	return o.Ctx != nil || !o.Budget.IsZero()
}

// CompileStats reports how the construction proceeded.
type CompileStats struct {
	ConcatSteps  int // independent combinations done by concatenation
	SynthSteps   int // combinations done by Apply synthesis
	LineageFalls int // sub-queries compiled from raw lineage (inversions)
}

// Add accumulates another stats value.
func (s *CompileStats) Add(o CompileStats) {
	s.ConcatSteps += o.ConcatSteps
	s.SynthSteps += o.SynthSteps
	s.LineageFalls += o.LineageFalls
}

// Compile builds the OBDD of the Boolean UCQ u over db with the variable
// order Π induced by pi, creating a fresh Manager. It implements ConOBDD
// (Section 4.2): concatenate wherever sub-OBDDs are independent and ordered,
// synthesize otherwise, and fall back to compiling the raw lineage for
// sub-queries with inversions.
func Compile(db *engine.Database, u ucq.UCQ, pi Perm, opts CompileOptions) (*Manager, NodeID, CompileStats, error) {
	if err := pi.Validate(db); err != nil {
		return nil, False, CompileStats{}, err
	}
	order, err := compileOrder(db, pi, opts)
	if err != nil {
		return nil, False, CompileStats{}, err
	}
	m := NewManager(order)
	f, stats, err := CompileWith(m, db, u, opts)
	if err != nil {
		return nil, False, stats, err
	}
	return m, f, stats, nil
}

// compileOrder resolves the variable order for a fresh compile: the static Π
// order, unless opts.Order overrides it with a learned order over exactly
// the same variable set.
func compileOrder(db *engine.Database, pi Perm, opts CompileOptions) ([]int, error) {
	static := TupleOrder(db, pi)
	if opts.Order == nil {
		return static, nil
	}
	if len(opts.Order) != len(static) {
		return nil, fmt.Errorf("obdd: CompileOptions.Order has %d variables, want %d", len(opts.Order), len(static))
	}
	set := make(map[int]struct{}, len(static))
	for _, v := range static {
		set[v] = struct{}{}
	}
	for _, v := range opts.Order {
		if _, ok := set[v]; !ok {
			return nil, fmt.Errorf("obdd: CompileOptions.Order names variable %d, which is not a tuple variable of the database", v)
		}
		delete(set, v)
	}
	return append([]int(nil), opts.Order...), nil
}

// CompileWith compiles into an existing manager, so a query OBDD can share
// the order (and node store) of a previously compiled view OBDD. With a
// context or budget set, the manager is armed for the duration of the call
// and disarmed before returning, so a successful compile leaves the manager
// free for the frozen read path.
func CompileWith(m *Manager, db *engine.Database, u ucq.UCQ, opts CompileOptions) (NodeID, CompileStats, error) {
	c := &compiler{m: m, db: db, opts: opts}
	if opts.bounded() {
		m.SetBudget(opts.Ctx, opts.Budget)
		defer m.SetBudget(nil, budget.Budget{})
	}
	var f NodeID
	var ferr error
	err := budget.Catch(func() {
		if opts.FromLineage {
			lin, lerr := ucq.EvalBoolean(db, u)
			if lerr != nil {
				ferr = lerr
				return
			}
			c.stats.LineageFalls++
			f = c.BuildDNF(lin)
			return
		}
		f, ferr = c.ucq(u)
	})
	if err == nil {
		err = ferr
	}
	if err != nil {
		return False, c.stats, err
	}
	return f, c.stats, nil
}

type compiler struct {
	m     *Manager
	db    *engine.Database
	opts  CompileOptions
	stats CompileStats

	colCache map[string][]engine.Value // "rel\x00pos" -> distinct column values

	// chainBroken is set by a recorded blockChain when some link of the
	// chain is not a concatenation (see prepend).
	chainBroken bool

	// worker marks a parallel worker's private compiler: its blocks compile
	// sequentially, so the fan-out never nests.
	worker bool

	// groundCQ scratch; each parallel worker owns a private compiler, so the
	// buffers are never shared across goroutines.
	valsBuf   []engine.Value
	levelsBuf []int32
}

// columnValues returns the distinct values of one relation column, cached
// across the whole compilation (separator recursion revisits the same
// columns at every level).
func (c *compiler) columnValues(rel *engine.Relation, pos int) []engine.Value {
	key := rel.Name + "\x00" + string(rune(pos))
	if c.colCache == nil {
		c.colCache = map[string][]engine.Value{}
	}
	if vs, ok := c.colCache[key]; ok {
		return vs
	}
	seen := make(map[engine.Value]bool, len(rel.Tuples))
	for _, t := range rel.Tuples {
		seen[t.Vals[pos]] = true
	}
	out := make([]engine.Value, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	c.colCache[key] = out
	return out
}

// ucq compiles a Boolean UCQ.
func (c *compiler) ucq(u ucq.UCQ) (NodeID, error) {
	// Simplify disjuncts: evaluate fully-constant predicates now.
	var live []ucq.CQ
	for _, d := range u.Disjuncts {
		if sd, ok := simplifyCQ(d); ok {
			live = append(live, sd)
		}
	}
	if len(live) == 0 {
		return False, nil
	}
	u = ucq.UCQ{Disjuncts: live}

	// Split off ground disjuncts (R4 at the union level).
	var ground, open []ucq.CQ
	for _, d := range u.Disjuncts {
		if !d.HasVars() {
			ground = append(ground, d)
		} else {
			open = append(open, d)
		}
	}
	results := make([]NodeID, 0, len(ground)+4)
	for _, d := range ground {
		f, err := c.groundCQ(d)
		if err != nil {
			return False, err
		}
		results = append(results, f)
	}
	if len(open) > 0 {
		f, err := c.openUCQ(ucq.UCQ{Disjuncts: open})
		if err != nil {
			return False, err
		}
		results = append(results, f)
	}
	return c.combine(results, false), nil
}

// openUCQ compiles a UCQ whose every disjunct has variables.
func (c *compiler) openUCQ(u ucq.UCQ) (NodeID, error) {
	// R1: independent unions (no shared relation symbols) concatenate.
	if groups := u.UnionGroups(); len(groups) > 1 {
		results := make([]NodeID, 0, len(groups))
		for _, g := range groups {
			f, err := c.ucq(g)
			if err != nil {
				return False, err
			}
			results = append(results, f)
		}
		return c.combine(results, false), nil
	}

	// R2: a single CQ splits into variable-independent components.
	if len(u.Disjuncts) == 1 {
		comps := u.Disjuncts[0].Components()
		if len(comps) > 1 {
			results := make([]NodeID, 0, len(comps))
			for _, comp := range comps {
				f, err := c.ucq(ucq.UCQ{Disjuncts: []ucq.CQ{comp}})
				if err != nil {
					return False, err
				}
				results = append(results, f)
			}
			return c.combine(results, true), nil
		}
	}

	// R3: eliminate a separator variable by expanding over its active
	// domain; per-value blocks concatenate when the order Π groups them.
	// Deterministic atoms carry no Boolean variables, so the separator only
	// needs to cover the probabilistic atoms (DBLP's W has exactly this
	// shape: aid1 occurs in NV/Advisor/Student but not in Wrote or Pub).
	if sep, ok := u.FindSeparatorSkip(c.detSkip()); ok {
		return c.blockChain(c.sepExpand(u, sep), nil)
	}

	// Fallback: the sub-query has an inversion; compile its lineage by
	// synthesis (what a generic OBDD package would do for the whole query).
	c.stats.LineageFalls++
	lin, err := ucq.EvalBoolean(c.db, u)
	if err != nil {
		return False, err
	}
	return c.BuildDNF(lin), nil
}

// sepProbe is one disjunct's probe for a separator expansion: a probabilistic
// atom carrying the separator, whose relation column enumerates the values at
// which the disjunct can be true. rel is nil when the disjunct has no such
// atom (cannot happen for true separators).
type sepProbe struct {
	rel *engine.Relation
	pos int
	a   ucq.Atom
}

// sepProbes picks, for each disjunct, the first non-skipped atom carrying
// the separator variable.
func (c *compiler) sepProbes(u ucq.UCQ, sep ucq.Separator) []sepProbe {
	skip := c.detSkip()
	probes := make([]sepProbe, len(u.Disjuncts))
	for di, d := range u.Disjuncts {
		for _, a := range d.Atoms {
			if skip(a) {
				continue
			}
			if !atomHasVarAt(a, sep.PerDisjunct[di], sep.RelPos[a.Rel]) {
				continue
			}
			probes[di] = sepProbe{rel: c.db.Relation(a.Rel), pos: sep.RelPos[a.Rel], a: a}
			break
		}
	}
	return probes
}

// expansion is the R3 expansion of a separator: one independent block per
// value of its domain (Prop. 1), each instantiated only when it is compiled,
// so no more than the blocks in flight hold their sub-queries.
type expansion struct {
	u      ucq.UCQ
	sep    ucq.Separator
	probes []sepProbe
	domain []engine.Value
}

// live reports whether disjunct di can be true in block i: its probe has a
// tuple at the block's value. A disjunct that cannot is left out.
func (e *expansion) live(i, di int) bool {
	p := e.probes[di]
	return p.rel == nil || p.rel.Match(p.pos, e.domain[i]).Len() > 0
}

// block instantiates the sub-query of block i.
func (e *expansion) block(i int) ucq.UCQ {
	var sub ucq.UCQ
	for di, d := range e.u.Disjuncts {
		if e.live(i, di) {
			sub.Disjuncts = append(sub.Disjuncts, d.Subst1(e.sep.PerDisjunct[di], e.domain[i]))
		}
	}
	return sub
}

// empty reports whether block i has no disjunct.
func (e *expansion) empty(i int) bool {
	for di := range e.u.Disjuncts {
		if e.live(i, di) {
			return false
		}
	}
	return true
}

// sepExpand prepares the R3 expansion of a separator: the sorted active
// domain, whose per-value sub-queries are the blocks.
func (c *compiler) sepExpand(u ucq.UCQ, sep ucq.Separator) *expansion {
	// The separator domain of a disjunct is the set of values at its probe's
	// separator column — narrowed by the probe's other constant-bound columns
	// through the hash index when possible (crucial in nested projections:
	// the inner domain is then the current block's tuples, not the whole
	// column). Values with no matching tuple in some disjunct prune that
	// disjunct.
	probes := c.sepProbes(u, sep)
	domainSet := map[engine.Value]bool{}
	for di, d := range u.Disjuncts {
		p := probes[di]
		if p.rel == nil {
			// No probe; fall back to the full column scans of every kept atom.
			for _, v := range c.separatorDomain(ucq.UCQ{Disjuncts: []ucq.CQ{d}}, sep) {
				domainSet[v] = true
			}
			continue
		}
		// Candidate tuples: narrowed by the first constant-bound column
		// other than the separator's, else the (cached) full column.
		narrowed := false
		for i, t := range p.a.Args {
			if i == p.pos || !t.IsConst {
				continue
			}
			m := p.rel.Match(i, t.Const)
			for ti := m.First(); ti >= 0; ti = m.Next(ti) {
				domainSet[p.rel.Tuples[ti].Vals[p.pos]] = true
			}
			narrowed = true
			break
		}
		if !narrowed {
			for _, v := range c.columnValues(p.rel, p.pos) {
				domainSet[v] = true
			}
		}
	}
	domain := make([]engine.Value, 0, len(domainSet))
	for v := range domainSet {
		domain = append(domain, v)
	}
	sort.Slice(domain, func(i, j int) bool { return domain[i].Compare(domain[j]) < 0 })
	return &expansion{u: u, sep: sep, probes: probes, domain: domain}
}

// blockChain compiles the per-separator-value blocks and ORs them into the
// descending chain. With more than one non-empty block and more than one
// processor the blocks compile on GOMAXPROCS workers (parallelBlocks);
// otherwise, and inside a worker, they compile in a sequential loop — the
// reference both paths agree with. When chain is non-nil it receives, for
// each non-empty block, the root of the chain from that block on (chain[i]
// stays False for empty blocks) — the per-value handle incremental
// maintenance records; c.chainBroken reports whether some link was not a
// plain concatenation.
func (c *compiler) blockChain(e *expansion, chain []NodeID) (NodeID, error) {
	var nonEmpty []int
	for i := range e.domain {
		if !e.empty(i) {
			nonEmpty = append(nonEmpty, i)
		}
	}
	if workers := min(runtime.GOMAXPROCS(0), len(nonEmpty)); workers > 1 && !c.worker {
		roots, err := c.parallelBlocks(e, nonEmpty, workers)
		if err != nil {
			return False, err
		}
		// Merge: import each block into the main manager and prepend it to
		// the chain, deepest block first (identical to the sequential loop).
		acc := False
		for k := len(nonEmpty) - 1; k >= 0; k-- {
			acc = c.prepend(c.m.Import(roots[k].m, roots[k].root), acc, nonEmpty[k], chain)
		}
		return acc, nil
	}
	// Iterate in descending order so each new block is prepended to the
	// accumulated chain: OrDisjoint(block, acc) costs O(|block|).
	acc := False
	for k := len(nonEmpty) - 1; k >= 0; k-- {
		i := nonEmpty[k]
		if err := c.blockCheck(i); err != nil {
			return False, err
		}
		block, err := c.ucq(e.block(i))
		if err != nil {
			return False, err
		}
		acc = c.prepend(block, acc, i, chain)
	}
	return acc, nil
}

// prepend ORs block i onto the front of the accumulated chain and, when the
// caller records the chain, notes the new chain root. The record is only
// usable for splicing when every link is a concatenation of a non-constant
// block in front of the rest.
func (c *compiler) prepend(block, acc NodeID, i int, chain []NodeID) NodeID {
	if block == False {
		return acc
	}
	if chain != nil && (block == True || !c.m.CanConcat(block, acc)) {
		c.chainBroken = true
	}
	acc = c.or2(block, acc)
	if chain != nil {
		chain[i] = acc
	}
	return acc
}

// blockResult is one block compiled by a parallel worker: its root in the
// worker's scratch manager.
type blockResult struct {
	m    *Manager
	root NodeID
	err  error
}

// parallelBlocks compiles the non-empty blocks e.block(blocks[k]) concurrently
// and returns their results in the order of blocks. Each worker owns a
// scratch Manager (hash-consing tables are not shared across goroutines) and
// a private compiler, and pulls one block at a time from a shared atomic
// counter. The owner then imports the finished blocks into the main manager
// in the same descending order as the sequential path, so the resulting
// OBDD — and the compile statistics — are identical to the sequential loop.
func (c *compiler) parallelBlocks(e *expansion, blocks []int, workers int) ([]blockResult, error) {
	results := make([]blockResult, len(blocks))
	workerStats := make([]CompileStats, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// The scratch manager inherits the owner's budget arming (shared
			// allocation counter), so MaxNodes bounds the whole compile.
			wc := &compiler{m: c.m.NewScratch(), db: c.db, opts: c.opts, worker: true}
			for {
				k := int(next.Add(1)) - 1
				if k >= len(blocks) {
					break
				}
				i := blocks[k]
				// Budget violations panic out of the recursion; convert them
				// to errors here — a panic may not escape the goroutine.
				var root NodeID
				var cerr error
				err := budget.Catch(func() {
					if cerr = wc.blockCheck(i); cerr != nil {
						return
					}
					root, cerr = wc.ucq(e.block(i))
				})
				if err == nil {
					err = cerr
				}
				results[k] = blockResult{m: wc.m, root: root, err: err}
				if err != nil {
					break
				}
			}
			workerStats[w] = wc.stats
		}(w)
	}
	wg.Wait()
	for _, s := range workerStats {
		c.stats.Add(s)
	}
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
	}
	return results, nil
}

// blockCheck runs the per-block cancellation point (and the fault-injection
// hook) before a separator block is compiled. The nested recursion inside a
// block only hits the coarser allocation-stride polls, so this is the
// deterministic cancellation point of the compile loops.
func (c *compiler) blockCheck(block int) error {
	if c.opts.blockHook != nil {
		if err := c.opts.blockHook(block); err != nil {
			return err
		}
	}
	if !c.opts.bounded() {
		return nil
	}
	return budget.Check(c.opts.Ctx, c.opts.Budget.Deadline)
}

// groundCQ compiles a conjunct with no variables: a conjunction of tuple
// lookups (R4).
func (c *compiler) groundCQ(d ucq.CQ) (NodeID, error) {
	for _, p := range d.Preds {
		if !p.L.IsConst || !p.R.IsConst {
			return False, fmt.Errorf("obdd: predicate %s in ground conjunct has variables", p)
		}
		if !p.EvalBound(p.L.Const, p.R.Const) {
			return False, nil
		}
	}
	levels := c.levelsBuf[:0]
	for _, a := range d.Atoms {
		rel := c.db.Relation(a.Rel)
		if rel == nil {
			return False, fmt.Errorf("obdd: unknown relation %s", a.Rel)
		}
		if len(a.Args) != rel.Arity() {
			return False, fmt.Errorf("obdd: relation %s has arity %d, atom has %d arguments", a.Rel, rel.Arity(), len(a.Args))
		}
		if cap(c.valsBuf) < len(a.Args) {
			c.valsBuf = make([]engine.Value, len(a.Args))
		}
		vals := c.valsBuf[:len(a.Args)]
		for i, t := range a.Args {
			vals[i] = t.Const
		}
		ti := rel.Lookup(vals)
		if a.Negated {
			if !rel.Deterministic {
				return False, fmt.Errorf("obdd: negation on probabilistic relation %s", a.Rel)
			}
			if ti >= 0 {
				return False, nil
			}
			continue
		}
		if ti < 0 {
			return False, nil
		}
		t := rel.Tuples[ti]
		if t.Var == 0 {
			continue // deterministic tuple: always true
		}
		l, ok := c.m.levelOf(t.Var)
		if !ok {
			return False, fmt.Errorf("obdd: tuple variable %d of %s is not in the manager's order", t.Var, a.Rel)
		}
		levels = append(levels, l)
	}
	c.levelsBuf = levels // keep any growth for the next ground conjunct
	if len(levels) == 0 {
		return True, nil
	}
	// Build the AND chain bottom-up; this is a pure concatenation.
	sort.Slice(levels, func(i, j int) bool { return levels[i] > levels[j] })
	acc := True
	var prev int32 = -1
	for _, l := range levels {
		if l == prev {
			continue // duplicate variable in the conjunct
		}
		prev = l
		acc = c.m.MkNode(l, False, acc)
	}
	c.stats.ConcatSteps += len(levels) - 1
	return acc, nil
}

// combine folds sub-results with OR (and=false) or AND (and=true), using
// concatenation whenever spans permit. Results are sorted by root level so
// that chains concatenate from the deepest block upward.
func (c *compiler) combine(results []NodeID, and bool) NodeID {
	if len(results) == 0 {
		if and {
			return True
		}
		return False
	}
	sort.Slice(results, func(i, j int) bool {
		return c.m.NodeLevel(results[i]) < c.m.NodeLevel(results[j])
	})
	acc := results[len(results)-1]
	for i := len(results) - 2; i >= 0; i-- {
		if and {
			acc = c.and2(results[i], acc)
		} else {
			acc = c.or2(results[i], acc)
		}
	}
	return acc
}

// detSkip ignores atoms that cannot contribute Boolean variables: negated
// or ground atoms and atoms over deterministic relations.
func (c *compiler) detSkip() ucq.AtomSkip {
	return ucq.SkipDeterministic(func(rel string) bool {
		r := c.db.Relation(rel)
		return r != nil && r.Deterministic
	}, ucq.SkipGround)
}

func (c *compiler) or2(f, g NodeID) NodeID {
	if f == False {
		return g
	}
	if g == False {
		return f
	}
	if c.m.CanConcat(f, g) {
		c.stats.ConcatSteps++
		return c.m.OrDisjoint(f, g)
	}
	if c.m.CanConcat(g, f) {
		c.stats.ConcatSteps++
		return c.m.OrDisjoint(g, f)
	}
	c.stats.SynthSteps++
	return c.m.Or(f, g)
}

func (c *compiler) and2(f, g NodeID) NodeID {
	if f == True {
		return g
	}
	if g == True {
		return f
	}
	if c.m.CanConcat(f, g) {
		c.stats.ConcatSteps++
		return c.m.AndDisjoint(f, g)
	}
	if c.m.CanConcat(g, f) {
		c.stats.ConcatSteps++
		return c.m.AndDisjoint(g, f)
	}
	c.stats.SynthSteps++
	return c.m.And(f, g)
}

// separatorDomain collects the active domain of the separator: the distinct
// values found at the separator's position in every relation it touches,
// sorted ascending (the order Π groups tuples by these values).
func (c *compiler) separatorDomain(u ucq.UCQ, sep ucq.Separator) []engine.Value {
	seen := map[engine.Value]bool{}
	for rel, pos := range sep.RelPos {
		r := c.db.Relation(rel)
		if r == nil {
			continue
		}
		for _, t := range r.Tuples {
			seen[t.Vals[pos]] = true
		}
	}
	out := make([]engine.Value, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// atomHasVarAt reports whether the atom carries the variable at the given
// argument position.
func atomHasVarAt(a ucq.Atom, v string, pos int) bool {
	return pos >= 0 && pos < len(a.Args) && !a.Args[pos].IsConst && a.Args[pos].Var == v
}

// simplifyCQ drops fully-constant predicates, returning ok=false when one is
// violated (the conjunct is unsatisfiable).
func simplifyCQ(d ucq.CQ) (ucq.CQ, bool) {
	constant := false
	for _, p := range d.Preds {
		if p.L.IsConst && p.R.IsConst {
			if !p.EvalBound(p.L.Const, p.R.Const) {
				return ucq.CQ{}, false
			}
			constant = true
		}
	}
	if !constant {
		return d, true // nothing to drop; share the predicate slice
	}
	out := ucq.CQ{Atoms: d.Atoms, Preds: make([]ucq.Pred, 0, len(d.Preds)-1)}
	for _, p := range d.Preds {
		if p.L.IsConst && p.R.IsConst {
			continue
		}
		out.Preds = append(out.Preds, p)
	}
	return out, true
}

// BuildDNF synthesizes the OBDD of a monotone DNF with Apply, folding terms
// sequentially — the behaviour of a generic OBDD package handed a lineage
// expression.
func (c *compiler) BuildDNF(d lineage.DNF) NodeID {
	acc := False
	for _, term := range d {
		levels := make([]int32, 0, len(term))
		for _, v := range term {
			l, ok := c.m.levelOf(v)
			if !ok {
				panic(fmt.Sprintf("obdd: lineage variable %d not in order", v))
			}
			levels = append(levels, l)
		}
		sort.Slice(levels, func(i, j int) bool { return levels[i] > levels[j] })
		t := True
		var prev int32 = -1
		for _, l := range levels {
			if l == prev {
				continue
			}
			prev = l
			t = c.m.MkNode(l, False, t)
		}
		c.stats.SynthSteps++
		acc = c.m.Or(acc, t)
	}
	return acc
}

// BuildDNF constructs an OBDD for a DNF directly on a manager, for callers
// outside the ConOBDD pipeline (e.g. compiling a query's lineage against a
// precompiled view order).
func BuildDNF(m *Manager, d lineage.DNF) NodeID {
	c := &compiler{m: m}
	return c.BuildDNF(d)
}
