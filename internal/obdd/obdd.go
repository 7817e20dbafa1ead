// Package obdd implements Ordered Binary Decision Diagrams with the
// operations the paper needs: hash-consed reduced nodes, generic Apply
// synthesis (the CUDD-style baseline), the concatenation fast path for
// independent sub-OBDDs (Section 4.2), probability computation under
// possibly-negative tuple probabilities (Section 3.3), the tuple order Π
// induced by attribute permutations π, and the ConOBDD compilation algorithm
// (rules R1-R4).
//
// The memory layer follows CUDD's design (see DESIGN.md §8): the unique
// table is a custom open-addressing hash set of NodeIDs (table.go), Apply
// results go through a fixed-size direct-mapped computed cache (cache.go),
// and every per-call traversal memo is a dense NodeID-indexed scratch array
// borrowed from a sync.Pool instead of a freshly allocated Go map.
package obdd

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"mvdb/internal/budget"
)

// NodeID identifies a node in a Manager. The two terminals have fixed ids.
// Ids are dense: node k is the k-th allocation, so slices indexed by NodeID
// serve as O(1) annotation maps.
type NodeID int32

// Terminal nodes.
const (
	False NodeID = 0
	True  NodeID = 1
)

// terminalLevel sorts terminals below every variable level.
const terminalLevel = math.MaxInt32

type node struct {
	level  int32
	lo, hi NodeID
}

type opKind int8

const (
	opAnd opKind = iota
	opOr
)

// Manager owns the node store for a fixed variable order. Nodes are reduced
// (no node with lo == hi) and hash-consed (structurally unique), so two
// equivalent formulas compile to the same NodeID.
//
// # Concurrency contract
//
// A Manager is not synchronized. Node-creating operations (MkNode, Var,
// Apply synthesis, OrDisjoint, Not, Import, BuildDNF, ...) must run on a
// single goroutine. Once no more nodes are being created — e.g. after an
// MV-index is built — the manager is effectively frozen and every read-only
// operation (NodeLevel, Lo, Hi, MaxLevel, Prob, Eval, Reachable, ...) is
// safe for any number of concurrent callers. Concurrent writers that need
// scratch space (per-query OBDDs, parallel compilation workers) should
// create a private manager over the same order with NewScratch and, when the
// result must live in the shared manager, merge it back with Import on the
// owning goroutine.
type Manager struct {
	nodes    []node
	maxLevel []int32 // highest (deepest) variable level in each node's cone
	unique   uniqueTable
	cache    applyCache

	levelVar []int32 // level -> external variable id
	varLevel []int32 // external variable id -> level, -1 when not in the order

	lim *limits // nil when the manager is unbudgeted
}

// limits arms a manager with the resource envelope of one evaluation. The
// allocation counter is shared (by pointer) with every scratch manager
// derived while armed, so MaxNodes bounds the total allocation of a
// parallel compilation, not each worker separately; tick is manager-local,
// keeping the periodic cancellation poll race-free across workers.
type limits struct {
	ctx      context.Context
	deadline time.Time
	maxNodes int64
	nodes    *atomic.Int64
	tick     int
}

// note records one node allocation and aborts (via budget.Panic, to be
// caught at the package entry point) when the node budget is exhausted,
// polling cancellation and the deadline every stride allocations.
func (l *limits) note() {
	n := l.nodes.Add(1)
	if l.maxNodes > 0 && n > l.maxNodes {
		budget.Panic(budget.Exceeded("obdd node", int(l.maxNodes)))
	}
	l.tick++
	if l.tick&1023 != 0 {
		return
	}
	if err := budget.Check(l.ctx, l.deadline); err != nil {
		budget.Panic(err)
	}
}

// SetBudget arms (or, with nil context and a zero budget, disarms) the
// manager: node-creating operations count allocations against b.MaxNodes
// and periodically poll ctx and b.Deadline, aborting with budget.Panic. The
// caller must run every node-creating operation on an armed manager under
// budget.Catch. Scratch managers created while armed inherit the arming and
// share the allocation counter. Re-arming an already-armed manager keeps
// the shared counter — outstanding scratch managers continue to count into
// the same budget instead of an orphaned one. Arming is a write operation
// under the manager's concurrency contract — never call it while other
// goroutines use the manager.
func (m *Manager) SetBudget(ctx context.Context, b budget.Budget) {
	if ctx == nil && b.IsZero() {
		m.lim = nil
		return
	}
	var ctr *atomic.Int64
	if m.lim != nil {
		ctr = m.lim.nodes
	} else {
		ctr = new(atomic.Int64)
		ctr.Store(int64(len(m.nodes)))
	}
	m.lim = &limits{ctx: ctx, deadline: b.Deadline, maxNodes: int64(b.MaxNodes), nodes: ctr}
}

// Budgeted reports whether the manager is currently armed with a budget or
// cancellation context.
func (m *Manager) Budgeted() bool { return m.lim != nil }

// NewManager creates a manager whose variable order is the given sequence of
// external variable ids, first to last. The apply cache is capped at
// DefaultApplyCacheSize; tune it with SetApplyCacheMax. A negative or
// repeated variable id panics.
func NewManager(order []int) *Manager {
	m, err := newManager(order)
	if err != nil {
		panic(err.Error())
	}
	return m
}

// newManager is NewManager reporting a malformed order as an error.
func newManager(order []int) (*Manager, error) {
	maxVar := -1
	for _, v := range order {
		if v < 0 {
			return nil, fmt.Errorf("obdd: negative variable id %d in order", v)
		}
		if v > maxVar {
			maxVar = v
		}
	}
	m := &Manager{
		nodes:    []node{{level: terminalLevel}, {level: terminalLevel}},
		maxLevel: []int32{-1, -1},
		levelVar: make([]int32, len(order)),
		varLevel: make([]int32, maxVar+1),
	}
	m.unique.init()
	m.cache.init(DefaultApplyCacheSize)
	for v := range m.varLevel {
		m.varLevel[v] = -1
	}
	for i, v := range order {
		m.levelVar[i] = int32(v)
		if m.varLevel[v] >= 0 {
			return nil, fmt.Errorf("obdd: variable %d appears twice in order", v)
		}
		m.varLevel[v] = int32(i)
	}
	return m, nil
}

// levelOf returns the level of an external variable id; ok is false when the
// variable is not in the order.
func (m *Manager) levelOf(v int) (level int32, ok bool) {
	if v < 0 || v >= len(m.varLevel) || m.varLevel[v] < 0 {
		return 0, false
	}
	return m.varLevel[v], true
}

// SetApplyCacheMax caps the direct-mapped apply/computed cache at the given
// number of entries (rounded up to a power of two, 12 bytes each). The cache
// starts small and grows with the node store while Apply runs, so the cap
// only binds on large compilations; it never affects results, only how much
// Apply recomputes. Shrinking below the current size drops existing entries.
func (m *Manager) SetApplyCacheMax(entries int) {
	if entries < applyCacheInitial {
		entries = applyCacheInitial
	}
	max := ceilPow2(entries)
	if max < len(m.cache.keys) {
		m.cache.init(max)
		return
	}
	m.cache.max = max
}

// ApplyCacheStats returns the apply/computed-table hit and miss counts of
// this manager since creation. Reading them follows the manager's
// concurrency contract: safe on a frozen manager or from the goroutine that
// owns node creation (scratch managers accumulate their own counts; callers
// that fan work out across scratch managers aggregate them).
func (m *Manager) ApplyCacheStats() (hits, misses uint64) {
	return m.cache.hits, m.cache.misses
}

// NewScratch creates an empty manager over the same variable order as m,
// sharing m's (immutable) order tables instead of copying them — the cost is
// a few small allocations, independent of the number of variables. The
// scratch manager has its own node store, so building nodes in it never
// mutates m: this is how concurrent queries compile their OBDDs against a
// frozen shared manager, and how parallel compilation workers get private
// node stores. The scratch manager inherits m's apply-cache cap, but its
// cache starts at the initial size and only grows with its own node store.
func (m *Manager) NewScratch() *Manager {
	s := &Manager{
		nodes:    []node{{level: terminalLevel}, {level: terminalLevel}},
		maxLevel: []int32{-1, -1},
		levelVar: m.levelVar,
		varLevel: m.varLevel,
	}
	s.unique.init()
	s.cache.init(m.cache.max)
	if m.lim != nil {
		// Inherit the arming with a private tick but the shared allocation
		// counter: the budget bounds the evaluation, not each manager.
		s.lim = &limits{ctx: m.lim.ctx, deadline: m.lim.deadline, maxNodes: m.lim.maxNodes, nodes: m.lim.nodes}
	}
	return s
}

// SameOrder reports whether two managers use the same variable order.
// Managers related by NewScratch share their order tables and are recognized
// in O(1); unrelated managers are compared element-wise.
func (m *Manager) SameOrder(o *Manager) bool {
	if len(m.levelVar) != len(o.levelVar) {
		return false
	}
	if len(m.levelVar) == 0 || &m.levelVar[0] == &o.levelVar[0] {
		return true
	}
	for i, v := range m.levelVar {
		if o.levelVar[i] != v {
			return false
		}
	}
	return true
}

// Import copies the sub-OBDD rooted at f in src into m, hash-consing the
// nodes into m's store, and returns the corresponding root in m. Both
// managers must use the same variable order (levels then coincide, so no
// re-ordering is needed). The result is structurally identical to f; cost is
// O(|f|). This is the merge step of parallel compilation: workers build
// per-separator-value blocks in scratch managers and the owner imports them.
func (m *Manager) Import(src *Manager, f NodeID) NodeID {
	if src == m {
		return f
	}
	if !m.SameOrder(src) {
		panic("obdd: Import between managers with different variable orders")
	}
	memo := getNodeMemo(len(src.nodes), true)
	defer putNodeMemo(memo)
	var rec func(NodeID) NodeID
	rec = func(x NodeID) NodeID {
		if x <= True {
			return x
		}
		if r, ok := memo.get(x); ok {
			return r
		}
		n := src.nodes[x]
		r := m.MkNode(n.level, rec(n.lo), rec(n.hi))
		memo.put(x, r)
		return r
	}
	return rec(f)
}

// StructEqual reports whether two OBDDs (possibly in different managers) are
// structurally identical: same levels, same external variables at those
// levels, same branching. For reduced ordered BDDs over the same order this
// is exactly semantic equivalence — the equality the parallel-vs-sequential
// compilation tests assert.
func StructEqual(ma *Manager, fa NodeID, mb *Manager, fb NodeID) bool {
	type pair struct{ a, b NodeID }
	memo := map[pair]bool{}
	var rec func(a, b NodeID) bool
	rec = func(a, b NodeID) bool {
		if ma.IsTerminal(a) || mb.IsTerminal(b) {
			return a == b // terminals have fixed ids in every manager
		}
		k := pair{a, b}
		if r, ok := memo[k]; ok {
			return r
		}
		memo[k] = true // assume equal while descending (graphs are acyclic)
		na, nb := ma.nodes[a], mb.nodes[b]
		eq := na.level == nb.level &&
			ma.levelVar[na.level] == mb.levelVar[nb.level] &&
			rec(na.lo, nb.lo) && rec(na.hi, nb.hi)
		memo[k] = eq
		return eq
	}
	return rec(fa, fb)
}

// NumVars returns the number of variables in the order.
func (m *Manager) NumVars() int { return len(m.levelVar) }

// NumNodes returns the total number of nodes allocated (including both
// terminals), a measure of overall memory use.
func (m *Manager) NumNodes() int { return len(m.nodes) }

// Level returns the level of a variable id, or -1 if unknown.
func (m *Manager) Level(v int) int {
	if l, ok := m.levelOf(v); ok {
		return int(l)
	}
	return -1
}

// VarLevels returns the table from external variable id to level (-1 for
// variables not in the order). It is shared, not copied: read-only.
func (m *Manager) VarLevels() []int32 { return m.varLevel }

// VarAtLevel returns the external variable id at the given level.
func (m *Manager) VarAtLevel(level int) int { return int(m.levelVar[level]) }

// NodeLevel returns the level of a node (terminalLevel for terminals).
func (m *Manager) NodeLevel(f NodeID) int32 { return m.nodes[f].level }

// Lo and Hi return a node's children.
func (m *Manager) Lo(f NodeID) NodeID { return m.nodes[f].lo }

// Hi returns the 1-child.
func (m *Manager) Hi(f NodeID) NodeID { return m.nodes[f].hi }

// IsTerminal reports whether f is a terminal.
func (m *Manager) IsTerminal(f NodeID) bool { return f == False || f == True }

// MkNode returns the reduced, hash-consed node (level, lo, hi).
func (m *Manager) MkNode(level int32, lo, hi NodeID) NodeID {
	if lo == hi {
		return lo
	}
	id, slot := m.unique.lookup(m.nodes, level, lo, hi)
	if id != 0 {
		return id
	}
	return m.addNode(level, lo, hi, slot)
}

// addNode appends a new node and registers it in the unique table at the
// slot returned by a failed lookup.
func (m *Manager) addNode(level int32, lo, hi NodeID, slot uint64) NodeID {
	id := NodeID(len(m.nodes))
	if m.lim != nil {
		m.lim.note()
	}
	m.nodes = append(m.nodes, node{level: level, lo: lo, hi: hi})
	ml := level
	if l := m.maxLevel[lo]; l > ml {
		ml = l
	}
	if l := m.maxLevel[hi]; l > ml {
		ml = l
	}
	m.maxLevel = append(m.maxLevel, ml)
	m.unique.insert(m.nodes, id, slot)
	return id
}

// Var returns the node testing the given external variable.
func (m *Manager) Var(v int) NodeID {
	l, ok := m.levelOf(v)
	if !ok {
		panic(fmt.Sprintf("obdd: variable %d not in order", v))
	}
	return m.MkNode(l, False, True)
}

// MaxLevel returns the deepest variable level in f's cone (-1 for
// terminals). Because nodes are ordered, the shallowest level is the root's.
func (m *Manager) MaxLevel(f NodeID) int32 { return m.maxLevel[f] }

// And returns f ∧ g by synthesis (Apply).
func (m *Manager) And(f, g NodeID) NodeID { return m.apply(opAnd, f, g) }

// Or returns f ∨ g by synthesis (Apply).
func (m *Manager) Or(f, g NodeID) NodeID { return m.apply(opOr, f, g) }

func (m *Manager) apply(op opKind, f, g NodeID) NodeID {
	// Terminal cases.
	switch op {
	case opAnd:
		if f == False || g == False {
			return False
		}
		if f == True {
			return g
		}
		if g == True {
			return f
		}
	case opOr:
		if f == True || g == True {
			return True
		}
		if f == False {
			return g
		}
		if g == False {
			return f
		}
	}
	if f == g {
		return f
	}
	if f > g { // canonicalize: both ops are commutative
		f, g = g, f
	}
	key := applyKeyPack(op, f, g)
	if r, ok := m.cache.get(key); ok {
		m.cache.hits++
		return r
	}
	m.cache.misses++
	m.cache.maybeGrow(len(m.nodes))
	nf, ng := m.nodes[f], m.nodes[g]
	var level int32
	var fl, fh, gl, gh NodeID
	switch {
	case nf.level < ng.level:
		level, fl, fh, gl, gh = nf.level, nf.lo, nf.hi, g, g
	case nf.level > ng.level:
		level, fl, fh, gl, gh = ng.level, f, f, ng.lo, ng.hi
	default:
		level, fl, fh, gl, gh = nf.level, nf.lo, nf.hi, ng.lo, ng.hi
	}
	r := m.MkNode(level, m.apply(op, fl, gl), m.apply(op, fh, gh))
	m.cache.put(key, r)
	return r
}

// Not returns the complement of f by swapping terminals.
func (m *Manager) Not(f NodeID) NodeID {
	memo := getNodeMemo(len(m.nodes), false)
	defer putNodeMemo(memo)
	return m.not(f, memo)
}

func (m *Manager) not(f NodeID, memo *nodeMemo) NodeID {
	switch f {
	case False:
		return True
	case True:
		return False
	}
	if r, ok := memo.get(f); ok {
		return r
	}
	n := m.nodes[f]
	r := m.MkNode(n.level, m.not(n.lo, memo), m.not(n.hi, memo))
	memo.put(f, r)
	return r
}

// CanConcat reports whether f ∨ g (or f ∧ g) can be built by concatenation:
// every variable of f strictly precedes every variable of g in the order.
// Terminals concatenate trivially.
func (m *Manager) CanConcat(f, g NodeID) bool {
	if m.IsTerminal(f) || m.IsTerminal(g) {
		return true
	}
	return m.maxLevel[f] < m.nodes[g].level
}

// OrDisjoint builds f ∨ g by redirecting the False sink of f to g. It
// requires CanConcat(f, g); the cost is O(|f|), independent of |g| — the
// concatenation step of Section 4.2.
func (m *Manager) OrDisjoint(f, g NodeID) NodeID {
	if f == False {
		return g
	}
	if f == True || g == False {
		return f
	}
	if !m.CanConcat(f, g) {
		panic("obdd: OrDisjoint on overlapping spans")
	}
	memo := getNodeMemo(len(m.nodes), false)
	defer putNodeMemo(memo)
	return m.replaceSink(f, False, g, memo)
}

// AndDisjoint builds f ∧ g by redirecting the True sink of f to g, under the
// same precondition as OrDisjoint.
func (m *Manager) AndDisjoint(f, g NodeID) NodeID {
	if f == True {
		return g
	}
	if f == False || g == True {
		return f
	}
	if !m.CanConcat(f, g) {
		panic("obdd: AndDisjoint on overlapping spans")
	}
	memo := getNodeMemo(len(m.nodes), false)
	defer putNodeMemo(memo)
	return m.replaceSink(f, True, g, memo)
}

func (m *Manager) replaceSink(f, sink, g NodeID, memo *nodeMemo) NodeID {
	if f == sink {
		return g
	}
	if m.IsTerminal(f) {
		return f
	}
	if r, ok := memo.get(f); ok {
		return r
	}
	n := m.nodes[f]
	r := m.MkNode(n.level, m.replaceSink(n.lo, sink, g, memo), m.replaceSink(n.hi, sink, g, memo))
	memo.put(f, r)
	return r
}

// Prob computes P(f) where probs is indexed by external variable id. It is
// the bottom-up Shannon expansion of Section 4.1 and is valid verbatim for
// negative probabilities. Safe for concurrent callers on a frozen manager —
// the memo is per-call scratch from a pool.
func (m *Manager) Prob(f NodeID, probs []float64) float64 {
	memo := getFloatMemo(len(m.nodes), false)
	defer putFloatMemo(memo)
	return m.prob(f, probs, memo)
}

func (m *Manager) prob(f NodeID, probs []float64, memo *floatMemo) float64 {
	switch f {
	case False:
		return 0
	case True:
		return 1
	}
	if p, ok := memo.get(f); ok {
		return p
	}
	n := m.nodes[f]
	p := probs[m.levelVar[n.level]]
	r := (1-p)*m.prob(n.lo, probs, memo) + p*m.prob(n.hi, probs, memo)
	memo.put(f, r)
	return r
}

// Eval evaluates f under a variable assignment.
func (m *Manager) Eval(f NodeID, assign func(v int) bool) bool {
	for !m.IsTerminal(f) {
		n := m.nodes[f]
		if assign(int(m.levelVar[n.level])) {
			f = n.hi
		} else {
			f = n.lo
		}
	}
	return f == True
}

// Reachable returns all nodes reachable from f, terminals excluded.
func (m *Manager) Reachable(f NodeID) []NodeID {
	seen := getNodeMemo(len(m.nodes), false)
	defer putNodeMemo(seen)
	var out []NodeID
	var walk func(NodeID)
	walk = func(x NodeID) {
		if m.IsTerminal(x) {
			return
		}
		if _, ok := seen.get(x); ok {
			return
		}
		seen.put(x, 0)
		out = append(out, x)
		walk(m.nodes[x].lo)
		walk(m.nodes[x].hi)
	}
	walk(f)
	return out
}

// Size returns the number of internal nodes reachable from f — the paper's
// OBDD size (Figure 7).
func (m *Manager) Size(f NodeID) int { return len(m.Reachable(f)) }

// Width returns the maximum number of reachable nodes labeled with any one
// level (Section 4.1).
func (m *Manager) Width(f NodeID) int {
	perLevel := map[int32]int{}
	w := 0
	for _, id := range m.Reachable(f) {
		l := m.nodes[id].level
		perLevel[l]++
		if perLevel[l] > w {
			w = perLevel[l]
		}
	}
	return w
}

// Support returns the sorted external variable ids appearing in f.
func (m *Manager) Support(f NodeID) []int {
	levels := map[int32]bool{}
	for _, id := range m.Reachable(f) {
		levels[m.nodes[id].level] = true
	}
	out := make([]int, 0, len(levels))
	for l := range levels {
		out = append(out, int(m.levelVar[l]))
	}
	sort.Ints(out)
	return out
}
