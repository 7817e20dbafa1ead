package obdd

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"mvdb/internal/budget"
)

// This file implements Rudell's sifting algorithm for dynamic variable
// reordering. The manager's node store is append-only and hash-consed with
// no deletion, so sifting cannot run in place: Reorder extracts the subgraph
// reachable from the given roots into a private mutable working graph
// (reference-counted nodes, one levelTable per level), performs adjacent-
// level swaps there, and rebuilds a fresh Manager under the improved order.
// The original manager is never mutated, which preserves the frozen-after-
// Build concurrency contract — callers swap the new manager in atomically
// under whatever write lock they already hold.

// ReorderMode selects when dynamic variable reordering runs.
type ReorderMode int

const (
	// ReorderOff keeps the static order Π.
	ReorderOff ReorderMode = iota
	// ReorderOnce runs a single sifting round over every variable.
	ReorderOnce
	// ReorderConverge repeats sifting rounds until the node count stops
	// improving or DefaultMaxRounds is reached.
	ReorderConverge
)

func (mo ReorderMode) String() string {
	switch mo {
	case ReorderOff:
		return "off"
	case ReorderOnce:
		return "once"
	case ReorderConverge:
		return "converge"
	}
	return fmt.Sprintf("ReorderMode(%d)", int(mo))
}

// ParseReorderMode parses the -reorder flag values off | once | converge.
// The empty string means off.
func ParseReorderMode(s string) (ReorderMode, error) {
	switch s {
	case "", "off":
		return ReorderOff, nil
	case "once":
		return ReorderOnce, nil
	case "converge":
		return ReorderConverge, nil
	}
	return ReorderOff, fmt.Errorf("obdd: unknown reorder mode %q (want off, once, or converge)", s)
}

// The sifting bounds, the same for every pass. DefaultMaxGrowth bounds how
// far a variable may be sifted past its best-known position: a directional
// scan stops once the live node count exceeds DefaultMaxGrowth times the
// count at the start of that variable's sift. DefaultMaxRounds caps
// converge-mode rounds; once mode always runs exactly one round.
const (
	DefaultMaxGrowth = 1.2
	DefaultMaxRounds = 4
)

// ReorderOptions configures a sifting pass.
type ReorderOptions struct {
	// Mode selects off/once/converge; Reorder with ReorderOff is a no-op
	// that returns the manager unchanged.
	Mode ReorderMode
	// Windows restricts sifting to half-open level ranges [a, b): a variable
	// never leaves the window containing its starting level, and variables
	// outside every window are not moved. The MV-index uses one window per
	// separator block so sifting cannot destroy the chain factorization.
	// Empty means one window spanning the whole order.
	Windows [][2]int
	// Ctx and Budget bound the search like compilation: cancellation and the
	// deadline are polled between swaps, and Budget.MaxNodes caps the live
	// node count of the working graph. On abort the original manager is
	// untouched.
	Ctx    context.Context
	Budget budget.Budget
}

// ReorderStats reports what one sifting pass did.
type ReorderStats struct {
	// NodesBefore and NodesAfter count internal nodes reachable from the
	// roots before and after sifting.
	NodesBefore int `json:"nodes_before"`
	NodesAfter  int `json:"nodes_after"`
	// Rounds is the number of sifting rounds run, Sifted the number of
	// variable sifts, Swaps the total adjacent-level swaps (including undo
	// and placement moves).
	Rounds int `json:"rounds"`
	Sifted int `json:"sifted_vars"`
	Swaps  int `json:"swaps"`
	// Duration is the wall-clock time of the whole pass, rebuild included.
	Duration time.Duration `json:"duration_ns"`
}

// Order returns a copy of the manager's variable order (level to external
// variable id). A manager produced by Reorder reports the learned order,
// which callers persist and compile under again with NewManager(order).
func (m *Manager) Order() []int {
	out := make([]int, len(m.levelVar))
	for l, v := range m.levelVar {
		out[l] = int(v)
	}
	return out
}

// Reorder runs Rudell sifting over the subgraph reachable from roots and
// returns a fresh manager under the improved variable order together with
// the translated roots. The input manager is not modified; on error (budget
// exhaustion, cancellation, malformed windows) it returns the error and no
// manager. Variables keep their external ids — only their levels change — so
// probability vectors indexed by variable id remain valid, and the result
// represents exactly the same Boolean functions (the property tests assert
// Prob equality to 1e-12).
//
// Sifting is deterministic: the same manager, roots, and options always
// produce the same order and the same NodeIDs, so the parallel-compile
// NodeID-equivalence guarantee survives a post-compile sift.
func Reorder(m *Manager, roots []NodeID, opts ReorderOptions) (*Manager, []NodeID, ReorderStats, error) {
	start := time.Now()
	var st ReorderStats
	if opts.Mode == ReorderOff {
		return m, append([]NodeID(nil), roots...), st, nil
	}
	maxRounds := DefaultMaxRounds
	if opts.Mode == ReorderOnce {
		maxRounds = 1
	}
	wins, err := normalizeWindows(opts.Windows, len(m.levelVar))
	if err != nil {
		return nil, nil, st, err
	}

	s, rootIDs := newSifter(m, roots, opts)
	st.NodesBefore = s.count

	for round := 1; round <= maxRounds; round++ {
		st.Rounds = round
		roundStart := s.count
		sifted, err := s.round(wins)
		st.Sifted += sifted
		st.Swaps = s.swaps
		if err != nil {
			return nil, nil, st, err
		}
		if opts.Mode != ReorderConverge || s.count >= roundStart {
			break
		}
	}

	st.NodesAfter = s.count
	st.Swaps = s.swaps
	nm, newRoots := s.build(m, rootIDs)
	st.Duration = time.Since(start)
	return nm, newRoots, st, nil
}

// normalizeWindows validates and sorts the window list, defaulting to one
// window over the whole order.
func normalizeWindows(ws [][2]int, numVars int) ([][2]int32, error) {
	if len(ws) == 0 {
		return [][2]int32{{0, int32(numVars)}}, nil
	}
	out := make([][2]int32, 0, len(ws))
	for _, w := range ws {
		if w[0] < 0 || w[1] > numVars || w[0] >= w[1] {
			return nil, fmt.Errorf("obdd: reorder window [%d,%d) out of range (have %d levels)", w[0], w[1], numVars)
		}
		out = append(out, [2]int32{int32(w[0]), int32(w[1])})
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	for i := 1; i < len(out); i++ {
		if out[i][0] < out[i-1][1] {
			return nil, fmt.Errorf("obdd: reorder windows [%d,%d) and [%d,%d) overlap",
				out[i-1][0], out[i-1][1], out[i][0], out[i][1])
		}
	}
	return out, nil
}

// errGrowth is the internal sentinel for "this directional scan exceeded the
// growth bound"; it never escapes to callers.
var errGrowth = errors.New("obdd: sift growth bound")

// sifter is the mutable working graph of one Reorder call. Nodes live in
// parallel arrays indexed by a private id space (0 and 1 are the terminals);
// freed ids are recycled through a free list. Every level has its own
// levelTable for hash-consing and a list of its nodes; lists may carry stale
// entries (a deref below a swap frees nodes at deeper levels without
// touching those levels' lists), and a freed id may be recycled — possibly
// at the very level whose list still holds the stale entry — so each list
// entry packs the node's generation alongside its id and iteration filters
// on both the generation and the level field. Filtering on level alone is
// wrong: a stale entry whose id was recycled at the same level would be
// visited twice.
type sifter struct {
	lvl    []int32 // per node: current level, -1 when freed, terminalLevel for 0/1
	lo, hi []int32
	ref    []int32 // parent-edge + root reference counts
	gen    []int32 // per id: incremented on every recycle, stamps list entries
	free   []int32
	count  int // live internal nodes

	tabs  []*levelTable
	lists [][]int64     // packed entry(gen, id) per level
	order []int         // level -> external variable id
	pos   map[int]int32 // external variable id -> current level

	ctx      context.Context
	deadline time.Time
	maxNodes int
	tick     int
	swaps    int
}

// entry packs a (generation, id) pair for a level list; unpack with entryID
// and entryGen. An entry is live at level l iff the id's generation still
// matches and its level is still l.
func entry(gen, id int32) int64 { return int64(gen)<<32 | int64(uint32(id)) }
func entryID(e int64) int32     { return int32(uint32(e)) }
func entryGen(e int64) int32    { return int32(e >> 32) }
func (s *sifter) liveAt(e int64, l int32) (int32, bool) {
	id := entryID(e)
	return id, s.gen[id] == entryGen(e) && s.lvl[id] == l
}

// newSifter extracts the subgraph reachable from roots into a fresh working
// graph and returns it with the roots mapped into sifter id space.
func newSifter(m *Manager, roots []NodeID, opts ReorderOptions) (*sifter, []int32) {
	nv := len(m.levelVar)
	s := &sifter{
		lvl:      []int32{terminalLevel, terminalLevel},
		lo:       []int32{0, 0},
		hi:       []int32{0, 0},
		ref:      []int32{0, 0},
		gen:      []int32{0, 0},
		tabs:     make([]*levelTable, nv),
		lists:    make([][]int64, nv),
		order:    m.Order(),
		pos:      make(map[int]int32, nv),
		ctx:      opts.Ctx,
		deadline: opts.Budget.Deadline,
		maxNodes: opts.Budget.MaxNodes,
	}
	for l := range s.tabs {
		s.tabs[l] = newLevelTable(8)
	}
	for l, v := range s.order {
		s.pos[v] = int32(l)
	}
	memo := getNodeMemo(len(m.nodes), true)
	defer putNodeMemo(memo)
	var ex func(NodeID) int32
	ex = func(f NodeID) int32 {
		if f <= True {
			return int32(f)
		}
		if r, ok := memo.get(f); ok {
			return int32(r)
		}
		n := m.nodes[f]
		lo := ex(n.lo)
		hi := ex(n.hi)
		id := s.mk(n.level, lo, hi)
		memo.put(f, NodeID(id))
		return id
	}
	rootIDs := make([]int32, len(roots))
	for i, r := range roots {
		id := ex(r)
		if id > 1 {
			s.ref[id]++
		}
		rootIDs[i] = id
	}
	return s, rootIDs
}

// alloc claims a node id (recycling freed ids), references its children, and
// counts it live. Table and list registration is the caller's (mk's) job.
func (s *sifter) alloc(level, lo, hi int32) int32 {
	var id int32
	if n := len(s.free); n > 0 {
		id = s.free[n-1]
		s.free = s.free[:n-1]
		s.lvl[id], s.lo[id], s.hi[id], s.ref[id] = level, lo, hi, 0
		s.gen[id]++ // invalidate any stale list entries pointing at this id
	} else {
		id = int32(len(s.lvl))
		s.lvl = append(s.lvl, level)
		s.lo = append(s.lo, lo)
		s.hi = append(s.hi, hi)
		s.ref = append(s.ref, 0)
		s.gen = append(s.gen, 0)
	}
	s.ref[lo]++
	s.ref[hi]++
	s.count++
	return id
}

// mk returns the reduced, hash-consed node (level, lo, hi) in the working
// graph, creating it if needed.
func (s *sifter) mk(level, lo, hi int32) int32 {
	if lo == hi {
		return lo
	}
	t := s.tabs[level]
	id, slot := t.lookup(s.lo, s.hi, lo, hi)
	if id != 0 {
		return id
	}
	id = s.alloc(level, lo, hi)
	t.insert(s.lo, s.hi, id, slot)
	s.lists[level] = append(s.lists[level], entry(s.gen[id], id))
	return id
}

// deref drops one reference from id, freeing it (and recursively its
// children) when the count reaches zero. Freed nodes leave their level table
// immediately; their list entries go stale and are filtered on iteration.
func (s *sifter) deref(id int32) {
	for id > 1 {
		s.ref[id]--
		if s.ref[id] > 0 {
			return
		}
		s.tabs[s.lvl[id]].del(s.lo, s.hi, s.lo[id], s.hi[id])
		s.lvl[id] = -1
		s.count--
		s.free = append(s.free, id)
		lo, hi := s.lo[id], s.hi[id]
		s.deref(lo)
		id = hi
	}
}

// swap exchanges adjacent levels i and i+1 (variables x above y) in place.
// Nodes at other levels are untouched except for derefs freeing dead ones,
// so a swap costs O(size of the two levels). The three phases:
//
//  1. Every y-node provisionally moves up to level i. Survivors (referenced
//     from roots or levels above i) legitimately live there after the swap;
//     the rest die in phase 3 when their last interacting parent lets go.
//  2. x-nodes with no y-child do not depend on y; they keep their label and
//     children and sink to level i+1.
//  3. Interacting x-nodes keep their id — parents above never need updating
//     — but take label y and have their children rebuilt as hash-consed
//     x-nodes over the four (x, y) cofactors: f = y(x(f00,f10), x(f01,f11)).
//
// Phase 3 cannot create a redundant node or collide with a surviving y-node:
// either case forces two equal cofactors that would contradict the
// reducedness or canonicity of the pre-swap graph, which is an invariant.
func (s *sifter) swap(i int32) {
	top := s.lists[i]
	bot := s.lists[i+1]
	newTopTab := newLevelTable(len(bot) + len(top))
	newBotTab := newLevelTable(len(top))
	newTop := make([]int64, 0, len(bot)+len(top))
	newBot := make([]int64, 0, len(top))

	for _, e := range bot {
		id, ok := s.liveAt(e, i+1)
		if !ok {
			continue // stale list entry
		}
		s.lvl[id] = i
		_, slot := newTopTab.lookup(s.lo, s.hi, s.lo[id], s.hi[id])
		newTopTab.insert(s.lo, s.hi, id, slot)
		newTop = append(newTop, e)
	}

	var inter []int32
	for _, e := range top {
		id, ok := s.liveAt(e, i)
		if !ok {
			continue
		}
		if s.lvl[s.lo[id]] == i || s.lvl[s.hi[id]] == i {
			inter = append(inter, id)
			continue
		}
		s.lvl[id] = i + 1
		_, slot := newBotTab.lookup(s.lo, s.hi, s.lo[id], s.hi[id])
		newBotTab.insert(s.lo, s.hi, id, slot)
		newBot = append(newBot, e)
	}

	s.tabs[i], s.tabs[i+1] = newTopTab, newBotTab
	s.lists[i], s.lists[i+1] = newTop, newBot

	for _, f := range inter {
		f0, f1 := s.lo[f], s.hi[f]
		f00, f01 := f0, f0
		if f0 > 1 && s.lvl[f0] == i {
			f00, f01 = s.lo[f0], s.hi[f0]
		}
		f10, f11 := f1, f1
		if f1 > 1 && s.lvl[f1] == i {
			f10, f11 = s.lo[f1], s.hi[f1]
		}
		g0 := s.mk(i+1, f00, f10)
		g1 := s.mk(i+1, f01, f11)
		if g0 == g1 {
			panic("obdd: sift swap produced a redundant node")
		}
		s.ref[g0]++
		s.ref[g1]++
		s.lo[f], s.hi[f] = g0, g1
		id, slot := s.tabs[i].lookup(s.lo, s.hi, g0, g1)
		if id != 0 {
			panic("obdd: sift swap produced a duplicate node")
		}
		s.tabs[i].insert(s.lo, s.hi, f, slot)
		s.lists[i] = append(s.lists[i], entry(s.gen[f], f))
		s.deref(f0)
		s.deref(f1)
	}

	s.order[i], s.order[i+1] = s.order[i+1], s.order[i]
	s.pos[s.order[i]] = i
	s.pos[s.order[i+1]] = i + 1
	s.swaps++
}

// step polls the resource envelope between swaps.
func (s *sifter) step() error {
	if s.maxNodes > 0 && s.count > s.maxNodes {
		return budget.Exceeded("obdd reorder node", s.maxNodes)
	}
	s.tick++
	if s.tick&63 == 0 {
		return budget.Check(s.ctx, s.deadline)
	}
	return nil
}

// round runs one sifting round: variables in order of decreasing level
// population, each sifted to its best position within its window. Returns
// the number of variables sifted.
func (s *sifter) round(wins [][2]int32) (int, error) {
	type cand struct {
		v    int
		size int
	}
	var cands []cand
	for _, w := range wins {
		if w[1]-w[0] < 2 {
			continue
		}
		for l := w[0]; l < w[1]; l++ {
			if n := s.tabs[l].n; n > 0 {
				cands = append(cands, cand{v: s.order[l], size: n})
			}
		}
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].size > cands[j].size })

	sifted := 0
	for _, c := range cands {
		l, ok := s.pos[c.v]
		if !ok {
			continue
		}
		w, ok := windowOf(wins, l)
		if !ok || w[1]-w[0] < 2 {
			continue
		}
		if err := s.siftOne(l, w); err != nil {
			return sifted, err
		}
		sifted++
	}
	return sifted, nil
}

// windowOf finds the window containing level l.
func windowOf(wins [][2]int32, l int32) ([2]int32, bool) {
	i := sort.Search(len(wins), func(i int) bool { return wins[i][1] > l })
	if i < len(wins) && wins[i][0] <= l && l < wins[i][1] {
		return wins[i], true
	}
	return [2]int32{}, false
}

// siftOne moves the variable currently at level l through every position of
// its window — nearer end first, then the far end — tracking the best total
// node count, and finally parks it at the best position. A directional scan
// stops early once the count exceeds DefaultMaxGrowth times the starting count.
func (s *sifter) siftOne(l int32, w [2]int32) error {
	cur := l
	best := s.count
	bestPos := l
	limit := int(DefaultMaxGrowth * float64(s.count))
	if limit < s.count+2 {
		limit = s.count + 2 // let tiny graphs explore at all
	}

	moveTo := func(target int32, track bool) error {
		for cur != target {
			if err := s.step(); err != nil {
				return err
			}
			if cur < target {
				s.swap(cur)
				cur++
			} else {
				s.swap(cur - 1)
				cur--
			}
			if track {
				if s.count < best {
					best, bestPos = s.count, cur
				}
				if s.count > limit {
					return errGrowth
				}
			}
		}
		return nil
	}

	first, second := w[1]-1, w[0]
	if l-w[0] < w[1]-1-l {
		first, second = w[0], w[1]-1
	}
	if err := moveTo(first, true); err != nil && err != errGrowth {
		return err
	}
	if err := moveTo(second, true); err != nil && err != errGrowth {
		return err
	}
	return moveTo(bestPos, false)
}

// build rebuilds a fresh Manager under the sifted order and translates the
// roots. The new manager inherits the source's apply-cache cap but starts
// unarmed; callers re-arm with SetBudget if needed.
func (s *sifter) build(src *Manager, rootIDs []int32) (*Manager, []NodeID) {
	nm := NewManager(s.order)
	nm.SetApplyCacheMax(src.cache.max)
	memo := make([]NodeID, len(s.lvl)) // sifter id -> new NodeID; 0 = unset (internal nodes never map to False)
	var rec func(int32) NodeID
	rec = func(x int32) NodeID {
		if x <= 1 {
			return NodeID(x)
		}
		if r := memo[x]; r != 0 {
			return r
		}
		r := nm.MkNode(s.lvl[x], rec(s.lo[x]), rec(s.hi[x]))
		memo[x] = r
		return r
	}
	roots := make([]NodeID, len(rootIDs))
	for i, r := range rootIDs {
		roots[i] = rec(r)
	}
	return nm, roots
}
