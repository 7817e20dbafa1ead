package ucq

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"

	"mvdb/internal/engine"
	"mvdb/internal/lineage"
)

// AnswerRow is one output tuple of a query together with its lineage over
// the probabilistic tuples of the database.
type AnswerRow struct {
	Head    []engine.Value
	Lineage lineage.DNF
}

// Eval evaluates a named query and returns one row per distinct head tuple
// that is an answer in at least one possible world, with its lineage DNF.
// Rows are sorted by head tuple.
func Eval(db *engine.Database, q *Query) ([]AnswerRow, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	acc := newAccumulator()
	for _, d := range q.Disjuncts {
		if err := evalCQ(db, d, q.Head, acc); err != nil {
			return nil, err
		}
	}
	return acc.rows(), nil
}

// EvalBoolean evaluates a Boolean UCQ (no head variables) and returns its
// lineage. The lineage is false when no disjunct has a match.
func EvalBoolean(db *engine.Database, u UCQ) (lineage.DNF, error) {
	acc := newAccumulator()
	for _, d := range u.Disjuncts {
		if err := evalCQ(db, d, nil, acc); err != nil {
			return nil, err
		}
	}
	if acc.boolA == nil {
		return lineage.False(), nil
	}
	return acc.boolA.terms, nil
}

// accumulator groups derivations by head tuple and deduplicates terms.
type accumulator struct {
	byHead  map[string]*answerAcc
	order   []string
	boolA   *answerAcc // fast path for Boolean queries (empty heads)
	keyBuf  []byte     // scratch for term dedup keys, reused across add calls
	headBuf []byte     // scratch for head keys, ditto
}

type answerAcc struct {
	head  []engine.Value
	seen  map[string]bool
	terms lineage.DNF
}

func newAccumulator() *accumulator {
	return &accumulator{byHead: map[string]*answerAcc{}}
}

// add records one derivation. The term must be sorted and free of
// duplicates, as lineage.Term makes it; it is copied only when new.
func (acc *accumulator) add(head []engine.Value, term []int) {
	var a *answerAcc
	if len(head) == 0 {
		// Boolean queries — the compiler's residual lineages take this path
		// once per derivation; skip the head-key machinery entirely.
		if acc.boolA == nil {
			acc.boolA = &answerAcc{seen: map[string]bool{}}
			acc.byHead[""] = acc.boolA
			acc.order = append(acc.order, "")
		}
		a = acc.boolA
	} else {
		hb := engine.AppendTupleKey(acc.headBuf[:0], head)
		acc.headBuf = hb
		var ok bool
		if a, ok = acc.byHead[string(hb)]; !ok {
			k := string(hb)
			a = &answerAcc{head: append([]engine.Value(nil), head...), seen: map[string]bool{}}
			acc.byHead[k] = a
			acc.order = append(acc.order, k)
		}
	}
	// Dedup key: the sorted variable ids, comma-separated. Building it into
	// a reused buffer keeps the non-insert case allocation-free (the compiler
	// replays many duplicate derivations per separator value).
	buf := acc.keyBuf[:0]
	for _, v := range term {
		buf = strconv.AppendInt(buf, int64(v), 10)
		buf = append(buf, ',')
	}
	acc.keyBuf = buf
	if !a.seen[string(buf)] {
		a.seen[string(buf)] = true
		a.terms = append(a.terms, append([]int(nil), term...))
	}
}

func (acc *accumulator) rows() []AnswerRow {
	out := make([]AnswerRow, 0, len(acc.order))
	for _, k := range acc.order {
		a := acc.byHead[k]
		out = append(out, AnswerRow{Head: a.head, Lineage: a.terms})
	}
	if len(out) > 1 {
		sort.Slice(out, func(i, j int) bool {
			return lessTuple(out[i].Head, out[j].Head)
		})
	}
	return out
}

// lessTuple orders head tuples value-wise (integers numerically, before
// strings) without materializing string keys.
func lessTuple(a, b []engine.Value) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if c := a[i].Compare(b[i]); c != 0 {
			return c < 0
		}
	}
	return len(a) < len(b)
}

// The join kernel. evalCQ numbers the CQ's terms once — every distinct
// variable and every constant occurrence gets a slot — so a binding is a
// value and a flag per slot rather than a map keyed by variable name.
// Constants are slots bound for the whole evaluation; variables are bound by
// tryBind, which pushes their slots on varStack, and unbound by truncating
// it. Atoms carry their resolved relation, so the join loop does no name
// lookups at all.

// slotAtom is an atom compiled against the CQ's slots.
type slotAtom struct {
	src  Atom // for error messages
	rel  *engine.Relation
	args []int // slot per argument
}

// slotPred is a predicate compiled against the CQ's slots.
type slotPred struct {
	src  Pred // operator, offset, and error messages
	l, r int
}

// evalCQ enumerates all satisfying assignments of one conjunctive query and
// feeds (head, derivation term) pairs into the accumulator.
func evalCQ(db *engine.Database, cq CQ, head []string, acc *accumulator) error {
	st := getEvalState()
	defer putEvalState(st)
	nargs := 0
	for _, a := range cq.Atoms {
		r := db.Relation(a.Rel)
		if r == nil {
			return fmt.Errorf("ucq: unknown relation %s", a.Rel)
		}
		if len(a.Args) != r.Arity() {
			return fmt.Errorf("ucq: relation %s has arity %d, atom has %d arguments", a.Rel, r.Arity(), len(a.Args))
		}
		if a.Negated && !r.Deterministic {
			return fmt.Errorf("ucq: negation on probabilistic relation %s is not allowed", a.Rel)
		}
		nargs += len(a.Args)
	}
	// Size the shared argument array up front: the atoms' args are windows
	// into it and must not move.
	if cap(st.args) < nargs {
		st.args = make([]int, 0, nargs)
	}
	for _, a := range cq.Atoms {
		off := len(st.args)
		for _, t := range a.Args {
			st.args = append(st.args, st.slotOf(t))
		}
		sa := slotAtom{src: a, rel: db.Relation(a.Rel), args: st.args[off:len(st.args):len(st.args)]}
		if a.Negated {
			st.negated = append(st.negated, sa)
		} else {
			st.positive = append(st.positive, sa)
		}
	}
	if len(st.positive) == 0 {
		return fmt.Errorf("ucq: conjunct has no positive atoms")
	}
	for _, p := range cq.Preds {
		st.preds = append(st.preds, slotPred{src: p, l: st.slotOf(p.L), r: st.slotOf(p.R)})
	}
	for _, h := range head {
		st.head = append(st.head, st.slotOf(V(h)))
	}

	st.acc = acc
	st.done = boolScratch(st.done, len(st.positive))
	st.predDone = boolScratch(st.predDone, len(st.preds))
	st.negDone = boolScratch(st.negDone, len(st.negated))
	return st.run(0)
}

// slotOf returns t's slot, allocating one if needed: a fresh bound slot per
// constant occurrence, one unbound slot per distinct variable name. It runs
// before the join, while only constant slots are bound.
func (st *evalState) slotOf(t Term) int {
	if !t.IsConst {
		for s, name := range st.names {
			if name == t.Var && !st.bound[s] {
				return s
			}
		}
	}
	st.names = append(st.names, t.Var)
	st.vals = append(st.vals, t.Const)
	st.bound = append(st.bound, t.IsConst)
	return len(st.names) - 1
}

// boolScratch resizes a reusable bool slice to n cleared entries.
func boolScratch(b []bool, n int) []bool {
	if cap(b) < n {
		return make([]bool, n)
	}
	b = b[:n]
	clear(b)
	return b
}

// evalStatePool recycles evaluator states: the OBDD compiler evaluates one
// residual lineage per unresolvable conjunct, so states churn at high rate
// during compilation.
var evalStatePool = sync.Pool{New: func() any { return new(evalState) }}

func getEvalState() *evalState { return evalStatePool.Get().(*evalState) }

func putEvalState(st *evalState) {
	st.acc = nil
	clear(st.positive) // drop the relation pointers
	clear(st.negated)
	st.positive, st.negated, st.preds = st.positive[:0], st.negated[:0], st.preds[:0]
	st.head, st.args = st.head[:0], st.args[:0]
	clear(st.vals) // drop the strings
	st.names, st.vals, st.bound = st.names[:0], st.vals[:0], st.bound[:0]
	st.term = st.term[:0]
	st.varStack = st.varStack[:0]
	st.checkedPreds = st.checkedPreds[:0]
	st.checkedNegs = st.checkedNegs[:0]
	evalStatePool.Put(st)
}

type evalState struct {
	positive []slotAtom
	negated  []slotAtom
	preds    []slotPred
	head     []int // slot per head variable
	args     []int // backing array of every atom's args
	done     []bool
	term     []int // probabilistic tuple vars on the current path
	acc      *accumulator

	// Slots: names[s] is the variable (or "" for a constant), vals[s] its
	// value while bound[s]. Constant slots stay bound throughout.
	names []string
	vals  []engine.Value
	bound []bool

	predDone []bool
	negDone  []bool
	varStack []int // slots bound on the current path, shared by all frames

	// Shared undo stacks and scratch buffers: run recurses once per joined
	// atom, and per-frame slices plus deferred closures were a measurable
	// slice of compile-time allocations.
	checkedPreds []int
	checkedNegs  []int
	negVals      []engine.Value
	keyVals      []engine.Value
	headVals     []engine.Value
	sortedTerm   []int
}

// run evaluates bound predicates and negated atoms, recurses via step, and
// restores the per-frame predDone/negDone marks on the way out.
func (st *evalState) run(processed int) error {
	pm, nm := len(st.checkedPreds), len(st.checkedNegs)
	err := st.step(processed)
	for _, i := range st.checkedPreds[pm:] {
		st.predDone[i] = false
	}
	st.checkedPreds = st.checkedPreds[:pm]
	for _, i := range st.checkedNegs[nm:] {
		st.negDone[i] = false
	}
	st.checkedNegs = st.checkedNegs[:nm]
	return err
}

func (st *evalState) step(processed int) error {
	// Evaluate any predicate or negated atom whose variables are all bound.
	for i := range st.preds {
		if st.predDone[i] {
			continue
		}
		p := &st.preds[i]
		if st.bound[p.l] && st.bound[p.r] {
			if !p.src.EvalBound(st.vals[p.l], st.vals[p.r]) {
				return nil
			}
			st.predDone[i] = true
			st.checkedPreds = append(st.checkedPreds, i)
		}
	}
	for i := range st.negated {
		if st.negDone[i] {
			continue
		}
		a := &st.negated[i]
		if cap(st.negVals) < len(a.args) {
			st.negVals = make([]engine.Value, len(a.args))
		}
		vals := st.negVals[:len(a.args)]
		allBound := true
		for j, s := range a.args {
			if !st.bound[s] {
				allBound = false
				break
			}
			vals[j] = st.vals[s]
		}
		if allBound {
			if a.rel.Lookup(vals) >= 0 {
				return nil // negated atom violated
			}
			st.negDone[i] = true
			st.checkedNegs = append(st.checkedNegs, i)
		}
	}

	if processed == len(st.positive) {
		// All atoms matched; predicates and negations must all be resolved.
		for i := range st.preds {
			if !st.predDone[i] {
				return fmt.Errorf("ucq: predicate %s has unbound variables", st.preds[i].src)
			}
		}
		for i := range st.negated {
			if !st.negDone[i] {
				return fmt.Errorf("ucq: negated atom %s has unbound variables", st.negated[i].src)
			}
		}
		if cap(st.headVals) < len(st.head) {
			st.headVals = make([]engine.Value, len(st.head))
		}
		headVals := st.headVals[:len(st.head)]
		for i, s := range st.head {
			if !st.bound[s] {
				return fmt.Errorf("ucq: head variable %s unbound", st.names[s])
			}
			headVals[i] = st.vals[s]
		}
		// The term as lineage.Term builds it, in the pooled scratch buffer.
		t := append(st.sortedTerm[:0], st.term...)
		slices.Sort(t)
		st.sortedTerm = slices.Compact(t)
		st.acc.add(headVals, st.sortedTerm)
		return nil
	}

	// Choose the next atom greedily by its actual candidate count under the
	// current binding: at most one when every argument is bound (the key
	// table finds the tuple), the count of its first bound column's matches,
	// or the full relation size when nothing is bound yet. This is exact
	// selectivity, not an estimate — one hash probe per atom — and it both
	// prunes dead branches immediately (zero candidates) and avoids joining
	// through a large intermediate (e.g. Pub by year instead of Wrote by
	// author in the V1 materialization). The join then walks the winner's
	// key hit or matches.
	best, bestCost, bestKey := -1, 0, -1
	var bestMatch engine.Matches
	for i := range st.positive {
		if st.done[i] {
			continue
		}
		a := &st.positive[i]
		cost, key := a.rel.Len(), -1
		var m engine.Matches
		if vals, ok := st.boundArgs(a); ok {
			if key = a.rel.Lookup(vals); key >= 0 {
				cost = 1
			} else {
				cost = 0
			}
		} else {
			for pos, s := range a.args {
				if st.bound[s] {
					m = a.rel.Match(pos, st.vals[s])
					cost = m.Len()
					break
				}
			}
		}
		if best == -1 || cost < bestCost {
			best, bestCost, bestMatch, bestKey = i, cost, m, key
		}
	}
	a := &st.positive[best]
	st.done[best] = true

	var err error
	switch {
	case bestCost == 0: // no candidate
	case bestKey >= 0:
		err = st.extend(a, bestKey, processed)
	case bestMatch.Len() > 0:
		for ti := bestMatch.First(); ti >= 0 && err == nil; ti = bestMatch.Next(ti) {
			err = st.extend(a, ti, processed)
		}
	default:
		err = st.scan(a, processed)
	}
	st.done[best] = false
	return err
}

// boundArgs returns the values of a's arguments when every one is bound.
func (st *evalState) boundArgs(a *slotAtom) ([]engine.Value, bool) {
	if cap(st.keyVals) < len(a.args) {
		st.keyVals = make([]engine.Value, len(a.args))
	}
	vals := st.keyVals[:len(a.args)]
	for j, s := range a.args {
		if !st.bound[s] {
			return nil, false
		}
		vals[j] = st.vals[s]
	}
	return vals, true
}

// extend joins tuple ti of atom a: it binds a's free arguments to the
// tuple's values, pushes its variable onto the term and recurses.
func (st *evalState) extend(a *slotAtom, ti, processed int) error {
	tup := &a.rel.Tuples[ti]
	mark, ok := st.tryBind(a, tup.Vals)
	if !ok {
		return nil
	}
	if tup.Var != 0 {
		st.term = append(st.term, tup.Var)
	}
	err := st.run(processed + 1)
	if tup.Var != 0 {
		st.term = st.term[:len(st.term)-1]
	}
	st.unbind(mark)
	return err
}

// scan joins the candidates of an atom none of whose arguments is bound:
// constant range predicates (year > 2004, y <= yp + 5 with yp bound) are
// pushed down to a column index probe or a sorted-index range scan, and
// otherwise it tries the whole relation.
func (st *evalState) scan(a *slotAtom, processed int) error {
	var err error
	for i, s := range a.args {
		eq, lo, loIncl, hi, hiIncl, ok := st.boundsFor(s)
		switch {
		case !ok:
			continue
		case eq != nil:
			m := a.rel.Match(i, *eq)
			for ti := m.First(); ti >= 0 && err == nil; ti = m.Next(ti) {
				err = st.extend(a, ti, processed)
			}
		default:
			for _, ti := range a.rel.RangeScan(i, lo, loIncl, hi, hiIncl) {
				if err = st.extend(a, ti, processed); err != nil {
					break
				}
			}
		}
		return err
	}
	for ti, n := 0, a.rel.Len(); ti < n && err == nil; ti++ {
		err = st.extend(a, ti, processed)
	}
	return err
}

// boundsFor derives constant bounds on the variable in slot v from the
// conjunct's comparison predicates whose other side is bound to an integer.
// It returns either an equality value or a half/fully bounded interval.
func (st *evalState) boundsFor(v int) (eq *engine.Value, lo *engine.Value, loIncl bool, hi *engine.Value, hiIncl bool, ok bool) {
	setLo := func(x int64, incl bool) {
		nv := engine.Int(x)
		if lo == nil || nv.Compare(*lo) > 0 || (nv.Compare(*lo) == 0 && !incl) {
			lo, loIncl = &nv, incl
		}
		ok = true
	}
	setHi := func(x int64, incl bool) {
		nv := engine.Int(x)
		if hi == nil || nv.Compare(*hi) < 0 || (nv.Compare(*hi) == 0 && !incl) {
			hi, hiIncl = &nv, incl
		}
		ok = true
	}
	for i := range st.preds {
		p := &st.preds[i]
		if p.src.Op == OpLike || p.src.Op == OpNE {
			continue
		}
		// v on the left: v op (c + offset).
		if p.l == v {
			if c := st.vals[p.r]; st.bound[p.r] && !c.IsStr {
				x := c.Int + p.src.Offset
				switch p.src.Op {
				case OpEQ:
					nv := engine.Int(x)
					return &nv, nil, false, nil, false, true
				case OpLT:
					setHi(x, false)
				case OpLE:
					setHi(x, true)
				case OpGT:
					setLo(x, false)
				case OpGE:
					setLo(x, true)
				}
			}
			continue
		}
		// v on the right: c op (v + offset)  ⇔  v op' (c - offset).
		if p.r == v {
			if c := st.vals[p.l]; st.bound[p.l] && !c.IsStr {
				x := c.Int - p.src.Offset
				switch p.src.Op {
				case OpEQ:
					nv := engine.Int(x)
					return &nv, nil, false, nil, false, true
				case OpLT: // c < v + off  ⇔  v > c - off
					setLo(x, false)
				case OpLE:
					setLo(x, true)
				case OpGT:
					setHi(x, false)
				case OpGE:
					setHi(x, true)
				}
			}
		}
	}
	return eq, lo, loIncl, hi, hiIncl, ok
}

// tryBind unifies the atom's arguments with the tuple values, binding the
// unbound slots and pushing them onto the shared varStack. It returns the
// stack mark to unbind back to after the recursive call and whether the
// tuple matched; on a mismatch the bindings are already undone.
func (st *evalState) tryBind(a *slotAtom, vals []engine.Value) (int, bool) {
	mark := len(st.varStack)
	for i, s := range a.args {
		if st.bound[s] {
			if !st.vals[s].Equal(vals[i]) {
				st.unbind(mark)
				return 0, false
			}
			continue
		}
		st.vals[s], st.bound[s] = vals[i], true
		st.varStack = append(st.varStack, s)
	}
	return mark, true
}

// unbind releases every slot bound since the stack mark.
func (st *evalState) unbind(mark int) {
	for _, s := range st.varStack[mark:] {
		st.bound[s] = false
	}
	st.varStack = st.varStack[:mark]
}
