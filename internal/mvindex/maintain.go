package mvindex

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"mvdb/internal/core"
	"mvdb/internal/engine"
	"mvdb/internal/obdd"
)

// Incremental maintenance. A mutation batch against the source MVDB is
// turned into a new version of the index with work proportional to what the
// batch touches:
//
//   - A batch of pure reweights leaves the set of possible tuples — and
//     therefore every OBDD — untouched; the reweighted variables'
//     probabilities are patched and only the chain blocks holding them are
//     re-weighed, each into a new segment.
//   - A structural batch (inserts/deletes) repairs the Definition 5
//     translation in place (core.ApplyDelta: only view heads reachable from
//     the changed tuples are re-evaluated), patches the variable order
//     (obdd.PatchOrder) and compiles only the blocks of the separator values
//     the changed tuples can affect, standalone, in a scratch manager
//     (obdd.CompileDelta). Those blocks are swept, flattened and weighed
//     into new segments, and the new directory points at every clean
//     segment of the old one (splice). Batches that could change W's shape
//     fall back to a full re-translation of a mutated clone; its blocks stay
//     incremental, but the clean segments are renamed into the new
//     variable ids.
//
// What stays linear in the index is flat: the new directory (one pointer per
// block) and one copy of the order's two level arrays, since an insert
// shifts every later level. No node of a clean block is copied, hashed or
// visited, and no OBDD manager outlives the batch.
//
// ApplyMutations replaces the index's version and requires exclusive
// access, like Reweight: no concurrent readers.

// MaintStats reports how one mutation batch was applied.
type MaintStats struct {
	Applied    int  // mutations in the batch
	WeightOnly bool // reweight-only fast path (no recompilation at all)
	Full       bool // structural path fell back to a full recompile
	Blocks     int  // non-empty separator blocks in the new chain
	Reused     int  // clean separator blocks kept by pointer
	Recompiled int  // blocks compiled from scratch

	// The work the batch cost the index, in the units it scales with: chain
	// blocks (and their nodes) put through the per-block augmentation.
	AugmentedBlocks int
	AugmentedNodes  int

	Duration time.Duration
}

// Source returns the live MVDB the index maintains. It is replaced on every
// structural batch, so callers must re-fetch it rather than cache it. Nil for
// indexes restored from snapshots without source data.
func (ix *Index) Source() *core.MVDB { return ix.tr.Source }

// FailCompile is a test seam: while err is non-nil, every structural batch
// fails with it where the compile would start — after the delta translation
// has patched the database, the failure a server must fail closed on.
func (ix *Index) FailCompile(err error) { ix.compileFault = err }

// ApplyMutations validates and applies one batch of base-table mutations to
// the source MVDB and brings the index up to date incrementally. Invalid
// batches are rejected up front with nothing changed. After validation the
// fast path mutates the database the source and the translation share in
// place (its preflight falls back cleanly to a clone-and-retranslate route
// when the batch could change W's shape), so an internal failure beyond that
// point — which validation makes unreachable for well-formed batches —
// surfaces as an error after which the index must be rebuilt. Requires
// exclusive access (no concurrent readers).
func (ix *Index) ApplyMutations(batch []core.Mutation) (MaintStats, error) {
	t0 := time.Now()
	st := MaintStats{Applied: len(batch)}
	src := ix.tr.Source
	if src == nil {
		return st, fmt.Errorf("mvindex: index has no source MVDB (restored from a snapshot of a closure-weighted source, which cannot be snapshotted); mutations need the view definitions")
	}
	if err := src.ValidateBatch(batch); err != nil {
		return st, err
	}

	if core.WeightOnly(batch) {
		// Reweights change no tuple's existence: the view materializations,
		// the NV relations and the OBDD of ¬W are all untouched. Apply the
		// weights — once, to the base relations the source and the
		// translation share — then re-weigh the blocks that hold the touched
		// variables.
		touched := make([]int, 0, len(batch))
		for _, mu := range batch {
			v, err := ix.tr.DB.UpdateWeight(mu.Rel, mu.Vals, mu.Weight)
			if err != nil {
				return st, fmt.Errorf("mvindex: reweighting: %w", err)
			}
			touched = append(touched, v)
		}
		ix.patchProbs(touched)
		c := ix.ch.reweighed()
		ix.reweigh(c, touched, nil, &st)
		ix.ch = c
		ix.weightsChanged()
		st.WeightOnly = true
		st.Duration = time.Since(t0)
		return st, nil
	}

	// Structural path. The delta translator patches the database in place —
	// work proportional to the batch's blast radius — and its changed-tuple
	// list drives the incremental recompile. Its
	// read-only preflight falls back (ErrDeltaFallback, nothing mutated) to
	// the conventional route when the batch could change W's shape: mutate a
	// clone of the base relations (the one copy on a serving path: the live
	// index must stay intact until the new one is built), run the full
	// Definition 5 translation and diff the two translated databases. Either
	// way the recompile inherits the current order — static Π or learned —
	// and recompiles only the dirty blocks when the record allows (not on the
	// first structural batch after a snapshot restore).
	newTr := ix.tr
	var varMap func(int) (int, bool) // nil: patched in place, ids unchanged
	changed, err := ix.tr.ApplyDelta(batch)
	if errors.Is(err, core.ErrDeltaFallback) {
		work := &core.MVDB{DB: src.DB.Clone(), Views: src.Views}
		if err := work.Apply(batch); err != nil {
			return st, err
		}
		if newTr, err = work.Translate(ix.tr.Opts()); err != nil {
			return st, err
		}
		// Variable ids are renumbered by re-translation, so the old order
		// maps through tuple identity.
		varMap = varMapByKey(ix.tr.DB, newTr.DB)
		changed = changedTuples(ix.tr.DB, newTr.DB)
	} else if err != nil {
		// Post-preflight failures leave the databases partially mutated;
		// surface them — the index needs a rebuild from clean data.
		return st, err
	}
	if ix.compileFault != nil {
		return st, ix.compileFault
	}
	ord := obdd.PatchOrder(ix.ch.ord, varMap, newTr.DB, newTr.WPerm(), changed)
	d, err := obdd.CompileDelta(newTr.DB, newTr.W, ord, obdd.CompileOptions{}, ix.rec, changed)
	if err != nil {
		return st, err
	}

	// Weights: every variable the batch created, freed or reweighted. Inserts
	// count even when the tuple's presence did not change — a tuple deleted
	// and re-inserted in one batch comes back under a new weight, and on the
	// re-translation route it is not in changed and its block may be clean.
	var touched []int
	for _, mu := range batch {
		if r := newTr.DB.Relation(mu.Rel); mu.Op != core.MutDelete && r != nil {
			// Still there (not deleted later in the batch) and probabilistic.
			if i := r.Lookup(mu.Vals); i >= 0 && r.Tuples[i].Var != 0 {
				touched = append(touched, r.Tuples[i].Var)
			}
		}
	}
	ix.tr = newTr
	if varMap == nil {
		for _, ct := range changed {
			if ct.Var != 0 {
				touched = append(touched, ct.Var)
			}
		}
		ix.patchProbs(touched)
	} else {
		ix.probs = newTr.DB.Probs()
	}

	var c *chain
	if !d.Full {
		if c = ix.splice(d, ord, varMap, touched, &st); c == nil {
			// A dirty block does not fit between its neighbours: recompile.
			if d, err = obdd.CompileDelta(newTr.DB, newTr.W, ord, obdd.CompileOptions{}, nil, changed); err != nil {
				return st, err
			}
		}
	}
	if d.Full {
		c, ix.rec = newChain(d.M, d.Root, d.Rec, ix.probs)
		st.Blocks = len(d.Rec.Roots)
		st.AugmentedBlocks, st.AugmentedNodes = len(c.segs), int(c.off[len(c.segs)])
	} else if varMap != nil {
		// The record describes the new translation's W from now on, so the
		// next batch's compile knows it as its own.
		rec := *ix.rec
		rec.U = newTr.W
		ix.rec = &rec
	}
	ix.ch = c
	st.Full, st.Recompiled = d.Full, d.Recompiled
	ix.weightsChanged()
	ix.noteInheritedOrder(st)
	st.Duration = time.Since(t0)
	return st, nil
}

// splice builds the successor chain of an incremental compile: the dirty
// separator values' blocks, swept into chain blocks, flattened and weighed,
// in place of their old segments, and every other block by pointer —
// renamed into the new variable ids when varMap is non-nil (the
// re-translation route). It returns nil when a dirty block does not fit
// between its neighbours' level windows in the patched order.
func (ix *Index) splice(d *obdd.Delta, ord *obdd.Manager, varMap func(int) (int, bool), touched []int, st *MaintStats) *chain {
	old := ix.ch
	c := &chain{ord: ord, pNotW: old.pNotW, vals: old.vals,
		segs: make([]*segment, 0, len(old.segs)+len(d.Values)),
		off:  make([]int32, 1, len(old.segs)+len(d.Values)+1)}
	keep := func(a, b int) bool {
		shift := c.off[len(c.off)-1] - old.off[a]
		for _, o := range old.off[a+1 : b+1] {
			c.off = append(c.off, o+shift)
		}
		if varMap == nil {
			c.segs = append(c.segs, old.segs[a:b]...)
			return true
		}
		for _, s := range old.segs[a:b] {
			r, ok := s.renamed(varMap)
			if !ok {
				return false
			}
			c.segs = append(c.segs, r)
		}
		return true
	}
	f := newFlattener(d.M, d.M.NumNodes())
	var fresh []int // blocks of c built from dirty values
	at, added := 0, 0
	for j, v := range d.Values {
		a := at + sort.Search(len(old.segs)-at, func(i int) bool { return old.segs[at+i].sep.Compare(v) >= 0 })
		b := a
		for ; b < len(old.segs) && old.segs[b].sep.Equal(v); b++ {
			c.pNotW.add(old.segs[b].b, -1)
		}
		if !keep(at, a) {
			return nil
		}
		if a < b {
			c.vals--
		}
		at = b
		roots := appendChain(d.M, d.Blocks[j], nil)
		if len(roots) == 0 {
			continue // the value's block is gone
		}
		c.vals++
		added++
		for i, r := range roots {
			next := obdd.True
			if i+1 < len(roots) {
				next = roots[i+1]
			}
			s := weigh(f.flatten(r, next, v), ix.probs, nil)
			fresh = append(fresh, len(c.segs))
			c.segs = append(c.segs, &s)
			c.off = append(c.off, c.off[len(c.off)-1]+int32(len(s.vars)))
			c.pNotW.add(s.b, 1)
			st.AugmentedBlocks++
			st.AugmentedNodes += len(s.vars)
		}
	}
	if !keep(at, len(old.segs)) {
		return nil
	}
	// Every dirty block must sit between its neighbours in the patched order,
	// as chaining it in would require.
	for _, k := range fresh {
		for _, j := range [2]int{k, k + 1} { // the boundaries before and after block k
			if j > 0 && j < len(c.segs) {
				if _, prev := c.window(j - 1); prev >= c.level(c.segs[j].vars[0]) {
					return nil
				}
			}
		}
	}
	ix.reweigh(c, touched, fresh, st)
	st.Blocks, st.Reused = c.vals, c.vals-added
	return c
}

// renamed returns s over new variable ids, sharing everything else.
func (s *segment) renamed(varMap func(int) (int, bool)) (*segment, bool) {
	r := *s
	r.vars = make([]int32, len(s.vars))
	for i, v := range s.vars {
		nv, ok := varMap(int(v))
		if !ok {
			return nil, false
		}
		r.vars[i] = int32(nv)
	}
	return &r, true
}

// patchProbs refreshes the probabilities of the given variables of the
// translated database (0 for variables a delete freed), growing the vector
// for variables an insert created.
func (ix *Index) patchProbs(vars []int) {
	db := ix.tr.DB
	if n := db.NumVars() + 1; len(ix.probs) < n {
		ix.probs = append(ix.probs, make([]float64, n-len(ix.probs))...)
	}
	for _, v := range vars {
		ix.probs[v] = db.Prob(v)
	}
}

// reweigh re-weighs, once each and into new segments, the blocks of the
// chain under construction c that hold the given variables, skipping the
// ones listed in done (already weighed).
func (ix *Index) reweigh(c *chain, vars []int, done []int, st *MaintStats) {
	for _, v := range vars {
		k, run := c.levelRun(v)
		if len(run) == 0 || slices.Contains(done, k) {
			continue // freed, or in no block
		}
		done = append(done, k)
		s := weigh(c.segs[k].shape, ix.probs, nil)
		c.replace(k, &s)
		st.AugmentedBlocks++
		st.AugmentedNodes += len(s.vars)
	}
}

// noteInheritedOrder updates the reordering provenance after a structural
// batch recompiled under the learned order.
func (ix *Index) noteInheritedOrder(st MaintStats) {
	if ix.reorder == nil {
		return
	}
	ix.reorder.DeltaReuses++
	ix.reorder.BlockProvenance = map[string]int{
		"inherited-reused":     st.Reused,
		"inherited-recompiled": st.Recompiled,
	}
}

// varMapByKey maps old translated-database variable ids to new ones by tuple
// identity (relation + full values). Surviving tuples keep their relative
// order across re-translation (both databases sort identically), so the map
// is order-preserving wherever it is defined.
func varMapByKey(oldDB, newDB *engine.Database) func(int) (int, bool) {
	return func(v int) (int, bool) {
		ref, err := oldDB.VarRef(v)
		if err != nil {
			return 0, false
		}
		t := oldDB.Relation(ref.Rel).Tuples[ref.Pos]
		nr := newDB.Relation(ref.Rel)
		if nr == nil {
			return 0, false
		}
		i := nr.Lookup(t.Vals)
		if i < 0 || nr.Tuples[i].Var == 0 {
			return 0, false
		}
		return nr.Tuples[i].Var, true
	}
}

// changedTuples lists the tuples present in exactly one of the two translated
// databases — the presence diff that drives block dirtying. NV relations
// participate like base relations: a view tuple that appears or disappears
// changes W's lineage exactly where its NV tuple does.
func changedTuples(oldDB, newDB *engine.Database) []obdd.ChangedTuple {
	var out []obdd.ChangedTuple
	for _, name := range oldDB.Relations() {
		ra, rb := oldDB.Relation(name), newDB.Relation(name)
		for _, t := range ra.Tuples {
			if rb == nil || rb.Lookup(t.Vals) < 0 {
				out = append(out, obdd.ChangedTuple{Rel: name, Vals: t.Vals})
			}
		}
	}
	for _, name := range newDB.Relations() {
		ra, rb := oldDB.Relation(name), newDB.Relation(name)
		for _, t := range rb.Tuples {
			if ra == nil || ra.Lookup(t.Vals) < 0 {
				out = append(out, obdd.ChangedTuple{Rel: name, Vals: t.Vals})
			}
		}
	}
	return out
}
