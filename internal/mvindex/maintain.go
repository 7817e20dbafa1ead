package mvindex

import (
	"errors"
	"fmt"
	"time"

	"mvdb/internal/core"
	"mvdb/internal/engine"
	"mvdb/internal/obdd"
)

// Incremental maintenance. A mutation batch against the source MVDB is
// turned into a new index with work proportional to what the batch touches:
//
//   - A batch of pure reweights leaves the set of possible tuples — and
//     therefore every OBDD — untouched; the reweighted variables'
//     probabilities are patched and only the chain blocks holding them are
//     re-weighed.
//   - A structural batch (inserts/deletes) repairs the Definition 5
//     translation in place (core.ApplyDelta: only view heads reachable from
//     the changed tuples are re-evaluated) and recompiles ¬W incrementally
//     (obdd.CompileDelta): the variable order is patched rather than
//     re-sorted, only the separator-value blocks the changed tuples can
//     affect are compiled, and every clean block is copied from the old
//     manager in one pass. The augmentation follows suit (Index.carry):
//     clean blocks keep their segments, dirty ones go through the per-block
//     primitive. Batches that could change W's shape fall back to a full
//     re-translation of a mutated clone.
//
// What stays linear in the index is that one copy into the fresh manager
// (readers and snapshots of the previous state stay frozen) plus flat copies
// of the carried segments; nothing is sorted, hashed into maps or traversed
// recursively outside the dirty blocks.
//
// ApplyMutations mutates the index and requires exclusive access, like
// Reweight and Compact: no concurrent readers.

// MaintStats reports how one mutation batch was applied.
type MaintStats struct {
	Applied    int  // mutations in the batch
	WeightOnly bool // reweight-only fast path (no recompilation at all)
	Full       bool // structural path fell back to a full recompile
	Blocks     int  // non-empty separator blocks in the new chain
	Reused     int  // clean blocks carried over from the old manager
	Recompiled int  // blocks compiled from scratch

	// The work the batch cost the index, in the units it scales with: chain
	// blocks (and their nodes) put through the per-block augmentation, and
	// nodes copied from the old manager's chain.
	AugmentedBlocks int
	AugmentedNodes  int
	SplicedNodes    int

	Duration time.Duration
}

// Source returns the live MVDB the index maintains. It is replaced on every
// structural batch, so callers must re-fetch it rather than cache it. Nil for
// indexes restored from snapshots without source data.
func (ix *Index) Source() *core.MVDB { return ix.tr.Source }

// ApplyMutations validates and applies one batch of base-table mutations to
// the source MVDB and brings the index up to date incrementally. Invalid
// batches are rejected up front with nothing changed. After validation the
// fast path mutates the source and translated databases in place (its
// preflight falls back cleanly to a clone-and-retranslate route when the
// batch could change W's shape), so an internal failure beyond that point —
// which validation makes unreachable for well-formed batches — surfaces as
// an error after which the index must be rebuilt. Requires exclusive access
// (no concurrent readers).
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
		// weights to the source and to the translated clone, then re-weigh
		// the blocks that hold the touched variables.
		if err := src.Apply(batch); err != nil {
			return st, err
		}
		touched := make([]int, 0, len(batch))
		for _, mu := range batch {
			v, err := ix.tr.DB.UpdateWeight(mu.Rel, mu.Vals, mu.Weight)
			if err != nil {
				return st, fmt.Errorf("mvindex: reweighting translated clone: %w", err)
			}
			touched = append(touched, v)
		}
		ix.patchProbs(touched)
		ix.reweigh(touched, nil, &st)
		ix.weightsChanged()
		st.WeightOnly = true
		st.Duration = time.Since(t0)
		return st, nil
	}

	// Structural path. The delta translator patches the source and translated
	// databases in place — work proportional to the batch's blast radius —
	// and the identity variable map plus its changed-tuple list drive the
	// incremental recompile. Its read-only preflight falls back
	// (ErrDeltaFallback, nothing mutated) to the conventional route when the
	// batch could change W's shape: mutate a clone, run the full Definition 5
	// translation and diff the two translated databases. Either way the
	// recompile inherits the current manager's order — static Π or learned —
	// and reuses whatever blocks the record still vouches for (none on the
	// first structural batch, or after Compact dropped the record).
	newTr := ix.tr
	varMap := identityVarMap(ix.tr.DB)
	changed, err := ix.tr.ApplyDelta(batch)
	inPlace := err == nil
	if errors.Is(err, core.ErrDeltaFallback) {
		work := &core.MVDB{DB: src.DB.Clone(), Views: src.Views}
		if err := work.Apply(batch); err != nil {
			return st, err
		}
		if newTr, err = ix.tr.RetranslateFrom(work); err != nil {
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
	d, err := obdd.CompileDelta(newTr.DB, newTr.W, newTr.WPerm(),
		obdd.CompileOptions{}, ix.m, ix.rec, varMap, changed)
	if err != nil {
		return st, err
	}
	st.Full, st.Blocks, st.Reused, st.Recompiled, st.SplicedNodes =
		d.Stats.Full, d.Stats.Blocks, d.Stats.Reused, d.Stats.Recompiled, d.Stats.Spliced

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
	oldRec := ix.rec
	ix.tr, ix.rec = newTr, d.Rec
	if inPlace {
		for _, ct := range changed {
			if ct.Var != 0 {
				touched = append(touched, ct.Var)
			}
		}
		ix.patchProbs(touched)
	} else {
		ix.probs = newTr.DB.Probs()
	}

	// Augmentation: every block after a full compile, else carried across
	// for the blocks the splice copied.
	if d.Stats.Full {
		ix.m, ix.root = d.M, d.Root
		st.AugmentedNodes = ix.augmentAll()
		st.AugmentedBlocks = len(ix.chainRoots)
	} else {
		fresh, err := ix.carry(d, oldRec, &st)
		if err != nil {
			return st, err
		}
		ix.reweigh(touched, fresh, &st)
	}
	ix.weightsChanged()
	ix.noteInheritedOrder(st)
	st.Duration = time.Since(t0)
	return st, nil
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

// reweigh re-weighs the chain blocks holding the given variables, once each,
// skipping blocks the batch already augmented from scratch (fresh, indexed by
// block; nil when there are none).
func (ix *Index) reweigh(vars []int, fresh []bool, st *MaintStats) {
	if fresh == nil {
		fresh = make([]bool, len(ix.chainRoots))
	}
	for _, v := range vars {
		l := ix.m.Level(v)
		if l < 0 || len(fresh) == 0 {
			continue // freed, or no block to hold it
		}
		if k := ix.blockForLevel(int32(l)); !fresh[k] {
			fresh[k] = true
			st.AugmentedBlocks++
			st.AugmentedNodes += ix.weighBlock(k)
		}
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

// identityVarMap maps every variable still alive in the delta-translated
// database to itself. Valid only when the new database is a mutated clone of
// the old one, which never renumbers variables.
func identityVarMap(newDB *engine.Database) func(int) (int, bool) {
	return func(v int) (int, bool) { return v, newDB.Alive(v) }
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
