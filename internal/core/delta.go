package core

import (
	"errors"
	"fmt"
	"math"

	"mvdb/internal/engine"
	"mvdb/internal/obdd"
	"mvdb/internal/ucq"
)

// Delta translation. Re-running the full Definition 5 translation after a
// small mutation batch re-materializes every view — by far the dominant cost
// of incremental index maintenance (the view joins dwarf the OBDD work).
// ApplyDelta instead patches the one database in place — the source's base
// relations, which the translation shares, plus its NV relations — and
// repairs only the NV tuples whose view heads the batch can have
// touched: for each changed base tuple it unifies the tuple with each view
// atom and evaluates the residual query (constants substituted, head
// variables pinned by equality predicates — both exploit the engine's hash
// indexes), which yields the affected heads; each affected head is then
// re-checked for existence with one bound evaluation. Work is proportional
// to the batch's blast radius, not to the database.
//
// Because in-place mutation keeps variable ids stable (deletes tombstone,
// never renumber), the identity map over surviving variables is a valid OBDD
// variable map for obdd.CompileDelta, and the returned changed-tuple list
// names exactly the base and NV tuples whose presence differs — the inputs
// the incremental compiler needs to dirty blocks.

// ErrDeltaFallback reports that the batch may change the translation's
// shape — a changed tuple can reach a negated atom, a view that contributed
// nothing at translate time, or a pure denial view with non-zero weights —
// so the caller must apply the batch conventionally and re-translate. The
// check is a read-only preflight: on fallback nothing has been mutated.
var ErrDeltaFallback = errors.New("core: mutation batch may change the translation structure")

// ApplyDelta applies one validated mutation batch in place — to the base
// relations the translation shares with its source, then to the NV
// relations — and returns the tuples whose presence changed (base and NV),
// each with the variable it created or freed. The caller must hold
// exclusive access and have validated the batch; after a non-fallback error
// the database may be partially mutated and the translation must be rebuilt
// from its source.
func (t *Translation) ApplyDelta(batch []Mutation) ([]obdd.ChangedTuple, error) {
	if t.Source == nil {
		return nil, fmt.Errorf("core: translation has no source MVDB")
	}
	var structural []Mutation
	for _, mu := range batch {
		if mu.Op != MutReweight {
			structural = append(structural, mu)
		}
	}

	// Read-only preflight: every condition that requires the full
	// translation is decided before the first write, so fallback is clean.
	denial := map[string]bool{}
	for _, name := range t.DenialViews {
		denial[name] = true
	}
	type touchedView struct {
		v    *MarkoView
		old  map[string][]engine.Value // affected heads, old side first
		skip bool                      // denial view that provably stays empty-weighted
	}
	var touched []touchedView
	for _, v := range t.Source.Views {
		hit, negated := viewHit(v, structural)
		if !hit {
			continue
		}
		if negated {
			// A changed tuple matching a negated atom shifts derivations in
			// the opposite direction; the residual-query machinery below
			// only covers positive occurrences.
			return nil, ErrDeltaFallback
		}
		tv := touchedView{v: v}
		switch {
		case denial[v.Name] && provablyZero(v.Weights):
			// A pure denial view with an all-zero weight table stays a pure
			// denial view under any mutation, and denial views contribute no
			// NV tuples — W is unchanged, nothing to repair.
			tv.skip = true
		case denial[v.Name]:
			// A denial view with reachable non-zero weights could stop being
			// one; deciding that needs the weights of heads we have not
			// computed yet.
			return nil, ErrDeltaFallback
		case !t.nvSet[t.opts.NVPrefix+v.Name]:
			// The view contributed nothing at translate time, so its
			// disjuncts are absent from W; any new head changes W's shape.
			return nil, ErrDeltaFallback
		}
		touched = append(touched, tv)
	}

	// Old-side affected heads, before any write.
	for i := range touched {
		if touched[i].skip {
			continue
		}
		heads, err := affectedViewHeads(t.Source.DB, touched[i].v, structural)
		if err != nil {
			return nil, err
		}
		touched[i].old = heads
	}

	// Apply the batch, once: the translated database holds the source's
	// base relations themselves, so the source sees every write.
	var changed []obdd.ChangedTuple
	for i, mu := range batch {
		v, err := apply(t.DB, mu)
		if err != nil {
			return nil, fmt.Errorf("core: delta apply: mutation %d (%s): %w", i, mu, err)
		}
		if mu.Op != MutReweight {
			changed = append(changed, obdd.ChangedTuple{Rel: mu.Rel, Vals: mu.Vals, Var: v})
		}
	}

	// New-side affected heads, then repair the NV relation per head.
	for _, tv := range touched {
		if tv.skip {
			continue
		}
		v := tv.v
		heads, err := affectedViewHeads(t.Source.DB, v, structural)
		if err != nil {
			return nil, err
		}
		for k, h := range tv.old {
			if _, ok := heads[k]; !ok {
				heads[k] = h
			}
		}
		nvName := t.opts.NVPrefix + v.Name
		for _, h := range heads {
			w := v.WeightOf(h)
			if math.IsNaN(w) || w < 0 {
				return nil, fmt.Errorf("core: view %s assigns invalid weight %v to %s", v.Name, w, engine.FormatTuple(h))
			}
			if math.IsInf(w, 1) {
				return nil, fmt.Errorf("core: view %s assigns weight +Inf to %s", v.Name, engine.FormatTuple(h))
			}
			exists, err := viewHeadExists(t.Source.DB, v, h)
			if err != nil {
				return nil, err
			}
			// Mirror Translate: weight-1 tuples are pruned (unconstrained)
			// unless KeepIndependent.
			needNV := exists && (w != 1 || t.opts.KeepIndependent)
			was := t.DB.HasTuple(nvName, h)
			switch {
			case needNV && !was:
				w0 := math.Inf(1) // w == 0: hard constraint, probability 1
				if w != 0 {
					w0 = (1 - w) / w
				}
				nv, err := t.DB.Insert(nvName, w0, h...)
				if err != nil {
					return nil, fmt.Errorf("core: delta apply: view %s: %w", v.Name, err)
				}
				changed = append(changed, obdd.ChangedTuple{Rel: nvName, Vals: h, Var: nv})
			case !needNV && was:
				nv, err := t.DB.DeleteTuple(nvName, h)
				if err != nil {
					return nil, fmt.Errorf("core: delta apply: view %s: %w", v.Name, err)
				}
				changed = append(changed, obdd.ChangedTuple{Rel: nvName, Vals: h, Var: nv})
			}
		}
	}
	return changed, nil
}

// provablyZero reports whether a weight table assigns 0 to every possible
// head. Closure-weighted views return false — their outputs cannot be
// inspected without evaluation.
func provablyZero(wt *WeightTable) bool {
	if wt == nil || wt.Default != 0 {
		return false
	}
	for _, w := range wt.ByHead {
		if w != 0 {
			return false
		}
	}
	return true
}

// viewHit reports whether any structural mutation can match an atom of the
// view, and whether any such atom is negated.
func viewHit(v *MarkoView, structural []Mutation) (hit, negated bool) {
	for _, d := range v.Def.Disjuncts {
		for _, a := range d.Atoms {
			for _, mu := range structural {
				if a.Rel != mu.Rel || len(a.Args) != len(mu.Vals) {
					continue
				}
				hit = true
				if a.Negated {
					return true, true
				}
			}
		}
	}
	return hit, false
}

// affectedViewHeads returns every head tuple of the view whose derivations
// can involve one of the changed base tuples in the given database: for each
// (changed tuple, disjunct, matching atom) it unifies the tuple with the
// atom and evaluates the residual query. Non-head bindings are substituted
// as constants; head bindings become equality predicates so the head stays
// projectable. The result (keyed by tuple key) is a superset of the heads
// whose materialization status changed — each still needs an existence
// re-check.
func affectedViewHeads(db *engine.Database, v *MarkoView, structural []Mutation) (map[string][]engine.Value, error) {
	isHead := map[string]bool{}
	for _, h := range v.Head {
		isHead[h] = true
	}
	seen := map[string][]engine.Value{}
	for _, mu := range structural {
		for _, d := range v.Def.Disjuncts {
			for _, a := range d.Atoms {
				if a.Negated || a.Rel != mu.Rel || len(a.Args) != len(mu.Vals) {
					continue
				}
				binding := map[string]engine.Value{}
				unified := true
				for j, term := range a.Args {
					if term.IsConst {
						if !term.Const.Equal(mu.Vals[j]) {
							unified = false
							break
						}
						continue
					}
					if prev, ok := binding[term.Var]; ok {
						if !prev.Equal(mu.Vals[j]) {
							unified = false
							break
						}
						continue
					}
					binding[term.Var] = mu.Vals[j]
				}
				if !unified {
					continue
				}
				rest := map[string]engine.Value{}
				var eqs []ucq.Pred
				for x, val := range binding {
					if isHead[x] {
						eqs = append(eqs, ucq.Pred{Op: ucq.OpEQ, L: ucq.V(x), R: ucq.C(val)})
					} else {
						rest[x] = val
					}
				}
				rd := d.Subst(rest)
				rd.Preds = append(rd.Preds, eqs...)
				q := &ucq.Query{Name: v.Name, Head: v.Head, UCQ: ucq.UCQ{Disjuncts: []ucq.CQ{rd}}}
				rows, err := ucq.Eval(db, q)
				if err != nil {
					return nil, fmt.Errorf("core: delta apply: view %s: %w", v.Name, err)
				}
				for _, r := range rows {
					seen[engine.TupleKey(r.Head)] = r.Head
				}
			}
		}
	}
	return seen, nil
}

// viewHeadExists reports whether the view materializes the given head in the
// database: one evaluation with every head variable pinned by an equality
// predicate.
func viewHeadExists(db *engine.Database, v *MarkoView, head []engine.Value) (bool, error) {
	u := ucq.UCQ{Disjuncts: make([]ucq.CQ, 0, len(v.Def.Disjuncts))}
	for _, d := range v.Def.Disjuncts {
		nd := ucq.CQ{Atoms: d.Atoms, Preds: make([]ucq.Pred, 0, len(d.Preds)+len(v.Head))}
		nd.Preds = append(nd.Preds, d.Preds...)
		for i, h := range v.Head {
			nd.Preds = append(nd.Preds, ucq.Pred{Op: ucq.OpEQ, L: ucq.V(h), R: ucq.C(head[i])})
		}
		u.Disjuncts = append(u.Disjuncts, nd)
	}
	rows, err := ucq.Eval(db, &ucq.Query{Name: v.Name, Head: v.Head, UCQ: u})
	if err != nil {
		return false, err
	}
	return len(rows) > 0, nil
}
