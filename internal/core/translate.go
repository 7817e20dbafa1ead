package core

import (
	"fmt"
	"math"

	"mvdb/internal/engine"
	"mvdb/internal/obdd"
	"mvdb/internal/ucq"
)

// TranslateOptions tunes the MVDB → INDB translation.
type TranslateOptions struct {
	// NVPrefix prefixes the fresh NV relation names (default "NV_").
	NVPrefix string
	// KeepIndependent keeps view tuples with weight exactly 1. They are
	// pruned by default: their translated weight is 0, probability 0, so the
	// NV tuple can never appear and W_i can never fire through it.
	KeepIndependent bool
	// NoDenialOptimization disables the special handling of pure denial
	// views (all weights 0). By default such a view's NV relation is
	// deterministic and dropped from W_i entirely (Section 3.2, last
	// paragraph); with this flag the general per-tuple path is used instead,
	// which must give identical answers (tested).
	NoDenialOptimization bool
}

// Translation is the tuple-independent database D0 of Definition 5 together
// with the Boolean UCQ W of Theorem 1.
type Translation struct {
	Source *MVDB
	// DB is Theorem 1's INDB: the source MVDB's base relations — the same
	// *engine.Relation objects, under one variable id space (see
	// engine.Database.Share) — plus the NV relations.
	DB *engine.Database
	W  ucq.UCQ // W = ∨ᵢ Wᵢ, Wᵢ = NVᵢ(x̄) ∧ Qᵢ(x̄)

	// Reorder configures dynamic OBDD variable reordering of the MV-index:
	// when Mode is not ReorderOff, mvindex.Build runs a per-block Rudell
	// sifting pass after compiling W and the index keeps the learned order.
	// It does not affect CompileW, which compiles under WPerm. Carried over
	// by Retranslate and RetranslateFrom.
	Reorder obdd.ReorderOptions

	NVRelations       []string // one per non-empty view, in view order
	PrunedIndependent int      // view tuples with w = 1 skipped
	DenialViews       []string // views handled by the denial optimization

	nvSet map[string]bool
	opts  TranslateOptions // options Translate was called with (for re-translation)
	perm  obdd.Perm        // W's compile permutation Π, see WPerm
}

// Opts returns the options the translation was built with (defaults filled
// in), so a mutated source MVDB can be re-translated identically.
func (t *Translation) Opts() TranslateOptions { return t.opts }

// Retranslate re-runs the Definition 5 translation against the (possibly
// mutated) source MVDB, see RetranslateFrom. It errors on restored
// translations whose Source is gone.
func (t *Translation) Retranslate() (*Translation, error) {
	if t.Source == nil {
		return nil, fmt.Errorf("core: translation has no source MVDB (restored from a snapshot of a closure-weighted source, which cannot be snapshotted)")
	}
	return t.RetranslateFrom(t.Source)
}

// RetranslateFrom translates src — the source MVDB or a mutated clone of it —
// with the original options and carries over the settings that are not
// TranslateOptions (Reorder).
func (t *Translation) RetranslateFrom(src *MVDB) (*Translation, error) {
	nt, err := src.Translate(t.opts)
	if err != nil {
		return nil, err
	}
	nt.Reorder = t.Reorder
	return nt, nil
}

// RestoreSource reattaches the source MVDB to a restored translation,
// re-enabling Retranslate (and with it live mutation) after a snapshot
// round-trip. The source is the translated database's base relations —
// every relation but the NV ones, as a handle on the same store — under the
// given views; the caller asserts that the translation was built from them
// with these options.
func (t *Translation) RestoreSource(views []ViewSnapshot, opts TranslateOptions) error {
	if opts.NVPrefix == "" {
		opts.NVPrefix = "NV_"
	}
	src := New(t.DB.Share(t.NVRelations...))
	for _, vs := range views {
		v := &MarkoView{Name: vs.Name, Head: vs.Head, Def: vs.Def, Weights: vs.Weights.clone()}
		if err := src.AddView(v); err != nil {
			return err
		}
	}
	t.Source, t.opts = src, opts
	return nil
}

// Translate builds the associated INDB (Definition 5): every table of the
// MVDB carries over unchanged — shared, not copied — and each MarkoView Vᵢ
// contributes a fresh relation NVᵢ holding the view's possible tuples with
// weight (1-w)/w, negative whenever w > 1. A view whose every tuple is
// pruned contributes no relation.
func (m *MVDB) Translate(opts TranslateOptions) (*Translation, error) {
	if opts.NVPrefix == "" {
		opts.NVPrefix = "NV_"
	}
	tuples, err := m.Materialize()
	if err != nil {
		return nil, err
	}
	byView := map[string][]ViewTuple{}
	for _, t := range tuples {
		byView[t.View] = append(byView[t.View], t)
	}

	t := &Translation{
		Source: m,
		DB:     m.DB.Share(),
		nvSet:  map[string]bool{},
		opts:   opts,
	}
	for _, v := range m.Views {
		vts := byView[v.Name]
		if len(vts) == 0 {
			continue // empty view: Wᵢ is identically false
		}
		nvName := opts.NVPrefix + v.Name
		if t.DB.Relation(nvName) != nil {
			return nil, fmt.Errorf("core: NV relation name %s clashes with an existing relation", nvName)
		}

		pureDenial := true
		for _, vt := range vts {
			if vt.Weight != 0 {
				pureDenial = false
				break
			}
		}

		if pureDenial && !opts.NoDenialOptimization {
			// NV would be deterministic (weight (1-0)/0 = ∞) and, since NV
			// contains every possible view tuple, NVᵢ(x̄) is implied by
			// Qᵢ(x̄): drop it from Wᵢ.
			t.DenialViews = append(t.DenialViews, v.Name)
			t.W.Disjuncts = append(t.W.Disjuncts, v.Def.Disjuncts...)
			continue
		}

		var nv []ViewTuple
		for _, vt := range vts {
			if vt.Weight == 1 && !opts.KeepIndependent {
				t.PrunedIndependent++
			} else {
				nv = append(nv, vt)
			}
		}
		if len(nv) == 0 {
			continue // all tuples pruned: Wᵢ can never fire
		}
		if _, err := t.DB.CreateRelation(nvName, false, v.Head...); err != nil {
			return nil, err
		}
		for _, vt := range nv {
			w0 := math.Inf(1) // w = 0: hard constraint tuple, probability 1
			if vt.Weight != 0 {
				w0 = (1 - vt.Weight) / vt.Weight
			}
			if _, err := t.DB.Insert(nvName, w0, vt.Head...); err != nil {
				return nil, fmt.Errorf("core: view %s: %w", v.Name, err)
			}
		}
		t.NVRelations = append(t.NVRelations, nvName)
		t.nvSet[nvName] = true

		// Wᵢ: add the NV atom over the head variables to every disjunct.
		nvArgs := make([]ucq.Term, len(v.Head))
		for i, h := range v.Head {
			nvArgs[i] = ucq.V(h)
		}
		for _, d := range v.Def.Disjuncts {
			wi := ucq.CQ{
				Atoms: append([]ucq.Atom{{Rel: nvName, Args: nvArgs}}, d.Atoms...),
				Preds: d.Preds,
			}
			t.W.Disjuncts = append(t.W.Disjuncts, wi)
		}
	}
	t.plan()
	return t, nil
}

// plan fixes W's compile permutation Π: separator-first when W has a
// (determinism-aware) separator, identity otherwise. W and the schema never
// change under ApplyDelta — a batch that could change them re-translates —
// so it is derived once per translation, not once per batch.
func (t *Translation) plan() {
	t.perm = obdd.IdentityPerm(t.DB)
	skip := ucq.SkipDeterministic(func(rel string) bool {
		r := t.DB.Relation(rel)
		return r != nil && r.Deterministic
	}, ucq.SkipGround)
	if sep, ok := t.W.FindSeparatorSkip(skip); ok {
		t.perm = obdd.SeparatorFirstPerm(t.DB, sep)
	}
}

// HasConstraints reports whether W is non-trivial (some view produced
// constraints). When false, the MVDB is an ordinary INDB and P = P0.
func (t *Translation) HasConstraints() bool { return len(t.W.Disjuncts) > 0 }

// ValidateQuery performs the static input checks on a query over the public
// schema: every mentioned relation must exist with matching arity, and the
// internal NV relations are off limits. An error here means the query itself
// is malformed — as opposed to a failure during evaluation — so callers
// (e.g. the HTTP server) can classify it as bad input.
func (t *Translation) ValidateQuery(q ucq.UCQ) error {
	for _, rel := range q.Relations() {
		if t.nvSet[rel] {
			return fmt.Errorf("core: query mentions internal relation %s", rel)
		}
	}
	for _, d := range q.Disjuncts {
		for _, a := range d.Atoms {
			r := t.DB.Relation(a.Rel)
			if r == nil {
				return fmt.Errorf("core: unknown relation %s", a.Rel)
			}
			if len(a.Args) != r.Arity() {
				return fmt.Errorf("core: relation %s has arity %d, got %d arguments", a.Rel, r.Arity(), len(a.Args))
			}
		}
	}
	return nil
}

// TranslationSnapshot is the serializable part of a Translation (the source
// MVDB's views and weight functions are Go closures and are not persisted;
// a restored Translation supports query evaluation but not re-translation).
type TranslationSnapshot struct {
	W                 ucq.UCQ
	NVRelations       []string
	DenialViews       []string
	PrunedIndependent int
}

// Snapshot captures the translation's serializable state (pair it with
// DB.Snapshot for the data).
func (t *Translation) Snapshot() TranslationSnapshot {
	return TranslationSnapshot{
		W:                 t.W,
		NVRelations:       append([]string(nil), t.NVRelations...),
		DenialViews:       append([]string(nil), t.DenialViews...),
		PrunedIndependent: t.PrunedIndependent,
	}
}

// RestoreTranslation rebuilds a Translation from a snapshot and its
// database. The Source MVDB is nil on the result.
func RestoreTranslation(db *engine.Database, s TranslationSnapshot) (*Translation, error) {
	t := &Translation{
		DB:                db,
		W:                 s.W,
		NVRelations:       append([]string(nil), s.NVRelations...),
		DenialViews:       append([]string(nil), s.DenialViews...),
		PrunedIndependent: s.PrunedIndependent,
		nvSet:             map[string]bool{},
	}
	for _, nv := range s.NVRelations {
		if db.Relation(nv) == nil {
			return nil, fmt.Errorf("core: snapshot references missing NV relation %s", nv)
		}
		t.nvSet[nv] = true
	}
	for _, d := range s.W.Disjuncts {
		for _, a := range d.Atoms {
			if db.Relation(a.Rel) == nil {
				return nil, fmt.Errorf("core: snapshot's W references missing relation %s", a.Rel)
			}
		}
	}
	t.plan()
	return t, nil
}

// IsNVVar reports whether a Boolean variable belongs to one of the internal
// NV relations introduced by the translation (as opposed to a real
// probabilistic tuple of the source database).
func (t *Translation) IsNVVar(v int) bool {
	ref, err := t.DB.VarRef(v)
	if err != nil {
		return false
	}
	return t.nvSet[ref.Rel]
}
