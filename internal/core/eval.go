package core

import (
	"context"
	"sort"
	"time"

	"mvdb/internal/budget"
	"mvdb/internal/engine"
	"mvdb/internal/lineage"
	"mvdb/internal/obdd"
	"mvdb/internal/ucq"
)

// Answer is one output tuple with its marginal probability.
type Answer struct {
	Head []engine.Value
	Prob float64
}

// WLineage returns the lineage of W on the translated database — the
// quantity plotted in Figure 4.
func (t *Translation) WLineage() (lineage.DNF, error) {
	return ucq.EvalBoolean(t.DB, t.W)
}

// AnswerRows is the one rows → answers loop, behind mvindex.Index.Query and
// the baseline Evaluator's Query alike: prob runs once per row, in row order, on the
// calling goroutine. A query has two or three answers and each costs at most
// its span (Prop. 3), so there is nothing for a worker pool to win. ctx and
// the deadline (both optional) are checked before every row, so a canceled
// query stops after the current answer; any error aborts the whole query and
// no partial answer set is returned.
func AnswerRows(ctx context.Context, deadline time.Time, rows []ucq.AnswerRow, prob func(ucq.AnswerRow) (float64, error)) ([]Answer, error) {
	out := make([]Answer, len(rows))
	for i, r := range rows {
		if err := budget.Check(ctx, deadline); err != nil {
			return nil, err
		}
		p, err := prob(r)
		if err != nil {
			return nil, err
		}
		out[i] = Answer{Head: r.Head, Prob: p}
	}
	return out, nil
}

// WPerm returns the attribute permutation used to compile W: separator-first
// when W has a (determinism-aware) separator, identity otherwise. Callers
// must not modify it.
func (t *Translation) WPerm() obdd.Perm { return t.perm }

// CompileW compiles W into a fresh manager with the given options. Every
// caller gets its own manager; the translation keeps none.
func (t *Translation) CompileW(opts obdd.CompileOptions) (*obdd.Manager, obdd.NodeID, obdd.CompileStats, error) {
	return obdd.Compile(t.DB, t.W, t.WPerm(), opts)
}

// TopK returns the k highest-probability answers (ties broken by head
// tuple), without mutating the input.
func TopK(answers []Answer, k int) []Answer {
	out := append([]Answer(nil), answers...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Prob != out[j].Prob {
			return out[i].Prob > out[j].Prob
		}
		return engine.TupleKey(out[i].Head) < engine.TupleKey(out[j].Head)
	})
	if k < len(out) {
		out = out[:k]
	}
	return out
}
