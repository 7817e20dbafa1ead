package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"mvdb/internal/budget"
	"mvdb/internal/engine"
	"mvdb/internal/ucq"
)

// TestAnswerRowsStopsBetweenAnswers: the loop runs on the caller, in row
// order, and a cancellation that arrives while one answer is computed stops
// the query before the next; nothing partial comes back.
func TestAnswerRowsStopsBetweenAnswers(t *testing.T) {
	rows := []ucq.AnswerRow{
		{Head: []engine.Value{engine.Int(1)}},
		{Head: []engine.Value{engine.Int(2)}},
		{Head: []engine.Value{engine.Int(3)}},
	}
	var seen []int64
	prob := func(r ucq.AnswerRow) (float64, error) {
		seen = append(seen, r.Head[0].Int)
		return float64(r.Head[0].Int) / 10, nil
	}
	out, err := AnswerRows(nil, time.Time{}, rows, prob)
	if err != nil || len(out) != 3 || out[0].Prob != 0.1 || out[2].Prob != 0.3 || out[1].Head[0].Int != 2 {
		t.Fatalf("unbounded: %v, %v", out, err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	seen = nil
	out, err = AnswerRows(ctx, time.Time{}, rows, func(r ucq.AnswerRow) (float64, error) {
		cancel()
		return prob(r)
	})
	if !errors.Is(err, budget.ErrCanceled) || out != nil {
		t.Errorf("canceled during the first answer: %v, %v; want nil, ErrCanceled", out, err)
	}
	if len(seen) != 1 || seen[0] != 1 {
		t.Errorf("answers computed after the cancellation: %v, want [1]", seen)
	}
}
