// Package budget defines the resource envelope of one evaluation — the
// deadline, node, and pair-visit bounds that make query answering an
// interruptible, resource-bounded computation instead of an open-ended one.
// OBDD compilation and MV-index intersection are deep recursions whose cost
// is data-dependent and, in the worst case, exponential (Section 4 of the
// paper frames MVDB query answering as potentially expensive compilation);
// a serving system must be able to give up cleanly.
//
// Two abort channels exist:
//
//   - Cooperative returns: loops that already return errors (per-block
//     compilation, per-answer query evaluation) check Check and propagate.
//   - Panic/Catch: hot recursions that return bare values (Apply synthesis,
//     MkNode hash-consing, the MVIntersect recursions) abort through
//     Panic(err), which the package-boundary entry points convert back into
//     an error with Catch. The panic payload is an unexported type, so an
//     unrelated panic is never swallowed.
//
// Violations are reported as typed errors: ErrBudgetExceeded for node/pair
// limits, ErrCanceled for context cancellation and deadline expiry. Callers
// classify with errors.Is — the HTTP layer maps ErrCanceled to 408 and
// ErrBudgetExceeded to 503.
package budget

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Budget bounds one compilation or query evaluation. The zero value means
// unlimited.
type Budget struct {
	// MaxNodes bounds the number of OBDD nodes allocated by the evaluation,
	// summed across the owning manager and every scratch manager derived
	// from it (0 = unlimited).
	MaxNodes int
	// MaxPairs bounds the memoized (query node, index node) pairs visited by
	// one MV-index intersection (0 = unlimited).
	MaxPairs int
	// Deadline is an absolute wall-clock cutoff (zero = none). It is checked
	// at the same periodic points as context cancellation, so it works even
	// for callers that do not thread a context.
	Deadline time.Time
}

// IsZero reports whether the budget imposes no limits.
func (b Budget) IsZero() bool {
	return b.MaxNodes == 0 && b.MaxPairs == 0 && b.Deadline.IsZero()
}

// Typed failure classes. Concrete errors wrap one of these, so callers use
// errors.Is to classify.
var (
	// ErrBudgetExceeded marks node- or pair-budget violations: the query is
	// too expensive for the configured limits.
	ErrBudgetExceeded = errors.New("resource budget exceeded")
	// ErrCanceled marks cancellation and deadline expiry: the caller (or its
	// deadline) gave up before the evaluation finished.
	ErrCanceled = errors.New("evaluation canceled")
)

// Exceeded builds an ErrBudgetExceeded error naming the exhausted resource.
func Exceeded(resource string, limit int) error {
	return fmt.Errorf("%s budget (limit %d): %w", resource, limit, ErrBudgetExceeded)
}

// Canceled wraps the cause of a cancellation in ErrCanceled.
func Canceled(cause error) error {
	if cause == nil {
		cause = context.Canceled
	}
	return fmt.Errorf("%v: %w", cause, ErrCanceled)
}

// Check returns a non-nil ErrCanceled-wrapped error when ctx is done or the
// deadline has passed. Both arguments are optional (nil / zero).
func Check(ctx context.Context, deadline time.Time) error {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return Canceled(err)
		}
	}
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		return Canceled(context.DeadlineExceeded)
	}
	return nil
}

// violation is the panic payload of Panic; unexported so Catch can never
// swallow a panic it does not own.
type violation struct{ err error }

// Panic aborts the current evaluation with err. It must only be raised under
// a Catch frame (every budget-armed entry point installs one).
func Panic(err error) {
	panic(violation{err})
}

// Catch runs fn, converting a Panic raised below it into the carried error.
// Any other panic is re-raised untouched.
func Catch(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			v, ok := r.(violation)
			if !ok {
				panic(r)
			}
			err = v.err
		}
	}()
	fn()
	return nil
}
