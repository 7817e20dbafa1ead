package budget

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestIsZero(t *testing.T) {
	if !(Budget{}).IsZero() {
		t.Error("zero budget not IsZero")
	}
	for _, b := range []Budget{
		{MaxNodes: 1},
		{MaxPairs: 1},
		{Deadline: time.Now()},
	} {
		if b.IsZero() {
			t.Errorf("%+v reported IsZero", b)
		}
	}
}

func TestErrorClasses(t *testing.T) {
	if err := Exceeded("obdd node", 100); !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("Exceeded not ErrBudgetExceeded: %v", err)
	}
	if err := Canceled(context.DeadlineExceeded); !errors.Is(err, ErrCanceled) {
		t.Errorf("Canceled not ErrCanceled: %v", err)
	}
	if errors.Is(Exceeded("x", 1), ErrCanceled) || errors.Is(Canceled(nil), ErrBudgetExceeded) {
		t.Error("error classes overlap")
	}
}

func TestCheck(t *testing.T) {
	if err := Check(nil, time.Time{}); err != nil {
		t.Errorf("unlimited check failed: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := Check(ctx, time.Time{}); err != nil {
		t.Errorf("live context: %v", err)
	}
	cancel()
	if err := Check(ctx, time.Time{}); !errors.Is(err, ErrCanceled) {
		t.Errorf("canceled context: %v", err)
	}
	if err := Check(nil, time.Now().Add(-time.Second)); !errors.Is(err, ErrCanceled) {
		t.Errorf("passed deadline: %v", err)
	}
	if err := Check(nil, time.Now().Add(time.Hour)); err != nil {
		t.Errorf("future deadline: %v", err)
	}
}

func TestPanicCatch(t *testing.T) {
	want := Exceeded("pairs", 5)
	err := Catch(func() { Panic(want) })
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("Catch returned %v", err)
	}
	if err := Catch(func() {}); err != nil {
		t.Errorf("clean run returned %v", err)
	}
	// Foreign panics pass through untouched.
	defer func() {
		if r := recover(); r != "boom" {
			t.Errorf("foreign panic altered: %v", r)
		}
	}()
	_ = Catch(func() { panic("boom") })
}
