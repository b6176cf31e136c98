package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/trace"
)

// An already-cancelled context stops the run at the first checkpoint,
// returning the context error with consistent partial stats.
func TestRunContextCancelled(t *testing.T) {
	e := New(config.SS1(), trace.New(testWorkload(51)))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st, err := e.RunBudget(ctx, 100_000_000, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// At most one checkpoint interval of cycles may have elapsed.
	if st.Cycles > 2*ctxCheckInterval {
		t.Fatalf("ran %d cycles after cancellation", st.Cycles)
	}
}

// Cancellation mid-run lands promptly (within checkpoint granularity).
func TestRunContextCancelMidRun(t *testing.T) {
	e := New(config.SHREC(), trace.New(testWorkload(53)))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := e.RunBudget(ctx, 1_000_000_000, 0)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not stop after cancellation")
	}
}

// A deadline bounds WarmupContext the same way.
func TestWarmupContextDeadline(t *testing.T) {
	e := New(config.SS1(), trace.New(testWorkload(55)))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	err := e.WarmupContext(ctx, 1_000_000_000)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

// The context plumbing must not change simulation results: a run under a
// live, cancellable context is cycle-identical to one under Background.
func TestRunContextDeterministicVsRun(t *testing.T) {
	a := New(config.SS2(config.Factors{S: true}), trace.New(testWorkload(57)))
	b := New(config.SS2(config.Factors{S: true}), trace.New(testWorkload(57)))
	sa, err := a.RunBudget(context.Background(), 20000, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sb, err := b.RunBudget(ctx, 20000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sa != sb {
		t.Fatalf("context run diverged:\n%+v\n%+v", sa, sb)
	}
}
