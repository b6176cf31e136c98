package telemetry

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestSpanBreakdown(t *testing.T) {
	s := NewSpan()
	s.Record("fetch", 100*time.Millisecond)
	s.Record("run", 200*time.Millisecond)
	s.Record("fetch", 300*time.Millisecond)
	bd := s.Breakdown()
	if len(bd) != 2 {
		t.Fatalf("breakdown = %d phases, want 2", len(bd))
	}
	// First-recorded order, cumulative counts and totals.
	if bd[0].Phase != "fetch" || bd[0].Count != 2 || bd[0].Seconds < 0.39 || bd[0].Seconds > 0.41 {
		t.Fatalf("fetch stat = %+v", bd[0])
	}
	if bd[1].Phase != "run" || bd[1].Count != 1 {
		t.Fatalf("run stat = %+v", bd[1])
	}
}

func TestSpanNilSafe(t *testing.T) {
	var s *Span
	s.Record("x", time.Second) // must not panic
	if s.Breakdown() != nil {
		t.Fatal("nil span breakdown not nil")
	}
	if s.Tee(func(string, float64) {}) != nil {
		t.Fatal("nil span Tee not nil")
	}
	if SpanFrom(context.Background()) != nil {
		t.Fatal("empty context has a span")
	}
	// ObserveStage on a bare context is a no-op.
	ObserveStage(context.Background(), "x", time.Second)
}

func TestSpanTee(t *testing.T) {
	var mu sync.Mutex
	got := map[string]float64{}
	s := NewSpan().Tee(func(phase string, sec float64) {
		mu.Lock()
		got[phase] += sec
		mu.Unlock()
	})
	s.Record("a", 250*time.Millisecond)
	s.Record("a", 250*time.Millisecond)
	if v := got["a"]; v < 0.49 || v > 0.51 {
		t.Fatalf("teed total = %g, want ~0.5", v)
	}
}

func TestObserveStageDualWrite(t *testing.T) {
	s := NewSpan()
	var observed string
	ctx := WithSpan(context.Background(), s)
	ctx = WithStageObserver(ctx, func(stage string, sec float64) { observed = stage })
	ObserveStage(ctx, "recovery_rollback", 10*time.Millisecond)
	if observed != "recovery_rollback" {
		t.Fatalf("observer saw %q", observed)
	}
	bd := s.Breakdown()
	if len(bd) != 1 || bd[0].Phase != "recovery_rollback" || bd[0].Count != 1 {
		t.Fatalf("span breakdown = %+v", bd)
	}
}

func TestSpanConcurrent(t *testing.T) {
	s := NewSpan()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				s.Record("trial", time.Millisecond)
			}
		}()
	}
	wg.Wait()
	bd := s.Breakdown()
	if len(bd) != 1 || bd[0].Count != 4000 {
		t.Fatalf("breakdown = %+v, want one phase with count 4000", bd)
	}
}
