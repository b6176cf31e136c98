package sim

import (
	"context"
	"testing"

	"repro/internal/config"
	"repro/internal/workload"
)

// TestHungResult pins the watchdog path: a cycle budget far too small for
// the requested instructions yields a Hung result (not an error) with
// partial counters, and the result is served from cache on re-request.
func TestHungResult(t *testing.T) {
	p, err := workload.ByName("crafty")
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{WarmupInstrs: 0, MeasureInstrs: 50_000, MaxCycles: 64}
	s := NewSuite(opt)
	res, err := s.GetOpt(context.Background(), config.SS1(), p, s.Options())
	if err != nil {
		t.Fatalf("budgeted run errored: %v", err)
	}
	if !res.Hung {
		t.Fatalf("50k instructions in 64 cycles did not hang: %+v", res.Stats)
	}
	if res.Stats.Retired >= opt.MeasureInstrs {
		t.Fatal("hung result claims full retirement")
	}
	if _, err := s.GetOpt(context.Background(), config.SS1(), p, s.Options()); err != nil {
		t.Fatal(err)
	}
	if got := s.Counters().Runs; got != 1 {
		t.Fatalf("hung result was not cached: %d runs", got)
	}
}

// TestFaultConfigsDoNotCollide pins the cache key: two machines that
// differ only in fault-injection fields (same display name) must not
// share a cache entry — a campaign's trials all carry the same name.
func TestFaultConfigsDoNotCollide(t *testing.T) {
	p, err := workload.ByName("crafty")
	if err != nil {
		t.Fatal(err)
	}
	s := NewSuite(Options{WarmupInstrs: 1000, MeasureInstrs: 5000})
	a := config.SHREC()
	a.FaultRate = 1e-3
	a.FaultSeed = 1
	b := a
	b.FaultSeed = 2

	ra, err := s.GetOpt(context.Background(), a, p, s.Options())
	if err != nil {
		t.Fatal(err)
	}
	rb, err := s.GetOpt(context.Background(), b, p, s.Options())
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Counters().Runs; got != 2 {
		t.Fatalf("distinct fault seeds collided in the cache: %d runs", got)
	}
	// Different seeds sample different fault sites; the runs should not be
	// byte-identical (detection timings differ).
	if ra.Stats == rb.Stats {
		t.Log("warning: distinct seeds produced identical stats (possible but unlikely)")
	}
}
