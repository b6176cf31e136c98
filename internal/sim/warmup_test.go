package sim

import (
	"context"
	"testing"

	"repro/internal/config"
	"repro/internal/workload"
)

// TestSuiteWarmupSharing pins the fault-campaign fast path: two trials
// that differ only in their injection seed must both resume the shared
// warmup checkpoint, and each must be byte-identical to its cold run.
func TestSuiteWarmupSharing(t *testing.T) {
	p, err := workload.ByName("parser")
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{WarmupInstrs: 4000, MeasureInstrs: 12000, Parallelism: 4}
	trial := func(seed uint64) config.Machine {
		m := config.SHREC()
		m.FaultRate = 2e-4
		m.FaultSeed = seed
		// The window must start past the warmup's fetch frontier for the
		// shared checkpoint to be sound; leave generous slack.
		m.FaultWindowLo, m.FaultWindowHi = 8000, 16000
		return m
	}

	s := NewSuite(opt)
	ctx := context.Background()
	for _, seed := range []uint64{1, 2} {
		m := trial(seed)
		warm, err := s.GetOpt(ctx, m, p, opt)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := RunContext(ctx, m, p, opt)
		if err != nil {
			t.Fatal(err)
		}
		if warm.Stats != cold.Stats || warm.Hung != cold.Hung {
			t.Errorf("seed %d: checkpoint-resumed trial diverged from cold run\nwarm: %+v\ncold: %+v",
				seed, warm.Stats, cold.Stats)
		}
	}
	if got := s.Counters().WarmupShares; got != 2 {
		t.Errorf("WarmupShares = %d, want 2 (both trials must resume the shared checkpoint)", got)
	}
}

// TestWarmupSharingRefusedWhenWindowOverlaps pins the soundness guard: a
// trial whose injection window opens before the warmup's fetch frontier
// must run cold rather than resume a checkpoint that may already have
// needed fault randomness.
func TestWarmupSharingRefusedWhenWindowOverlaps(t *testing.T) {
	p, _ := workload.ByName("parser")
	opt := Options{WarmupInstrs: 4000, MeasureInstrs: 8000}
	m := config.SHREC()
	m.FaultRate = 2e-4
	m.FaultSeed = 7
	m.FaultWindowLo, m.FaultWindowHi = 1000, 16000

	s := NewSuite(opt)
	warm, err := s.GetOpt(context.Background(), m, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := RunContext(context.Background(), m, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats != cold.Stats {
		t.Errorf("overlapping-window trial diverged from cold run\ngot:  %+v\ncold: %+v", warm.Stats, cold.Stats)
	}
	if got := s.Counters().WarmupShares; got != 0 {
		t.Errorf("WarmupShares = %d, want 0 (window overlaps warmup)", got)
	}
}
