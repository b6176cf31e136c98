package sim

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/workload"
)

// recoveryTrial is a SHREC machine with checkpoint recovery and an
// injection window opening after the warmup, so the warmup-share fast
// path applies.
func recoveryTrial(seed uint64) config.Machine {
	m := config.SHREC().WithCkptInterval(1024).WithCkptDepth(2)
	m.FaultRate = 2e-4
	m.FaultSeed = seed
	m.FaultWindowLo, m.FaultWindowHi = 8000, 16000
	return m
}

// TestRecoveryRunProducesTrace pins the Result wiring: a machine with a
// checkpoint interval gets a Recovery trace, completes the measured
// length, and keeps a clean committed timeline.
func TestRecoveryRunProducesTrace(t *testing.T) {
	p, err := workload.ByName("parser")
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{WarmupInstrs: 4000, MeasureInstrs: 12000}
	res, err := RunContext(context.Background(), recoveryTrial(1), p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovery == nil {
		t.Fatal("recovery machine produced no trace")
	}
	if res.Recovery.Interval != 1024 || res.Recovery.Depth != 2 {
		t.Errorf("trace policy %d/%d, want 1024/2", res.Recovery.Interval, res.Recovery.Depth)
	}
	if res.Recovery.Checkpoints == 0 {
		t.Error("no checkpoints captured")
	}
	if res.Stats.Retired != opt.MeasureInstrs {
		t.Errorf("retired %d, want exactly %d (recovery runs use exact chunking)",
			res.Stats.Retired, opt.MeasureInstrs)
	}
	// And a fault-free machine must not grow a trace.
	plain, err := RunContext(context.Background(), config.SHREC(), p, Options{WarmupInstrs: 2000, MeasureInstrs: 6000})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Recovery != nil {
		t.Errorf("checkpoint-free machine produced a trace: %+v", plain.Recovery)
	}
}

// TestRecoveryWarmupSharing pins that recovery trials ride the shared
// warmup checkpoint and stay byte-identical to a cold run — trace
// included — and that recovery machines with different policies share one
// warmup checkpoint with plain trials over the same base machine.
func TestRecoveryWarmupSharing(t *testing.T) {
	p, err := workload.ByName("parser")
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{WarmupInstrs: 4000, MeasureInstrs: 12000, Parallelism: 4}
	s := NewSuite(opt)
	ctx := context.Background()
	for _, seed := range []uint64{1, 2} {
		m := recoveryTrial(seed)
		warm, err := s.GetOpt(ctx, m, p, opt)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := RunContext(ctx, m, p, opt)
		if err != nil {
			t.Fatal(err)
		}
		if warm.Stats != cold.Stats || warm.Hung != cold.Hung {
			t.Errorf("seed %d: checkpoint-resumed recovery trial diverged from cold run\nwarm: %+v\ncold: %+v",
				seed, warm.Stats, cold.Stats)
		}
		if !reflect.DeepEqual(warm.Recovery, cold.Recovery) {
			t.Errorf("seed %d: recovery traces diverged\nwarm: %+v\ncold: %+v",
				seed, warm.Recovery, cold.Recovery)
		}
	}
	if got := s.Counters().WarmupShares; got != 2 {
		t.Errorf("WarmupShares = %d, want 2", got)
	}
	if got := s.Counters().RecoveryRuns; got != 2 {
		t.Errorf("RecoveryRuns = %d, want 2", got)
	}
}

// TestRecoveryKeySemantics pins that trials differing only in recovery
// policy get distinct cache entries even under an identical display name.
func TestRecoveryKeySemantics(t *testing.T) {
	p := workload.All()[0]
	a := recoveryTrial(1)
	b := a.WithCkptInterval(2048)
	b.Name = a.Name // force a name collision; the key must still split
	if key(a, p, tinyOpts()) == key(b, p, tinyOpts()) {
		t.Error("distinct checkpoint intervals collided on the cache key")
	}
	c := a
	c.CkptDepth = 4
	c.Name = a.Name
	if key(a, p, tinyOpts()) == key(c, p, tinyOpts()) {
		t.Error("distinct checkpoint depths collided on the cache key")
	}
}

// TestIntervalParallelRejectsRecovery pins the guard: rollback cannot
// cross independently simulated interval boundaries, so the combination
// is an error, not an approximation.
func TestIntervalParallelRejectsRecovery(t *testing.T) {
	p := workload.All()[0]
	opt := Options{WarmupInstrs: 1000, MeasureInstrs: 8000, Intervals: 4}
	_, err := RunContext(context.Background(), recoveryTrial(1), p, opt)
	if err == nil {
		t.Fatal("interval-parallel run with checkpoint recovery was accepted")
	}
	if !strings.Contains(err.Error(), "checkpoint recovery") {
		t.Errorf("unhelpful error: %v", err)
	}
}
