package sim

import (
	"context"
	"testing"

	"repro/internal/config"
	"repro/internal/workload"
)

// normalizeParallelism strips the one Options field that legitimately
// differs between a sequential and a parallel run of the same simulation.
func normalizeParallelism(r Result) Result {
	r.Options.Parallelism = 0
	return r
}

// TestIntervalParallelMatchesSequential is the acceptance test for
// interval-parallel simulation: the stitched result — every counter and
// the order-folded architectural signature — must be byte-identical
// whether the intervals run one at a time or concurrently.
func TestIntervalParallelMatchesSequential(t *testing.T) {
	p, err := workload.ByName("parser")
	if err != nil {
		t.Fatal(err)
	}
	machines := []config.Machine{
		config.SS1(),
		config.SHREC(),
		config.MEEK(2),
		config.SHREC().WithContexts(4),
		config.FlexMachine(512, 128),
	}
	for _, m := range machines {
		t.Run(m.Name, func(t *testing.T) {
			opt := Options{WarmupInstrs: 3000, MeasureInstrs: 20000, Intervals: 4}
			seq := opt
			seq.Parallelism = 1
			par := opt
			par.Parallelism = 8

			a, err := RunContext(context.Background(), m, p, seq)
			if err != nil {
				t.Fatal(err)
			}
			b, err := RunContext(context.Background(), m, p, par)
			if err != nil {
				t.Fatal(err)
			}
			if normalizeParallelism(a) != normalizeParallelism(b) {
				t.Errorf("interval-parallel result diverged from sequential\n seq: %+v\n par: %+v", a, b)
			}
			// Each interval's final cycle may overshoot by up to the retire
			// width, exactly like a classic run's final cycle.
			if r := a.Stats.Retired; r < opt.MeasureInstrs || r > opt.MeasureInstrs+64 {
				t.Errorf("stitched run retired %d, want %d (+ retire-width slack)", r, opt.MeasureInstrs)
			}
			if a.Stats.ArchSig == 0 {
				t.Error("stitched ArchSig is zero; signature fold exercised nothing")
			}
		})
	}
}

// TestIntervalRemainderDistribution pins that a measure length not
// divisible by the interval count still retires exactly MeasureInstrs
// (the last interval absorbs the remainder).
func TestIntervalRemainderDistribution(t *testing.T) {
	p, _ := workload.ByName("gzip-graphic")
	opt := Options{WarmupInstrs: 2000, MeasureInstrs: 10001, Intervals: 3, Parallelism: 3}
	res, err := RunContext(context.Background(), config.SS1(), p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r := res.Stats.Retired; r < opt.MeasureInstrs || r > opt.MeasureInstrs+64 {
		t.Fatalf("retired %d, want %d (+ retire-width slack)", r, opt.MeasureInstrs)
	}
}

// TestIntervalCountTooHigh pins the error for more intervals than
// measured instructions.
func TestIntervalCountTooHigh(t *testing.T) {
	p, _ := workload.ByName("gzip-graphic")
	opt := Options{MeasureInstrs: 3, Intervals: 5}
	if _, err := RunContext(context.Background(), config.SS1(), p, opt); err == nil {
		t.Fatal("expected an error for Intervals > MeasureInstrs")
	}
}

// TestIntervalKeySemantics pins the cache-key contract: Intervals 0 and 1
// are both the classic run and share entries; a sampled split never
// collides with the classic run or with a different split.
func TestIntervalKeySemantics(t *testing.T) {
	m, p := config.SS1(), workload.All()[0]
	opt := tinyOpts()
	zero, one := opt, opt
	one.Intervals = 1
	four, eight := opt, opt
	four.Intervals = 4
	eight.Intervals = 8
	if key(m, p, zero) != key(m, p, one) {
		t.Error("Intervals 0 and 1 must share a cache key")
	}
	if key(m, p, zero) == key(m, p, four) || key(m, p, four) == key(m, p, eight) {
		t.Error("distinct interval splits must not collide")
	}
	if digest(m, p, zero) != digest(m, p, one) {
		t.Error("Intervals 0 and 1 must share a store digest")
	}
	if digest(m, p, zero) == digest(m, p, four) {
		t.Error("distinct interval splits must not collide in the store")
	}
}

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
