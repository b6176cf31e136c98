package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/trace"
)

// runTo drives the engine until its total retired count reaches n.
func runTo(t *testing.T, e *Engine, n uint64) Stats {
	t.Helper()
	st, err := e.RunBudget(context.Background(), n, 0)
	if err != nil {
		t.Fatalf("run to %d: %v", n, err)
	}
	return st
}

// assertSameState compares the externally visible counters of two engines
// that should have executed identical histories.
func assertSameState(t *testing.T, label string, a, b *Engine) {
	t.Helper()
	if sa, sb := a.Stats(), b.Stats(); sa != sb {
		t.Errorf("%s: Stats diverge\n a: %+v\n b: %+v", label, sa, sb)
	}
	if ia, ib := a.Pool().Issued(), b.Pool().Issued(); ia != ib {
		t.Errorf("%s: FU issued diverge: %v vs %v", label, ia, ib)
	}
	if ma, mb := a.Mem().AttemptCounters(), b.Mem().AttemptCounters(); ma != mb {
		t.Errorf("%s: memory attempt counters diverge\n a: %+v\n b: %+v", label, ma, mb)
	}
}

// TestCheckpointRoundTrip checkpoints every equivalence machine mid-run and
// requires the original engine, a checkpoint-spawned engine, and a second
// engine spawned after the first finished to reach byte-identical state —
// proving the checkpoint is a complete capture and that running one spawn
// never perturbs the checkpoint.
func TestCheckpointRoundTrip(t *testing.T) {
	p := memWorkload(7)
	const mid, end = 4000, 16000
	for _, m := range equivalenceMachines() {
		t.Run(m.Name, func(t *testing.T) {
			e := New(m, trace.New(p))
			runTo(t, e, mid)
			cp, err := e.Checkpoint()
			if err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
			if got := cp.FetchSeq(); got < mid {
				t.Errorf("checkpoint FetchSeq %d below retired count %d", got, mid)
			}
			clone := cp.NewEngine()
			runTo(t, e, end)
			runTo(t, clone, end)
			assertSameState(t, "original vs clone", e, clone)

			// The checkpoint must be unchanged by either continuation.
			clone2 := cp.NewEngine()
			runTo(t, clone2, end)
			assertSameState(t, "clone vs late clone", clone, clone2)
		})
	}
}

// TestCheckpointRoundTripTickLoop covers the reference tick-by-tick loop:
// the checkpoint must also capture the oracle-free path's state exactly.
func TestCheckpointRoundTripTickLoop(t *testing.T) {
	p := memWorkload(9)
	m := config.SS2(config.Factors{})
	e := New(m, trace.New(p), WithTickLoop())
	runTo(t, e, 3000)
	cp, err := e.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	clone := cp.NewEngine()
	runTo(t, e, 9000)
	runTo(t, clone, 9000)
	assertSameState(t, "tick-loop original vs clone", e, clone)
}

// TestCheckpointRestore rewinds an engine in place and requires the replay
// to match the first continuation exactly.
func TestCheckpointRestore(t *testing.T) {
	p := memWorkload(13)
	e := New(config.SHREC(), trace.New(p))
	runTo(t, e, 4000)
	cp, err := e.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	want := runTo(t, e, 16000)
	e.Restore(cp)
	if got := e.Stats(); got != cp.Stats() {
		t.Fatalf("restore did not rewind stats: %+v vs %+v", got, cp.Stats())
	}
	got := runTo(t, e, 16000)
	if want != got {
		t.Errorf("replay after Restore diverged\n first: %+v\nreplay: %+v", want, got)
	}
}

// noCloneSource wraps a Source while hiding its CloneSource method.
type noCloneSource struct{ s trace.Source }

func (n noCloneSource) Next() isa.Inst          { return n.s.Next() }
func (n noCloneSource) NextWrongPath() isa.Inst { return n.s.NextWrongPath() }

// TestCheckpointRequiresCloneSource pins the error contract for sources
// that cannot snapshot their stream position.
func TestCheckpointRequiresCloneSource(t *testing.T) {
	e := New(config.SS1(), noCloneSource{trace.New(testWorkload(3))})
	if _, err := e.Checkpoint(); !errors.Is(err, ErrNoCloneSource) {
		t.Fatalf("Checkpoint error = %v, want ErrNoCloneSource", err)
	}
}

// TestCheckpointFaultReinjection validates the warmup-sharing contract
// fault campaigns rely on: a fault-free engine checkpointed before the
// injection window, re-armed with SetFaultConfig, must replay the exact
// trial a cold-started faulty engine produces — because fault eligibility
// checks the window before drawing randomness, the pre-window prefix
// consumes no injector state.
func TestCheckpointFaultReinjection(t *testing.T) {
	p := memWorkload(17)
	const (
		mid, end = 4000, 16000
		rate     = 2e-4
		seed     = 123
		lo, hi   = 8000, 18000
	)

	cold := config.SHREC()
	cold.FaultRate = rate
	cold.FaultSeed = seed
	cold.FaultWindowLo, cold.FaultWindowHi = lo, hi
	ec := New(cold, trace.New(p))
	runTo(t, ec, mid)

	base := config.SHREC()
	eb := New(base, trace.New(p))
	runTo(t, eb, mid)
	cp, err := eb.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if fs := cp.FetchSeq(); fs > lo {
		t.Fatalf("test premise broken: checkpoint FetchSeq %d already past window start %d", fs, lo)
	}

	clone := cp.NewEngine()
	clone.SetFaultConfig(rate, seed, lo, hi)
	runTo(t, ec, end)
	runTo(t, clone, end)
	assertSameState(t, "cold faulty vs checkpointed+rearmed", ec, clone)
	if clone.Stats().FaultsInjected == 0 {
		t.Error("no faults injected inside the window; test exercised nothing")
	}
}
