package core

import (
	"context"
	"testing"

	"repro/internal/config"
	"repro/internal/trace"
)

// This file is the cross-mode conformance suite: the contract every
// execution mode — the 2004 designs and their modern successors alike —
// must satisfy before it can be trusted by the layers above. A new mode
// added to internal/core is not done until it appears in
// conformanceMachines and every test here passes:
//
//  1. byte-determinism: two runs of the same configuration produce
//     byte-identical Stats, including the architectural signature;
//  2. checkpoint/restore round-trip: the original engine, a sibling
//     spawned from a mid-run checkpoint, and an in-place restore all
//     replay byte-identical futures;
//  3. chunked-run stitch identity: RunExact boundaries compose — many
//     short exact runs equal one contiguous run in stream, signature,
//     cycles, and event counts (the core-level half of interval-parallel
//     stitching; the sim-level half lives in internal/sim's interval
//     tests);
//  4. fault-free ArchSig agreement with SS1: every mode commits the same
//     architectural stream, so redundancy must never perturb the
//     retirement signature;
//  5. steady-state zero allocation: the hot loop of every mode runs
//     without heap allocation (the bench gate enforces the same bound in
//     CI via BenchmarkCycle).
//
// Clauses 1-4 run under runAudited, which checks the engine's structural
// invariants (see audit) after every step. Each also compares against a
// plain RunBudget or RunExact run (clause 3 cuts the plain run into
// chunks), so the audited loop must match the production one.
//
// The fast-forward/tick-loop equivalence and cross-machine determinism
// sweeps in equivalence_test.go and determinism_test.go extend this
// contract; conformanceMachines and equivalenceMachines must both cover
// any new mode.

// conformanceMachines returns one fault-free representative of every
// execution mode, including modifier variants with their own issue- or
// retire-stage code paths. The FLEX period is short so test-sized runs
// cross many region boundaries.
func conformanceMachines() []config.Machine {
	return []config.Machine{
		config.SS1(),
		config.SS2(config.Factors{}),
		config.SS2(config.Factors{S: true}),
		config.SHREC(),
		config.DIVA(),
		config.O3RS(),
		config.MEEK(2),
		config.MEEK(4),
		config.SHREC().WithContexts(4),
		config.DIVA().WithContexts(2),
		config.FlexMachine(512, 128),
		config.FLEX(),
	}
}

const (
	conformWarm = 3000
	conformRun  = 15000
)

// TestConformanceDeterminism: identical construction implies
// byte-identical results, with no hidden global or time-dependent state.
func TestConformanceDeterminism(t *testing.T) {
	for _, m := range conformanceMachines() {
		t.Run(m.Name, func(t *testing.T) {
			p := testWorkload(7)
			a := runAudited(t, New(m, trace.New(p)), conformRun, false)
			b := runOn(t, m, p, conformRun)
			if a != b {
				t.Errorf("two identical runs diverged\n a: %+v\n b: %+v", a, b)
			}
			if a.ArchSig == 0 {
				t.Error("ArchSig is zero; the signature fold exercised nothing")
			}
		})
	}
}

// TestConformanceCheckpointRestore: a checkpoint is a complete capture —
// the original engine continuing past the capture point, a sibling
// spawned from the checkpoint, and the original restored in place must
// all replay the identical future, byte for byte. Every piece of
// mode-specific state (the MEEK retirement log and lane timers, the
// multi-context check prefix, the FLEX region position) must deep-clone,
// or the three diverge.
func TestConformanceCheckpointRestore(t *testing.T) {
	for _, m := range conformanceMachines() {
		t.Run(m.Name, func(t *testing.T) {
			p := testWorkload(11)

			e := New(m, trace.New(p))
			runAudited(t, e, conformRun/3, false)
			cp, err := e.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}

			// The original continues to the full target...
			want := runAudited(t, e, conformRun, false)

			// ...a sibling engine spawned from the checkpoint must land on
			// exactly the same stats...
			got, err := cp.NewEngine().RunBudget(context.Background(), conformRun, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("checkpoint-spawned run diverged from the original\n want: %+v\n got:  %+v", want, got)
			}

			// ...and so must the original after an in-place rewind.
			e.Restore(cp)
			got = runAudited(t, e, conformRun, false)
			if got != want {
				t.Errorf("restored run diverged\n want: %+v\n got:  %+v", want, got)
			}
		})
	}
}

// dropOccupancySums zeroes the per-cycle occupancy accumulators, the one
// family of counters a chunk boundary may legitimately skew: RunExact
// pauses retirement at the boundary inside the cut cycle, so entries that
// a contiguous run would have retired that cycle are still occupying the
// ROB/LSQ when the end-of-cycle occupancy sample is taken (and retire one
// cycle later, in the next chunk). The committed stream, the signature,
// the cycle count, and every event counter are exact across the cut.
func dropOccupancySums(s Stats) Stats {
	s.ROBOccSum = 0
	s.ISQOccSum = 0
	s.LSQOccSum = 0
	s.StaggerSum = 0
	s.MSHROccSum = 0
	s.MeekLogOccSum = 0
	return s
}

// TestConformanceChunkedStitch: RunExact boundaries compose in every mode
// — a run cut into arbitrary chunks retires exactly the same stream,
// folds the same signature, and counts the same cycles and events as one
// contiguous run (occupancy integrals excepted; see dropOccupancySums).
// Interval-parallel simulation and recovery's checkpoint cadence both
// stand on this.
func TestConformanceChunkedStitch(t *testing.T) {
	for _, m := range conformanceMachines() {
		t.Run(m.Name, func(t *testing.T) {
			p := testWorkload(13)

			want := runAudited(t, New(m, trace.New(p)), conformRun, true)

			chunked := New(m, trace.New(p))
			var got Stats
			var err error
			for _, target := range []uint64{1, conformRun / 5, conformRun / 2, conformRun - 7, conformRun} {
				if got, err = chunked.RunExact(context.Background(), target, 0); err != nil {
					t.Fatal(err)
				}
				if got.Retired != target {
					t.Fatalf("chunk boundary missed: retired %d, want exactly %d", got.Retired, target)
				}
			}
			if got.ArchSig != want.ArchSig {
				t.Errorf("chunked ArchSig %#x != contiguous %#x: the cut perturbed the committed stream",
					got.ArchSig, want.ArchSig)
			}
			// SS2's duplicated R-stream couples retirement backpressure
			// into issue timing: pausing M-stream retirement at a cut
			// shifts which wrong-path work issues before its squash, so
			// the duplication modes are held to the architectural clauses
			// only. Every checker mode must match cycle-for-cycle.
			if m.Mode != config.ModeSS2 && dropOccupancySums(got) != dropOccupancySums(want) {
				t.Errorf("chunked run diverged from contiguous\n want: %+v\n got:  %+v", want, got)
			}
		})
	}
}

// TestConformanceArchSigAgreesWithSS1: redundancy is microarchitecture,
// not architecture. Fault-free, every mode retires the identical
// committed instruction stream, so its signature over the first n
// retirements must equal the unprotected baseline's.
func TestConformanceArchSigAgreesWithSS1(t *testing.T) {
	p := testWorkload(17)
	base := runOn(t, config.SS1(), p, conformRun)
	if base.ArchSig == 0 {
		t.Fatal("SS1 ArchSig is zero")
	}
	for _, m := range conformanceMachines() {
		t.Run(m.Name, func(t *testing.T) {
			st := runAudited(t, New(m, trace.New(p)), conformRun, false)
			if st.ArchSig != base.ArchSig {
				t.Errorf("%s ArchSig %#x != SS1 %#x: the mode perturbed the committed stream",
					m.Name, st.ArchSig, base.ArchSig)
			}
			if st.Retired < conformRun {
				t.Errorf("retired %d < %d", st.Retired, conformRun)
			}
		})
	}
}

// TestConformanceZeroAlloc: after warmup, continuing a run allocates
// nothing — each mode's checker state (retirement log, lane timers,
// context scan) must live in preallocated structures. BenchmarkCycle and
// the bench gate enforce the same bound with -benchmem in CI; this test
// catches regressions in a plain `go test` run.
func TestConformanceZeroAlloc(t *testing.T) {
	for _, m := range conformanceMachines() {
		t.Run(m.Name, func(t *testing.T) {
			e := New(m, trace.New(testWorkload(19)))
			if err := e.WarmupContext(context.Background(), conformWarm); err != nil {
				t.Fatal(err)
			}
			target := uint64(0)
			allocs := testing.AllocsPerRun(5, func() {
				target += 2000
				if _, err := e.RunBudget(context.Background(), target, 0); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("steady-state run allocates %.1f times per 2000 instructions; want 0", allocs)
			}
		})
	}
}
