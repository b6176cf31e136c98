package core

import (
	"context"
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/trace"
)

// memWorkload returns a deliberately memory-bound profile: a large
// pointer-chasing footprint that misses to main memory constantly, so the
// pipeline spends most of its time in exactly the long stalls the
// cycle-skipping loop fast-forwards across.
func memWorkload(seed uint64) trace.Profile {
	var m [isa.NumOpClasses]float64
	m[isa.OpIALU] = 0.30
	m[isa.OpLoad] = 0.45
	m[isa.OpStore] = 0.15
	m[isa.OpFAdd] = 0.10
	return trace.Profile{
		Name: "engine-mem-test", Class: trace.IntClass, Seed: seed,
		CodeFootprint: 16 * 1024, AvgBlockLen: 9,
		LoopFrac: 0.2, UncondFrac: 0.05, IndirectFrac: 0.01,
		LoopMean: 12, PredictableFrac: 0.9, IndirectTargets: 4,
		Phases: []trace.Phase{{
			Len: 1 << 20, Mix: m,
			DepMean: 4, DepMax: 24, ChainFrac: 0.5, SrcTwoProb: 0.4,
			DataFootprint: 256 * 1024 * 1024, StrideFrac: 0.2, StrideBytes: 64,
			PointerChaseFrac: 0.5,
		}},
	}
}

// equivalenceMachines are the configurations the skip logic must prove
// itself on: every execution model, both SS2 duplication disciplines, the
// dedicated-checker (DIVA) pool, and fault injection with its soft
// exception squashes. The faulty machines cover every branch of
// retireHead: SS1's silent escape, O3RS's double-execution detect, the
// shared and dedicated (DIVA) checker detects, MEEK's lanes, and FLEX's
// detect-or-escape split.
func equivalenceMachines() []config.Machine {
	withFaults := func(m config.Machine) config.Machine {
		m.Name += "+faults"
		m.FaultRate = 2e-4
		m.FaultSeed = 99
		return m
	}
	// A short-period FLEX machine flips between checked and unchecked
	// regions many times within a test-sized run, exercising both the
	// free pass-through and the shared-checker paths (and, with faults,
	// both the detect and the escape retirement paths).
	flex := config.FlexMachine(512, 128)
	return []config.Machine{
		config.SS1(),
		config.SS2(config.Factors{}),        // lockstep duplication
		config.SS2(config.Factors{S: true}), // staggered duplication
		config.SHREC(),
		config.O3RS(),
		config.DIVA(),
		config.MEEK(2),
		config.SHREC().WithContexts(4),
		flex,
		withFaults(config.SS1()),
		withFaults(config.O3RS()),
		withFaults(config.SHREC()),
		withFaults(config.DIVA()),
		withFaults(config.MEEK(2)),
		withFaults(config.SHREC().WithContexts(4)),
		withFaults(flex),
	}
}

// assertEquivalent runs the reference tick-by-tick loop and the
// fast-forward loop on identical engines and requires byte-identical
// statistics — not only the engine's Stats but the functional-unit,
// cache, and MSHR counters, which the skip path reconstructs analytically.
// The tick loop's plain issue scan also pins the fast loop's slot
// sleeping. The fast run is audited after every step; the reference runs
// through WarmupContext and RunBudget, so the production entry points
// stay under test.
func assertEquivalent(t *testing.T, m config.Machine, p trace.Profile, warm, n uint64) {
	t.Helper()
	ref := New(m, trace.New(p), WithTickLoop())
	fast := New(m, trace.New(p))

	if err := ref.WarmupContext(context.Background(), warm); err != nil {
		t.Fatalf("%s on %s: reference warmup: %v", m.Name, p.Name, err)
	}
	refStats, err := ref.RunBudget(context.Background(), n, 0)
	if err != nil {
		t.Fatalf("%s on %s: reference run: %v", m.Name, p.Name, err)
	}
	warmAudited(t, fast, warm)
	fastStats := runAudited(t, fast, n, false)

	if refStats != fastStats {
		t.Errorf("%s on %s: Stats diverge\n tick: %+v\n fast: %+v", m.Name, p.Name, refStats, fastStats)
	}
	if ri, fi := ref.Pool().Issued(), fast.Pool().Issued(); ri != fi {
		t.Errorf("%s on %s: FU issued diverge: tick %v fast %v", m.Name, p.Name, ri, fi)
	}
	if rr, fr := ref.Pool().Refused(), fast.Pool().Refused(); rr != fr {
		t.Errorf("%s on %s: FU refused diverge: tick %v fast %v", m.Name, p.Name, rr, fr)
	}
	if ra, fa := ref.Mem().AttemptCounters(), fast.Mem().AttemptCounters(); ra != fa {
		t.Errorf("%s on %s: memory attempt counters diverge\n tick: %+v\n fast: %+v", m.Name, p.Name, ra, fa)
	}
	rl, rs, rf, _, _ := ref.Mem().Stats()
	fl, fs, ff, _, _ := fast.Mem().Stats()
	if rl != fl || rs != fs || rf != ff {
		t.Errorf("%s on %s: memory access counts diverge: tick (%d,%d,%d) fast (%d,%d,%d)",
			m.Name, p.Name, rl, rs, rf, fl, fs, ff)
	}
	rp, rsec, _, _ := ref.Mem().MSHR().Stats()
	fp, fsec, _, _ := fast.Mem().MSHR().Stats()
	if rp != fp || rsec != fsec {
		t.Errorf("%s on %s: MSHR miss counts diverge: tick (%d,%d) fast (%d,%d)",
			m.Name, p.Name, rp, rsec, fp, fsec)
	}
}

// TestFastForwardEquivalence is the acceptance suite for the
// cycle-skipping engine: every mode on three workloads (compute-bound,
// FP-streaming, and memory-bound pointer chasing) must match the
// reference loop exactly.
func TestFastForwardEquivalence(t *testing.T) {
	workloads := []trace.Profile{testWorkload(5), fpWorkload(5), memWorkload(5)}
	machines := equivalenceMachines()
	if testing.Short() {
		// One pass per mode against the stall-heavy workload keeps the
		// CI-tier suite fast while exercising the skip path hardest.
		workloads = workloads[2:]
	}
	for _, m := range machines {
		for _, p := range workloads {
			t.Run(m.Name+"/"+p.Name, func(t *testing.T) {
				warm, n := uint64(5000), uint64(20000)
				assertEquivalent(t, m, p, warm, n)
			})
		}
	}
}

// TestFlexEscapeCountedOnce pins that an unverified (checking-disabled
// region) faulty FLEX store counts one silent corruption however many
// cycles it waits for a memory port: the escape is counted after the
// store commits, so the tick loop, which retries the store every cycle,
// and the fast loop, which skips the waiting cycles, agree.
func TestFlexEscapeCountedOnce(t *testing.T) {
	m := config.FlexMachine(512, 128)
	m.Name += "+faults"
	m.FaultRate = 0.02
	m.FaultSeed = 6
	assertEquivalent(t, m, memWorkload(6), 5000, 20000)
}

// TestFastForwardActuallySkips guards the optimization itself: on a
// memory-bound workload the fast loop must simulate the same cycle count
// while executing far fewer real cycles — otherwise the equivalence suite
// would pass trivially with the skip path dead.
func TestFastForwardActuallySkips(t *testing.T) {
	p := memWorkload(11)
	e := New(config.SS1(), trace.New(p))
	st, err := e.RunBudget(context.Background(), 20000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e.skipped == 0 {
		t.Fatalf("fast-forward loop never skipped a cycle over %d simulated cycles of a memory-bound run", st.Cycles)
	}
	if frac := float64(e.skipped) / float64(st.Cycles); frac < 0.10 {
		t.Errorf("fast-forward skipped only %.1f%% of %d cycles; expected a memory-bound run to be mostly skippable",
			frac*100, st.Cycles)
	}
}
