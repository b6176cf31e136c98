package core

import (
	"context"
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/workload"
)

// testWorkload returns a modest integer-like profile for engine tests.
func testWorkload(seed uint64) trace.Profile {
	var m [isa.NumOpClasses]float64
	m[isa.OpIALU] = 0.55
	m[isa.OpIMul] = 0.03
	m[isa.OpLoad] = 0.26
	m[isa.OpStore] = 0.12
	return trace.Profile{
		Name: "engine-test", Class: trace.IntClass, Seed: seed,
		CodeFootprint: 32 * 1024, AvgBlockLen: 6,
		LoopFrac: 0.15, UncondFrac: 0.08, IndirectFrac: 0.02,
		LoopMean: 8, PredictableFrac: 0.85, IndirectTargets: 4,
		Phases: []trace.Phase{{
			Len: 1 << 20, Mix: m,
			DepMean: 6, DepMax: 32, ChainFrac: 0.3, SrcTwoProb: 0.4,
			DataFootprint: 96 * 1024, StrideFrac: 0.6, StrideBytes: 8,
			PointerChaseFrac: 0.05,
		}},
	}
}

// fpWorkload returns an FP-heavy, memory-streaming profile.
func fpWorkload(seed uint64) trace.Profile {
	var m [isa.NumOpClasses]float64
	m[isa.OpIALU] = 0.22
	m[isa.OpFAdd] = 0.26
	m[isa.OpFMul] = 0.18
	m[isa.OpLoad] = 0.23
	m[isa.OpStore] = 0.11
	return trace.Profile{
		Name: "engine-fp-test", Class: trace.FPClass, Seed: seed,
		CodeFootprint: 24 * 1024, AvgBlockLen: 11,
		LoopFrac: 0.3, UncondFrac: 0.03, IndirectFrac: 0,
		LoopMean: 20, PredictableFrac: 0.96, IndirectTargets: 1,
		Phases: []trace.Phase{{
			Len: 1 << 20, Mix: m,
			DepMean: 9, DepMax: 36, ChainFrac: 0.18, SrcTwoProb: 0.6,
			DataFootprint: 48 * 1024 * 1024, StrideFrac: 0.8, StrideBytes: 16,
		}},
	}
}

const testInstrs = 30000

func runOn(t *testing.T, m config.Machine, p trace.Profile, n uint64) Stats {
	t.Helper()
	e := New(m, trace.New(p))
	st, err := e.RunBudget(context.Background(), n, 0)
	if err != nil {
		t.Fatalf("%s on %s: %v", m.Name, p.Name, err)
	}
	return st
}

// warmRun warms caches and predictors before measuring, as the experiment
// harness does.
func warmRun(t *testing.T, m config.Machine, p trace.Profile, warm, n uint64) Stats {
	t.Helper()
	e := New(m, trace.New(p))
	if err := e.WarmupContext(context.Background(), warm); err != nil {
		t.Fatalf("%s on %s (warmup): %v", m.Name, p.Name, err)
	}
	st, err := e.RunBudget(context.Background(), n, 0)
	if err != nil {
		t.Fatalf("%s on %s: %v", m.Name, p.Name, err)
	}
	return st
}

func TestSS1Runs(t *testing.T) {
	st := runOn(t, config.SS1(), testWorkload(1), testInstrs)
	ipc := st.IPC()
	if ipc <= 0.05 || ipc > 8 {
		t.Fatalf("SS1 IPC = %.3f, implausible", ipc)
	}
	if st.Retired < testInstrs {
		t.Fatalf("retired %d, want >= %d", st.Retired, testInstrs)
	}
}

func TestSS2Runs(t *testing.T) {
	st := runOn(t, config.SS2(config.Factors{}), testWorkload(1), testInstrs)
	if st.IPC() <= 0.05 || st.IPC() > 8 {
		t.Fatalf("SS2 IPC = %.3f", st.IPC())
	}
	if st.IssuedR == 0 {
		t.Fatal("SS2 never issued R-thread instructions")
	}
}

func TestSHRECRuns(t *testing.T) {
	st := runOn(t, config.SHREC(), testWorkload(1), testInstrs)
	if st.IPC() <= 0.05 || st.IPC() > 8 {
		t.Fatalf("SHREC IPC = %.3f", st.IPC())
	}
	if st.IssuedChecker == 0 {
		t.Fatal("SHREC checker never issued")
	}
	// Every retired instruction must have been checked.
	if st.IssuedChecker < st.Retired {
		t.Fatalf("checker issued %d < retired %d", st.IssuedChecker, st.Retired)
	}
}

// The headline ordering of the paper: redundant execution costs
// performance, and SHREC recovers most of it.
func TestModeOrdering(t *testing.T) {
	for _, p := range []trace.Profile{testWorkload(7), fpWorkload(7)} {
		ss1 := warmRun(t, config.SS1(), p, testInstrs, testInstrs).IPC()
		ss2 := warmRun(t, config.SS2(config.Factors{}), p, testInstrs, testInstrs).IPC()
		shrec := warmRun(t, config.SHREC(), p, testInstrs, testInstrs).IPC()
		if ss2 >= ss1 {
			t.Errorf("%s: SS2 IPC %.3f >= SS1 IPC %.3f", p.Name, ss2, ss1)
		}
		// SHREC may not beat SS1 beyond scheduling noise (store commits
		// shift cache timing slightly between the two machines).
		if shrec > ss1*1.02 {
			t.Errorf("%s: SHREC IPC %.3f exceeds SS1 %.3f", p.Name, shrec, ss1)
		}
		if shrec <= ss2*0.9 {
			t.Errorf("%s: SHREC IPC %.3f below SS2 %.3f", p.Name, shrec, ss2)
		}
	}
}

func TestSS2FactorsImprove(t *testing.T) {
	p := fpWorkload(5)
	const warm = 60000
	base := warmRun(t, config.SS2(config.Factors{}), p, warm, testInstrs).IPC()
	all := warmRun(t, config.SS2(config.Factors{X: true, S: true, C: true, B: true}), p, warm, testInstrs).IPC()
	if all <= base {
		t.Fatalf("all factors IPC %.3f <= plain SS2 %.3f", all, base)
	}
	// C must matter for the memory-bound FP profile.
	c := warmRun(t, config.SS2(config.Factors{C: true}), p, warm, testInstrs).IPC()
	if c <= base*1.02 {
		t.Errorf("C factor gave only %.3f vs %.3f on a memory-bound profile", c, base)
	}
}

func TestStaggerBound(t *testing.T) {
	m := config.SS2(config.Factors{S: true})
	e := New(m, trace.New(testWorkload(9)))
	// Run manually, asserting the stagger invariant every cycle.
	for e.stats.Retired < 5000 {
		e.cycle()
		if got := e.pendingR.len(); got > m.MaxStagger {
			t.Fatalf("stagger %d exceeds bound %d", got, m.MaxStagger)
		}
		if e.robM.len()+e.robR.len() > m.ROBSize {
			t.Fatalf("ROB occupancy exceeded capacity")
		}
		if e.w.isqCount[ThreadM]+e.w.isqCount[ThreadR] > m.ISQSize {
			t.Fatalf("ISQ occupancy exceeded capacity")
		}
		if e.lsq.len() > m.LSQSize {
			t.Fatalf("LSQ occupancy exceeded capacity")
		}
	}
}

func TestLockstepOccupancyInvariants(t *testing.T) {
	m := config.SS2(config.Factors{})
	e := New(m, trace.New(testWorkload(11)))
	for e.stats.Retired < 5000 {
		e.cycle()
		if e.robM.len()+e.robR.len() > m.ROBSize {
			t.Fatal("ROB over capacity")
		}
		if e.w.isqCount[ThreadM]+e.w.isqCount[ThreadR] > m.ISQSize {
			t.Fatal("ISQ over capacity")
		}
		if e.pendingR.len() != 0 {
			t.Fatal("lockstep mode must not use the stagger queue")
		}
	}
}

func TestRetirementInProgramOrder(t *testing.T) {
	for _, m := range []config.Machine{config.SS1(), config.SS2(config.Factors{S: true}), config.SHREC()} {
		e := New(m, trace.New(testWorkload(13)))
		lastSeq := int64(-1)
		// Wrap retire bookkeeping: sample the ROB head's seq each cycle
		// before retirement; retired count strictly increases in order.
		for e.stats.Retired < 3000 {
			before := e.stats.Retired
			e.cycle()
			if e.stats.Retired < before {
				t.Fatalf("%s: retired count decreased", m.Name)
			}
			if !e.robM.empty() {
				head := int64(e.w.seq[e.robM.front()])
				if head < lastSeq {
					t.Fatalf("%s: ROB head went backwards (%d after %d)", m.Name, head, lastSeq)
				}
				lastSeq = head
			}
		}
	}
}

func TestWrongPathConsumption(t *testing.T) {
	// A profile with many unpredictable branches must fetch wrong-path
	// instructions and squash them.
	p := testWorkload(15)
	p.PredictableFrac = 0.2
	st := runOn(t, config.SS1(), p, testInstrs)
	if st.Mispredicts == 0 {
		t.Fatal("no mispredictions in an unpredictable profile")
	}
	if st.WrongPathFetched == 0 {
		t.Fatal("mispredictions fetched no wrong-path instructions")
	}
	if st.Squashes == 0 {
		t.Fatal("no squashes recorded")
	}
}

func TestIPCBoundedByWidth(t *testing.T) {
	// Even a maximally parallel workload cannot beat the issue width.
	p := testWorkload(17)
	p.Phases[0].DepMean = 20
	p.Phases[0].ChainFrac = 0
	p.Phases[0].DataFootprint = 64 * 1024
	st := runOn(t, config.SS1(), p, testInstrs)
	if st.IPC() > 8 {
		t.Fatalf("IPC %.2f exceeds the 8-wide machine", st.IPC())
	}
}

func TestFaultDetectionSS2(t *testing.T) {
	m := config.SS2(config.Factors{S: true})
	m.FaultRate = 1e-4
	m.FaultSeed = 42
	st := runOn(t, m, testWorkload(19), testInstrs)
	if st.FaultsInjected == 0 {
		t.Fatal("no faults injected")
	}
	if st.FaultsDetected == 0 {
		t.Fatal("no faults detected")
	}
	if st.SilentCorruptions != 0 {
		t.Fatalf("%d silent corruptions escaped SS2", st.SilentCorruptions)
	}
	if st.SoftExceptions != st.FaultsDetected {
		t.Fatalf("exceptions %d != detections %d", st.SoftExceptions, st.FaultsDetected)
	}
	if st.Retired < testInstrs {
		t.Fatalf("recovery lost instructions: retired %d", st.Retired)
	}
}

func TestFaultDetectionSHREC(t *testing.T) {
	m := config.SHREC()
	m.FaultRate = 1e-4
	m.FaultSeed = 43
	st := runOn(t, m, testWorkload(21), testInstrs)
	if st.FaultsInjected == 0 || st.FaultsDetected == 0 {
		t.Fatalf("injection/detection = %d/%d", st.FaultsInjected, st.FaultsDetected)
	}
	if st.SilentCorruptions != 0 {
		t.Fatal("silent corruption escaped SHREC")
	}
}

func TestSS1FaultsEscapeSilently(t *testing.T) {
	m := config.SS1()
	m.FaultRate = 1e-3
	m.FaultSeed = 44
	st := runOn(t, m, testWorkload(23), testInstrs)
	if st.FaultsInjected == 0 {
		t.Fatal("no faults injected")
	}
	if st.FaultsDetected != 0 {
		t.Fatal("SS1 has no detection mechanism")
	}
	if st.SilentCorruptions == 0 {
		t.Fatal("injected faults must surface as silent corruptions")
	}
}

func TestAllWorkloadsAllModes(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload sweep in short mode")
	}
	machines := []config.Machine{config.SS1(), config.SS2(config.Factors{}), config.SS2(config.Factors{S: true, C: true}), config.SHREC()}
	for _, p := range workload.All() {
		for _, m := range machines {
			st := runOn(t, m, p, 8000)
			if st.IPC() <= 0.02 || st.IPC() > float64(m.IssueWidth) {
				t.Errorf("%s on %s: IPC %.3f out of range", m.Name, p.Name, st.IPC())
			}
		}
	}
}

func TestCheckerWindowLimitsIssue(t *testing.T) {
	// Every retired instruction was checked exactly once; instructions
	// still in flight at the end may have been checked but not retired.
	m := config.SHREC()
	st := runOn(t, m, testWorkload(25), testInstrs)
	if st.IssuedChecker < st.Retired {
		t.Fatalf("checker issued %d < retired %d", st.IssuedChecker, st.Retired)
	}
	if st.IssuedChecker > st.Retired+uint64(m.ROBSize) {
		t.Fatalf("checker issued %d far exceeds retired %d", st.IssuedChecker, st.Retired)
	}
}

func TestXScaleImprovesHighILP(t *testing.T) {
	p := fpWorkload(27)
	p.Phases[0].DataFootprint = 48 * 1024 // L1 resident: FU bound
	p.Phases[0].StrideFrac = 0.9
	p.Phases[0].DepMean = 24
	p.Phases[0].DepMax = 96
	p.Phases[0].ChainFrac = 0.04
	p.Phases[0].SrcTwoProb = 0.4
	// Saturate the two FP adders under redundant execution.
	p.Phases[0].Mix[isa.OpFAdd] = 0.34
	p.Phases[0].Mix[isa.OpFMul] = 0.24
	p.Phases[0].Mix[isa.OpIALU] = 0.14
	const warm = 60000
	base := warmRun(t, config.SS2(config.Factors{}), p, warm, testInstrs).IPC()
	wide := warmRun(t, config.SS2(config.Factors{X: true}), p, warm, testInstrs).IPC()
	if wide <= base*1.05 {
		t.Fatalf("doubling X helped too little on FU-bound FP: %.3f -> %.3f", base, wide)
	}
}
