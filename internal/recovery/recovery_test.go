package recovery_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/recovery"
	"repro/internal/trace"
)

// testWorkload is a modest integer-like profile (mirrors the core engine
// tests' fixture).
func testWorkload(seed uint64) trace.Profile {
	var m [isa.NumOpClasses]float64
	m[isa.OpIALU] = 0.55
	m[isa.OpIMul] = 0.03
	m[isa.OpLoad] = 0.26
	m[isa.OpStore] = 0.12
	return trace.Profile{
		Name: "recovery-test", Class: trace.IntClass, Seed: seed,
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

// TestModeRoundTrip pins ParseMode/String as inverses over normalized
// policies, with defaults filled and canonical interval suffixes.
func TestModeRoundTrip(t *testing.T) {
	cases := []struct {
		in   string
		want recovery.Policy
		str  string
	}{
		{"none", recovery.Policy{}, "none"},
		{"", recovery.Policy{}, "none"},
		{"ckpt@64k", recovery.Policy{Interval: 65536, Depth: 1, FlushCost: 8, RestoreCost: 64}, "ckpt@64k"},
		{"CKPT@64K", recovery.Policy{Interval: 65536, Depth: 1, FlushCost: 8, RestoreCost: 64}, "ckpt@64k"},
		{"ckpt@2m+depth2", recovery.Policy{Interval: 2 * 1024 * 1024, Depth: 2, FlushCost: 8, RestoreCost: 64}, "ckpt@2m+depth2"},
		{"ckpt@100", recovery.Policy{Interval: 100, Depth: 1, FlushCost: 8, RestoreCost: 64}, "ckpt@100"},
		{"ckpt@4k+depth4+flush16+restore256",
			recovery.Policy{Interval: 4096, Depth: 4, FlushCost: 16, RestoreCost: 256},
			"ckpt@4k+depth4+flush16+restore256"},
		{"ckpt@4k+restore256+depth4+flush16", // any modifier order
			recovery.Policy{Interval: 4096, Depth: 4, FlushCost: 16, RestoreCost: 256},
			"ckpt@4k+depth4+flush16+restore256"},
	}
	for _, c := range cases {
		got, err := recovery.ParseMode(c.in)
		if err != nil {
			t.Errorf("ParseMode(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseMode(%q) = %+v, want %+v", c.in, got, c.want)
		}
		if got.String() != c.str {
			t.Errorf("ParseMode(%q).String() = %q, want %q", c.in, got.String(), c.str)
		}
		again, err := recovery.ParseMode(got.String())
		if err != nil || again != got {
			t.Errorf("round trip of %q: %+v, %v", got.String(), again, err)
		}
	}
}

// TestModeErrors pins rejection of malformed modes.
func TestModeErrors(t *testing.T) {
	for _, bad := range []string{
		"rollback",               // unknown mode
		"ckpt",                   // missing interval
		"ckpt@",                  // empty interval
		"ckpt@0",                 // zero interval
		"ckpt@32",                // below config.MinCkptInterval
		"ckpt@64x",               // bad suffix
		"ckpt@64k+depth17",       // above config.MaxCkptDepth
		"ckpt@64k+width2",        // unknown modifier
		"ckpt@64k+depth2+depth3", // duplicate
		"ckpt@64k+flush-1",       // negative cost
	} {
		if _, err := recovery.ParseMode(bad); err == nil {
			t.Errorf("ParseMode(%q) accepted", bad)
		}
	}
}

// TestPolicyApply pins the machine-spec integration: an enabled policy
// renames the machine canonically, a disabled one clears the fields.
func TestPolicyApply(t *testing.T) {
	p, err := recovery.ParseMode("ckpt@64k+depth2+flush16")
	if err != nil {
		t.Fatal(err)
	}
	m := p.Apply(config.SHREC())
	if m.CkptInterval != 65536 || m.CkptDepth != 2 {
		t.Fatalf("Apply: interval %d depth %d", m.CkptInterval, m.CkptDepth)
	}
	if m.Name != "SHREC+ckpt64k+depth2" {
		t.Fatalf("Apply name = %q", m.Name)
	}
	// Default depth stays out of the machine (and its name).
	p1, _ := recovery.ParseMode("ckpt@4k")
	m1 := p1.Apply(config.SHREC())
	if m1.CkptDepth != 0 || m1.Name != "SHREC+ckpt4k" {
		t.Fatalf("Apply default depth: depth %d name %q", m1.CkptDepth, m1.Name)
	}
	none := recovery.Policy{}.Apply(m)
	if none.CkptInterval != 0 || none.CkptDepth != 0 {
		t.Fatalf("disabled Apply left %d/%d", none.CkptInterval, none.CkptDepth)
	}
}

// TestFaultFreeChunkingInvariant is the signature-soundness invariant the
// campaign oracle depends on: a fault-free run chunked into checkpoint
// intervals retires the identical instruction stream as one contiguous
// run, so its ArchSig is byte-identical (exact chunk boundaries via
// RunExact — a free-overshoot chunking would diverge).
func TestFaultFreeChunkingInvariant(t *testing.T) {
	const n = 20000
	p := testWorkload(11)
	m := config.SHREC()

	plain := core.New(m, trace.New(p))
	want, err := plain.RunBudget(context.Background(), n, 0)
	if err != nil {
		t.Fatal(err)
	}

	e := core.New(m, trace.New(p))
	got, tr, err := recovery.Run(context.Background(), e, n, 0, 1024, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Retired != n || got.ArchSig != want.ArchSig {
		t.Errorf("chunked fault-free run diverged: retired %d sig %#x, want %d %#x",
			got.Retired, got.ArchSig, want.Retired, want.ArchSig)
	}
	if tr.Detected() != 0 || tr.LostWork != 0 {
		t.Errorf("fault-free trace recorded recovery: %+v", tr)
	}
	if wantCaps := uint64(n/1024 + 1); tr.Checkpoints != wantCaps {
		t.Errorf("checkpoints = %d, want %d (every 1024 retirements plus the initial capture)", tr.Checkpoints, wantCaps)
	}
}

// faultyRun executes one recovery trial with injection enabled and returns
// its stats and trace.
func faultyRun(t *testing.T, interval uint64, depth int) (core.Stats, recovery.Trace) {
	t.Helper()
	m := config.SHREC()
	m.FaultRate = 3e-4
	m.FaultSeed = 7
	m.FaultWindowLo, m.FaultWindowHi = 2000, 14000
	e := core.New(m, trace.New(testWorkload(11)))
	st, tr, err := recovery.Run(context.Background(), e, 16000, 0, interval, depth)
	if err != nil {
		t.Fatalf("recovery run: %v", err)
	}
	return st, tr
}

// TestRollbackRecovers drives detected faults through rollback and checks
// the trace observables.
func TestRollbackRecovers(t *testing.T) {
	st, tr := faultyRun(t, 1024, 2)
	if tr.Rollbacks == 0 {
		t.Fatalf("no rollbacks occurred (trace %+v); fixture exercises nothing", tr)
	}
	if tr.LostWork <= 0 {
		t.Errorf("rollbacks without lost work: %+v", tr)
	}
	if st.Retired != 16000 {
		t.Errorf("run finished at %d retired, want 16000", st.Retired)
	}
	if len(tr.Events) == 0 {
		t.Fatal("no events logged")
	}
	for _, ev := range tr.Events {
		if ev.DetectCycle < ev.InjectCycle {
			t.Errorf("event %+v detects before injection", ev)
		}
		if ev.Outcome == recovery.OutcomeRecovered && ev.LostWork <= 0 {
			t.Errorf("recovered event without lost work: %+v", ev)
		}
	}
	// A recovered run's committed timeline is clean: the faults it rolled
	// back were discarded along with the work, so the final counters carry
	// no detections that were recovered by rollback.
	if st.SilentCorruptions != 0 {
		t.Errorf("recovered run committed corruptions: %+v", st)
	}
}

// TestRecoveredRunMatchesGoldenSig pins end-to-end soundness: a trial whose
// every detection was recovered by rollback commits the same architectural
// stream as the fault-free golden run.
func TestRecoveredRunMatchesGoldenSig(t *testing.T) {
	st, tr := faultyRun(t, 1024, 2)
	if tr.Rollbacks == 0 {
		t.Skip("fixture produced no rollbacks")
	}
	if tr.Fatal() != 0 {
		t.Skipf("fixture produced non-recovered outcomes: %+v", tr)
	}
	golden := core.New(config.SHREC(), trace.New(testWorkload(11)))
	want, _, err := recovery.Run(context.Background(), golden, 16000, 0, 1024, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.ArchSig != want.ArchSig {
		t.Errorf("recovered trial sig %#x != golden %#x", st.ArchSig, want.ArchSig)
	}
}

// TestRecoveryDeterminism requires byte-identical stats and traces across
// re-runs — the property that makes recovered trials cacheable and
// resumable by digest.
func TestRecoveryDeterminism(t *testing.T) {
	s1, t1 := faultyRun(t, 1024, 2)
	s2, t2 := faultyRun(t, 1024, 2)
	if s1 != s2 {
		t.Errorf("stats diverged across identical runs\n a: %+v\n b: %+v", s1, s2)
	}
	if !reflect.DeepEqual(t1, t2) {
		t.Errorf("traces diverged across identical runs\n a: %+v\n b: %+v", t1, t2)
	}
}

// TestDepthChangesOutcomes sanity-checks the retention model: depth 1
// cannot produce fewer non-recovered outcomes than a deeper ring on the
// same trial stream prefix (more history can only help), and the runs
// stay deterministic per depth.
func TestDepthChangesOutcomes(t *testing.T) {
	_, shallow := faultyRun(t, 512, 1)
	_, deep := faultyRun(t, 512, 8)
	if shallow.Detected() == 0 {
		t.Skip("fixture produced no detections")
	}
	if deep.Rollbacks == 0 && shallow.Rollbacks == 0 {
		t.Errorf("no depth produced a rollback: shallow %+v deep %+v", shallow, deep)
	}
}
