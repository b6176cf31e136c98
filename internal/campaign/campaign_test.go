package campaign

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/store"
)

// quickSpec returns a small campaign spec for fast tests.
func quickSpec(machine string, trials int) Spec {
	return Spec{
		Machine:       machine,
		Benchmark:     "crafty",
		Trials:        trials,
		FaultRate:     2e-4,
		Seed:          0xC0FFEE,
		WarmupInstrs:  2_000,
		MeasureInstrs: 5_000,
	}
}

func quickSuite() *sim.Suite { return suiteAt(0) }

// suiteAt is quickSuite at an explicit parallelism (0 = GOMAXPROCS).
func suiteAt(parallelism int) *sim.Suite {
	return sim.NewSuite(sim.Options{WarmupInstrs: 2_000, MeasureInstrs: 5_000, Parallelism: parallelism})
}

// TestClassify pins each outcome class from crafted engine results.
func TestClassify(t *testing.T) {
	const goldenSig = 0xABCD
	mk := func(hung bool, injected, detected, squashed uint64, sig uint64) sim.Result {
		return sim.Result{Hung: hung, Stats: core.Stats{
			FaultsInjected: injected,
			FaultsDetected: detected,
			FaultsSquashed: squashed,
			ArchSig:        sig,
		}}
	}
	cases := []struct {
		name string
		res  sim.Result
		want Outcome
	}{
		{"detected", mk(false, 2, 2, 0, goldenSig), OutcomeDetected},
		{"squashed-benign", mk(false, 1, 0, 1, goldenSig), OutcomeSquashed},
		{"masked (in flight at run end)", mk(false, 1, 0, 0, goldenSig), OutcomeMasked},
		{"sdc (signature divergence)", mk(false, 1, 0, 0, goldenSig^1), OutcomeSDC},
		{"sdc outranks detection", mk(false, 3, 2, 0, goldenSig^1), OutcomeSDC},
		{"hang", mk(true, 5, 1, 0, goldenSig), OutcomeHang},
		{"hang outranks sdc", mk(true, 5, 0, 0, goldenSig^1), OutcomeHang},
		{"clean (no fault materialized)", mk(false, 0, 0, 0, goldenSig), OutcomeClean},
	}
	for _, tc := range cases {
		if got := Classify(tc.res, goldenSig); got != tc.want {
			t.Errorf("%s: got %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestCountsAndCoverage pins the aggregate arithmetic: the coverage
// denominator excludes clean trials, and the Wilson bounds bracket the
// point estimate.
func TestCountsAndCoverage(t *testing.T) {
	r := &Result{Trials: []Trial{
		{Outcome: OutcomeDetected}, {Outcome: OutcomeDetected},
		{Outcome: OutcomeSquashed}, {Outcome: OutcomeMasked},
		{Outcome: OutcomeSDC}, {Outcome: OutcomeClean},
	}}
	c := r.Counts()
	if c.Faulted() != 5 {
		t.Fatalf("faulted = %d, want 5 (clean excluded)", c.Faulted())
	}
	cov := r.Coverage()
	if cov.N != 5 || cov.Point != 0.8 {
		t.Fatalf("coverage = %+v, want point 0.8 over 5", cov)
	}
	if !(cov.Lo < cov.Point && cov.Point < cov.Hi) {
		t.Fatalf("Wilson bounds do not bracket the point: %+v", cov)
	}
	if cov.Lo < 0 || cov.Hi > 1 {
		t.Fatalf("Wilson bounds left [0,1]: %+v", cov)
	}
}

// TestTrialSeedDerivation pins that per-trial seeds are deterministic and
// pairwise distinct over a realistic campaign size.
func TestTrialSeedDerivation(t *testing.T) {
	seen := map[uint64]int{}
	for i := 0; i < 2000; i++ {
		s := TrialSeed(42, i)
		if s2 := TrialSeed(42, i); s2 != s {
			t.Fatalf("trial %d seed not deterministic: %#x vs %#x", i, s, s2)
		}
		if j, dup := seen[s]; dup {
			t.Fatalf("trials %d and %d share seed %#x", i, j, s)
		}
		seen[s] = i
	}
	if TrialSeed(42, 0) == TrialSeed(43, 0) {
		t.Fatal("distinct master seeds produced the same trial seed")
	}
}

// TestCampaignDeterminism pins the core reproducibility guarantee: the
// same spec on a fresh suite reproduces identical trial-by-trial
// outcomes.
func TestCampaignDeterminism(t *testing.T) {
	spec := quickSpec("shrec", 12)
	run := func() *Result {
		res, err := New(quickSuite()).Run(context.Background(), spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if len(a.Trials) != len(b.Trials) {
		t.Fatalf("trial counts differ: %d vs %d", len(a.Trials), len(b.Trials))
	}
	for i := range a.Trials {
		if a.Trials[i] != b.Trials[i] {
			t.Fatalf("trial %d differs:\n%+v\nvs\n%+v", i, a.Trials[i], b.Trials[i])
		}
	}
	if a.Golden.Stats.ArchSig != b.Golden.Stats.ArchSig {
		t.Fatal("golden signatures differ across runs")
	}
}

// TestProtectedMachineHasNoSDC pins the qualitative result the paper's
// protection claims rest on: SHREC trials never silently corrupt, while
// the unprotected SS1 run at the same sites produces SDC and detects
// nothing.
func TestProtectedMachineHasNoSDC(t *testing.T) {
	shrec, err := New(quickSuite()).Run(context.Background(), quickSpec("shrec", 16), nil)
	if err != nil {
		t.Fatal(err)
	}
	c := shrec.Counts()
	if c.SDC != 0 {
		t.Fatalf("SHREC campaign produced %d SDC trials", c.SDC)
	}
	if c.Detected == 0 {
		t.Fatal("SHREC campaign detected nothing; rate/window too narrow for the test")
	}

	ss1, err := New(quickSuite()).Run(context.Background(), quickSpec("ss1", 16), nil)
	if err != nil {
		t.Fatal(err)
	}
	c1 := ss1.Counts()
	if c1.Detected != 0 {
		t.Fatalf("SS1 has no redundancy but detected %d trials", c1.Detected)
	}
	if c1.SDC == 0 {
		t.Fatal("SS1 campaign produced no SDC; the signature oracle is not firing")
	}
}

// TestCampaignResume pins store-backed resumption: a second engine over
// a fresh suite on the same store re-runs nothing and rebuilds every
// trial record identically.
func TestCampaignResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.jsonl")
	spec := quickSpec("shrec", 10)

	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	first, err := New(quickSuite().WithStore(st)).Run(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.Resumed != 0 || first.Executed != 10 {
		t.Fatalf("fresh campaign: resumed %d, executed %d", first.Resumed, first.Executed)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	sims := quickSuite()
	second, err := New(sims.WithStore(st2)).Run(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if second.Resumed != 10 || second.Executed != 0 {
		t.Fatalf("resumed campaign: resumed %d, executed %d, want 10/0", second.Resumed, second.Executed)
	}
	// Nothing simulates on resume: the golden run is a store hit too.
	if runs := sims.Counters().Runs; runs != 0 {
		t.Fatalf("resumed campaign re-simulated %d runs", runs)
	}
	for i := range first.Trials {
		if first.Trials[i] != second.Trials[i] {
			t.Fatalf("trial %d changed across resume:\n%+v\nvs\n%+v",
				i, first.Trials[i], second.Trials[i])
		}
	}

	// Extending the campaign reuses the stored prefix: trial params do
	// not depend on the trial count.
	bigger := spec
	bigger.Trials = 14
	third, err := New(quickSuite().WithStore(st2)).Run(context.Background(), bigger, nil)
	if err != nil {
		t.Fatal(err)
	}
	if third.Resumed != 10 || third.Executed != 4 {
		t.Fatalf("extended campaign: resumed %d, executed %d, want 10/4", third.Resumed, third.Executed)
	}
}

// TestCampaignCancellation pins that cancellation surfaces as an error
// while finished trials persist for resumption.
func TestCampaignCancellation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.jsonl")
	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	spec := quickSpec("shrec", 30)

	ctx, cancel := context.WithCancel(context.Background())
	var cancelled bool
	_, err = New(quickSuite().WithStore(st)).Run(ctx, spec, func(p Progress) {
		if p.Done >= 5 && !cancelled {
			cancelled = true
			cancel()
		}
	})
	cancel()
	if err == nil {
		t.Fatal("cancelled campaign returned no error")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	res, err := New(quickSuite().WithStore(st2)).Run(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumed < 5 {
		t.Fatalf("only %d trials survived the cancellation", res.Resumed)
	}
	if res.Resumed+res.Executed != 30 {
		t.Fatalf("resumed %d + executed %d != 30", res.Resumed, res.Executed)
	}
}

// TestProgressSnapshots pins the progress stream: monotone Done, correct
// Total, and a final snapshot covering every trial.
func TestProgressSnapshots(t *testing.T) {
	var last Progress
	n := 0
	res, err := New(quickSuite()).Run(context.Background(), quickSpec("shrec", 8),
		func(p Progress) {
			if p.Total != 8 {
				t.Errorf("snapshot total = %d, want 8", p.Total)
			}
			if p.Done < last.Done {
				t.Errorf("Done went backwards: %d after %d", p.Done, last.Done)
			}
			last = p
			n++
		})
	if err != nil {
		t.Fatal(err)
	}
	if last.Done != 8 {
		t.Fatalf("final snapshot Done = %d, want 8", last.Done)
	}
	if got := res.Counts(); got != last.Counts {
		t.Fatalf("final snapshot counts %+v != result counts %+v", last.Counts, got)
	}
	if n == 0 {
		t.Fatal("progress callback never fired")
	}
}

// TestNormalizeErrors pins spec validation.
func TestNormalizeErrors(t *testing.T) {
	e := New(quickSuite())
	bad := []Spec{
		{Machine: "nope", Benchmark: "crafty"},
		{Machine: "shrec", Benchmark: "nope"},
		{Machine: "shrec", Benchmark: "crafty", FaultRate: 1.5},
		{Machine: "shrec", Benchmark: "crafty", Trials: -1},
		{Machine: "shrec", Benchmark: "crafty", WindowLo: 10, WindowHi: 5},
		{Machine: "shrec", Benchmark: "crafty", MaxCycles: -3},
	}
	for i, spec := range bad {
		if _, err := e.Run(context.Background(), spec, nil); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, spec)
		}
	}
}

// TestHangClassification drives a real hang through the full stack: a
// fault rate high enough that recovery storms exceed the cycle budget.
func TestHangClassification(t *testing.T) {
	spec := quickSpec("shrec", 4)
	spec.FaultRate = 0.5 // a fault every other instruction: recovery storm
	// Replay storms burn fetch sequence numbers; widen the window far past
	// the measured region so injection cannot self-disable, and pin an
	// explicit cycle budget the storm cannot meet.
	spec.WindowHi = spec.MeasureInstrs * 1000
	spec.MaxCycles = 1_000
	res, err := New(quickSuite()).Run(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c := res.Counts(); c.Hang != len(res.Trials) {
		t.Fatalf("expected every trial to hang at rate 0.5, got %+v", c)
	}
}
