package explore

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/store"
)

// quickOpts are tiny run lengths for fast tests (~10ms per simulation).
func quickOpts() sim.Options {
	return sim.Options{WarmupInstrs: 2_000, MeasureInstrs: 5_000}
}

func TestSpaceEnumeration(t *testing.T) {
	s := Space{
		Bases:   []string{"ss1", "shrec"},
		XScales: []float64{0.5, 1},
		MSHRs:   []int{16, 32},
	}
	if got := s.Size(); got != 8 {
		t.Fatalf("size = %d, want 8", got)
	}
	pts, err := s.Points()
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for i, pt := range pts {
		if pt.Index != i {
			t.Fatalf("point %d carries index %d", i, pt.Index)
		}
		if seen[pt.Spec] {
			t.Fatalf("duplicate spec %q", pt.Spec)
		}
		seen[pt.Spec] = true
		// Encode/decode round-trip: the spec string reproduces the
		// structural machine and rate.
		m, rate, err := DecodeSpec(pt.Spec)
		if err != nil {
			t.Fatalf("DecodeSpec(%q): %v", pt.Spec, err)
		}
		if rate != pt.Rate {
			t.Fatalf("%q: rate %g != %g", pt.Spec, rate, pt.Rate)
		}
		a, b := m, pt.Machine
		a.Name, b.Name = "", ""
		if a != b {
			t.Fatalf("%q decoded to a different machine", pt.Spec)
		}
	}
	// Bases vary slowest: the first half of the enumeration is ss1.
	for i := 0; i < 4; i++ {
		if !strings.HasPrefix(pts[i].Spec, "SS1") {
			t.Fatalf("point %d = %q, want an SS1 point", i, pts[i].Spec)
		}
	}
}

func TestSpaceWithRates(t *testing.T) {
	s := Space{
		Bases:      []string{"shrec"},
		FaultRates: []float64{0, 1e-4},
	}
	pts, err := s.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("size = %d", len(pts))
	}
	if pts[0].Rate != 0 || pts[0].Spec != "SHREC" {
		t.Fatalf("rate-free point = %+v", pts[0])
	}
	if pts[1].Rate != 1e-4 || pts[1].Spec != "SHREC+rate0.0001" {
		t.Fatalf("faulted point = %+v", pts[1])
	}
	m, rate, err := DecodeSpec(pts[1].Spec)
	if err != nil {
		t.Fatal(err)
	}
	if rate != 1e-4 || m.FaultRate != 0 || m.Name != "SHREC" {
		t.Fatalf("DecodeSpec = %q rate %g faultrate %g", m.Name, rate, m.FaultRate)
	}
}

// TestSpaceRejectsModifierCollisions pins the canonical-spec contract: a
// base that already carries a modifier an axis re-applies would produce
// points whose names cannot round-trip (chained rounding defeats
// canonical naming), so the space is rejected up front instead of
// failing mid-exploration when a campaign re-parses the spec.
func TestSpaceRejectsModifierCollisions(t *testing.T) {
	s := Space{Bases: []string{"shrec@x1.4"}, XScales: []float64{1.2}}
	if _, err := s.Points(); err == nil {
		t.Fatal("colliding base+axis accepted")
	}
	// The faulted variant must be rejected the same way.
	s.FaultRates = []float64{1e-3}
	if _, err := s.Points(); err == nil {
		t.Fatal("colliding faulted base+axis accepted")
	}
	// A modified base is fine when no axis re-applies its modifier.
	ok := Space{Bases: []string{"shrec@x1.5"}, MSHRs: []int{16, 32}}
	pts, err := ok.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].Spec != "SHREC@x1.5+mshr16" {
		t.Fatalf("modified base mis-enumerated: %+v", pts)
	}
}

func TestSpaceValidation(t *testing.T) {
	bad := []Space{
		{},                       // no bases
		{Bases: []string{"ss9"}}, // unknown base
		{Bases: []string{"ss1"}, XScales: []float64{0}},    // zero scale
		{Bases: []string{"ss1"}, Staggers: []int{-1}},      // negative stagger
		{Bases: []string{"ss1"}, MSHRs: []int{0}},          // zero mshrs
		{Bases: []string{"ss1"}, MemPorts: []int{0}},       // zero ports
		{Bases: []string{"ss1"}, FaultRates: []float64{2}}, // rate > 1
	}
	for i, s := range bad {
		if _, err := s.Points(); err == nil {
			t.Errorf("space %d accepted: %+v", i, s)
		}
	}
}

func TestNormalize(t *testing.T) {
	def := quickOpts()
	ns, err := Normalize(Spec{Space: Space{Bases: []string{"shrec"}}}, def)
	if err != nil {
		t.Fatal(err)
	}
	if ns.Strategy != StrategyGrid || ns.Benchmarks[0] != DefaultBenchmark ||
		ns.WarmupInstrs != def.WarmupInstrs || ns.MeasureInstrs != def.MeasureInstrs ||
		ns.ScreenDiv != DefaultScreenDiv || ns.Trials != DefaultTrials || ns.Budget != 1 {
		t.Fatalf("defaults not filled: %+v", ns)
	}
	// Halving defaults to half the space.
	hs, err := Normalize(Spec{Space: Space{Bases: []string{"ss1", "ss2", "shrec"}}, Strategy: StrategyHalving}, def)
	if err != nil {
		t.Fatal(err)
	}
	if hs.Budget != 2 {
		t.Fatalf("halving budget = %d, want 2", hs.Budget)
	}
	// Grid over a space larger than the budget is a static error.
	if _, err := Normalize(Spec{Space: Space{Bases: []string{"ss1", "ss2"}}, Budget: 1}, def); err == nil {
		t.Fatal("grid over budget accepted")
	}
	for _, bad := range []Spec{
		{Space: Space{Bases: []string{"shrec"}}, Strategy: "random"},
		{Space: Space{Bases: []string{"shrec"}}, Benchmarks: []string{"no-such-bench"}},
		{Space: Space{Bases: []string{"shrec"}}, ScreenDiv: 1},
		{Space: Space{Bases: []string{"shrec"}}, Trials: -1},
		{Space: Space{Bases: []string{"shrec"}}, Budget: -1},
	} {
		if _, err := Normalize(bad, def); err == nil {
			t.Errorf("normalize accepted %+v", bad)
		}
	}
}

func TestCostMonotone(t *testing.T) {
	base := Cost(config.SS1())
	if base <= 0 {
		t.Fatalf("SS1 cost %g", base)
	}
	if x := Cost(config.SS2(config.Factors{X: true})); x <= base {
		t.Fatalf("X-doubled cost %g not above base %g", x, base)
	}
	if d := Cost(config.DIVA()); d <= Cost(config.SHREC()) {
		t.Fatalf("DIVA cost %g not above SHREC %g (dedicated checker FUs are the point)", d, Cost(config.SHREC()))
	}
	if c := Cost(config.SS2(config.Factors{C: true})); c <= base {
		t.Fatalf("C-doubled cost %g not above base %g", c, base)
	}
	if p := Cost(config.SS1().WithMemPorts(8)); p <= base {
		t.Fatalf("extra ports cost %g not above base %g", p, base)
	}
}

// TestGridExploration runs a small grid end to end and checks the
// frontier's defining property plus the report rendering.
func TestGridExploration(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations; full tier only")
	}
	eng := New(sim.NewSuite(quickOpts()))
	res, err := eng.Run(context.Background(), Spec{
		Space: Space{Bases: []string{"ss1", "ss2", "shrec", "diva"}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Points != 4 || len(res.Evals) != 4 {
		t.Fatalf("evaluated %d of %d", len(res.Evals), res.Points)
	}
	if len(res.Frontier) == 0 {
		t.Fatal("empty frontier")
	}
	// SS1 has the best IPC of the four (no redundancy): it must be on
	// the frontier.
	found := false
	for _, ev := range res.FrontierEvals() {
		if ev.Spec == "SS1" {
			found = true
		}
	}
	if !found {
		t.Fatalf("SS1 not on the frontier: %+v", res.FrontierEvals())
	}
	if res.BaselineIPC <= 0 {
		t.Fatalf("baseline IPC %g", res.BaselineIPC)
	}
	for _, ev := range res.Evals {
		if ev.IPC <= 0 || ev.Cost <= 0 || ev.Slowdown <= 0 {
			t.Fatalf("degenerate eval %+v", ev)
		}
	}
	text := res.Report().String()
	for _, want := range []string{"Pareto frontier", "All full-fidelity points", "SS1", "SHREC"} {
		if !strings.Contains(text, want) {
			t.Fatalf("report lacks %q:\n%s", want, text)
		}
	}
}

// TestCoverageObjective verifies a faulted point carries a campaign
// coverage estimate and that the protected machine's coverage beats the
// unprotected one's.
func TestCoverageObjective(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fault campaigns; full tier only")
	}
	eng := New(sim.NewSuite(quickOpts()))
	res, err := eng.Run(context.Background(), Spec{
		Space: Space{
			Bases:      []string{"ss1", "shrec"},
			FaultRates: []float64{2e-4},
		},
		Trials: 16,
		Seed:   7,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	byspec := map[string]Eval{}
	for _, ev := range res.Evals {
		byspec[ev.Spec] = ev
	}
	ss1, ok1 := byspec["SS1+rate0.0002"]
	shrec, ok2 := byspec["SHREC+rate0.0002"]
	if !ok1 || !ok2 {
		t.Fatalf("point specs drifted: %v", res.Evals)
	}
	if !ss1.Covered || !shrec.Covered {
		t.Fatalf("faulted points lack coverage: %+v / %+v", ss1, shrec)
	}
	if shrec.Coverage <= ss1.Coverage {
		t.Fatalf("SHREC coverage %.3f not above SS1 %.3f", shrec.Coverage, ss1.Coverage)
	}
	if shrec.SDC != 0 {
		t.Fatalf("protected machine leaked %d SDCs", shrec.SDC)
	}
	if ss1.SDC == 0 {
		t.Fatal("unprotected machine shows no SDC; the coverage axis is vacuous")
	}
}

// TestExploreResume is the kill-and-resume test of the acceptance
// criteria, gated the same way as the campaign acceptance test: an
// exploration killed mid-flight must resume from the store without
// re-evaluating a single finished point, verified by both the resume
// counters and the suite's own run counter.
func TestExploreResume(t *testing.T) {
	if testing.Short() {
		t.Skip("kill-and-resume runs simulations; full tier only")
	}
	spec := Spec{
		Space: Space{
			Bases:   []string{"shrec", "ss1"},
			XScales: []float64{0.75, 1},
			MSHRs:   []int{16, 32},
		},
		Seed: 42,
	}
	path := filepath.Join(t.TempDir(), "explore.jsonl")

	// Phase 1: run until a few evaluations land, then kill.
	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	killedAt := 0
	_, err = New(sim.NewSuite(quickOpts()).WithStore(st)).Run(ctx, spec, func(p Progress) {
		if p.Done >= 3 && killedAt == 0 {
			killedAt = p.Done
			cancel()
		}
	})
	cancel()
	if err == nil {
		t.Fatal("killed exploration reported success")
	}
	if killedAt == 0 {
		t.Fatal("exploration finished before the kill fired")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: resume on a fresh suite. Every evaluation that finished
	// before the kill must be restored, not re-run.
	st2, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	sims := sim.NewSuite(quickOpts())
	res, err := New(sims.WithStore(st2)).Run(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumed < killedAt {
		t.Fatalf("resumed %d evaluations, but %d had finished before the kill", res.Resumed, killedAt)
	}
	if res.Resumed+res.Executed != res.Points {
		t.Fatalf("resumed %d + executed %d != %d points", res.Resumed, res.Executed, res.Points)
	}
	// The suite's counter agrees: one simulation per executed evaluation
	// (one benchmark each). Resumed evaluations and the SS2 slowdown
	// baseline, a store hit, run nothing.
	if got, want := sims.Counters().Runs, uint64(res.Executed); got != want {
		t.Fatalf("suite executed %d simulations, want %d (executed evals)", got, want)
	}
	if len(res.Evals) != res.Points || len(res.Frontier) == 0 {
		t.Fatalf("degenerate result: %d evals, %d frontier", len(res.Evals), len(res.Frontier))
	}
	// The report carries the resume provenance.
	found := false
	for _, n := range res.Report().Notes {
		if strings.Contains(n, "resumed") {
			found = true
		}
	}
	if !found {
		t.Fatal("report notes lack the resume line")
	}
}

// TestTrialsIgnoredByUnfaultedKeys pins that the trial count only
// reaches evaluations it can influence (full-fidelity faulted points), so
// rerunning a performance-only exploration with a different Trials
// resumes every evaluation from the store.
func TestTrialsIgnoredByUnfaultedKeys(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations; full tier only")
	}
	st, err := store.Open(filepath.Join(t.TempDir(), "evals.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	spec := Spec{Space: Space{Bases: []string{"ss1", "shrec"}}, Seed: 3}
	first, err := New(sim.NewSuite(quickOpts()).WithStore(st)).Run(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.Executed != 2 {
		t.Fatalf("first run executed %d", first.Executed)
	}
	spec.Trials = 100 // irrelevant to fault-free points
	again, err := New(sim.NewSuite(quickOpts()).WithStore(st)).Run(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.Resumed != 2 || again.Executed != 0 {
		t.Fatalf("changed Trials invalidated fault-free evaluations: resumed %d, executed %d",
			again.Resumed, again.Executed)
	}
}

// TestProgressSerialized checks the progress stream: serial snapshots,
// monotone Done, and a correct final state.
func TestProgressSerialized(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations; full tier only")
	}
	eng := New(sim.NewSuite(quickOpts()))
	last := Progress{}
	n := 0
	_, err := eng.Run(context.Background(), Spec{
		Space: Space{Bases: []string{"ss1", "shrec"}},
	}, func(p Progress) {
		n++
		if p.Done != last.Done+1 {
			t.Errorf("progress skipped: %+v after %+v", p, last)
		}
		last = p
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || last.Done != 2 || last.Total != 2 || last.Phase != "full" {
		t.Fatalf("final progress %+v after %d callbacks", last, n)
	}
}
