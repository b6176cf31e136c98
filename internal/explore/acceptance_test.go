package explore

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/sim"
	"repro/internal/store"
)

// accSpace is the acceptance space: 8 bases x 3 X-scales x 2 MSHR sizes
// = 48 points spanning every execution mode, issue/FU bandwidth, and
// memory-system pressure.
func accSpace() Space {
	return Space{
		Bases:   []string{"ss1", "ss2", "ss2+s", "ss2+c", "ss2+sc", "shrec", "diva", "o3rs"},
		XScales: []float64{0.5, 1, 1.5},
		MSHRs:   []int{16, 32},
	}
}

// accSpec is the pinned, seeded acceptance spec over accSpace.
func accSpec() Spec {
	return Spec{
		Space:         accSpace(),
		Benchmarks:    []string{"crafty"},
		Seed:          0xC0FFEE,
		WarmupInstrs:  2_000,
		MeasureInstrs: 8_000,
	}
}

// frontierBySpec indexes a result's frontier evaluations by spec string.
func frontierBySpec(r *Result) map[string]Eval {
	out := make(map[string]Eval, len(r.Frontier))
	for _, ev := range r.FrontierEvals() {
		out[ev.Spec] = ev
	}
	return out
}

// TestHalvingMatchesGridFrontier is the acceptance pin for the halving
// strategy over a >=48-point space, fully deterministic (simulations are
// pure functions of (machine, workload, options) and the halving
// tie-break derives from the spec seed):
//
//  1. halving reproduces exactly the Pareto frontier that an exhaustive
//     grid over its full-fidelity survivors computes — the survivor
//     specs are fed back as grid bases through the canonical spec
//     grammar, so this also round-trips every survivor through
//     config.ByName;
//  2. the screen can never lose the space's best-IPC configuration: the
//     exhaustive grid's IPC-maximal frontier point survives into the
//     halving frontier;
//  3. a second halving run reproduces the identical evaluation set
//     (seeded determinism).
func TestHalvingMatchesGridFrontier(t *testing.T) {
	if testing.Short() {
		t.Skip("~100 short simulations; full tier only")
	}
	if got := accSpace().Size(); got < 48 {
		t.Fatalf("acceptance space has %d points, want >= 48", got)
	}

	gridSpec := accSpec()
	gridSpec.Strategy = StrategyGrid
	grid, err := Run(context.Background(), sim.NewSuite(quickOpts()), gridSpec, nil)
	if err != nil {
		t.Fatal(err)
	}

	halvSpec := accSpec()
	halvSpec.Strategy = StrategyHalving
	halv, err := Run(context.Background(), sim.NewSuite(quickOpts()), halvSpec, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Halving screened everything and fully evaluated at most half.
	if len(halv.Screen) != grid.Points {
		t.Fatalf("halving screened %d of %d points", len(halv.Screen), grid.Points)
	}
	if len(halv.Evals) > (grid.Points+1)/2 {
		t.Fatalf("halving ran %d full evaluations over a %d-point space", len(halv.Evals), grid.Points)
	}

	// (1) An exhaustive grid over exactly the survivor set — named by
	// their canonical specs — must reproduce halving's frontier, spec
	// for spec and score for score.
	survivors := make([]string, len(halv.Evals))
	for i, ev := range halv.Evals {
		survivors[i] = ev.Spec
	}
	subSpec := accSpec()
	subSpec.Space = Space{Bases: survivors}
	subSpec.Strategy = StrategyGrid
	sub, err := Run(context.Background(), sim.NewSuite(quickOpts()), subSpec, nil)
	if err != nil {
		t.Fatal(err)
	}
	hf, sf := frontierBySpec(halv), frontierBySpec(sub)
	if len(hf) != len(sf) {
		t.Fatalf("halving frontier (%d) != grid-over-survivors frontier (%d)", len(hf), len(sf))
	}
	for spec, h := range hf {
		s, ok := sf[spec]
		if !ok {
			t.Fatalf("halving frontier point %q missing from the survivors grid", spec)
		}
		if h.IPC != s.IPC || h.Cost != s.Cost || h.Slowdown != s.Slowdown {
			t.Fatalf("frontier point %q scored differently: halving %+v vs grid %+v", spec, h, s)
		}
	}

	// (2) The space's IPC-maximal point survives the screen and lands on
	// the halving frontier.
	best := grid.Evals[0]
	for _, ev := range grid.Evals {
		if ev.IPC > best.IPC {
			best = ev
		}
	}
	if _, ok := hf[best.Spec]; !ok {
		t.Fatalf("best-IPC point %q (IPC %.3f) lost by the screen; halving frontier %v",
			best.Spec, best.IPC, survivors)
	}

	// (3) Seeded determinism: a rerun reproduces the evaluation set.
	again, err := Run(context.Background(), sim.NewSuite(quickOpts()), halvSpec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Evals) != len(halv.Evals) {
		t.Fatalf("halving not deterministic: %d vs %d full evaluations", len(again.Evals), len(halv.Evals))
	}
	for i, ev := range again.Evals {
		if ev != halv.Evals[i] {
			t.Fatalf("halving eval %d drifted: %+v vs %+v", i, ev, halv.Evals[i])
		}
	}
}

// TestStrategiesShareEvaluations pins the cross-strategy resume design:
// an evaluation is a function of its simulations alone, not of the
// strategy or budget, so a grid run after a halving run of the same spec
// restores every survivor's full-fidelity evaluation from the store
// instead of re-simulating it.
func TestStrategiesShareEvaluations(t *testing.T) {
	if testing.Short() {
		t.Skip("~100 short simulations; full tier only")
	}
	path := filepath.Join(t.TempDir(), "explore.jsonl")
	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	halvSpec := accSpec()
	halvSpec.Strategy = StrategyHalving
	halv, err := Run(context.Background(), sim.NewSuite(quickOpts()).WithStore(st), halvSpec, nil)
	if err != nil {
		t.Fatal(err)
	}

	gridSpec := accSpec()
	gridSpec.Strategy = StrategyGrid
	grid, err := Run(context.Background(), sim.NewSuite(quickOpts()).WithStore(st), gridSpec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if grid.Resumed != len(halv.Evals) {
		t.Fatalf("grid resumed %d evaluations, want every one of halving's %d survivors",
			grid.Resumed, len(halv.Evals))
	}
	if grid.Resumed+grid.Executed != grid.Points {
		t.Fatalf("resumed %d + executed %d != %d", grid.Resumed, grid.Executed, grid.Points)
	}
	// And the shared evaluations are byte-identical to fresh ones.
	fresh, err := Run(context.Background(), sim.NewSuite(quickOpts()), gridSpec, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range grid.Evals {
		if ev != fresh.Evals[i] {
			t.Fatalf("restored eval %d drifted from a fresh run: %+v vs %+v", i, ev, fresh.Evals[i])
		}
	}
}
