package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/sim"
)

// tinySuite uses very short runs: these tests validate harness plumbing
// and output structure, not the paper's numbers (see docs/EXPERIMENTS.md
// and the full-scale cmd/experiments run for those). In -short mode (CI)
// the runs shrink further: structure assertions hold at any scale.
func tinySuite() *Suite {
	opt := sim.Options{WarmupInstrs: 2000, MeasureInstrs: 5000, Parallelism: 16}
	if testing.Short() {
		opt.WarmupInstrs = 500
		opt.MeasureInstrs = 1500
	}
	return NewSuite(sim.NewSuite(opt))
}

func TestNamesComplete(t *testing.T) {
	want := []string{"fig2", "table2", "table3", "fig3", "fig4", "fig5", "fig7", "fig8", "ablation", "o3rs"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("names = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("names[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

// TestCatalogDocs pins that every registry entry carries the prose the
// generated docs/EXPERIMENTS.md catalog is built from.
func TestCatalogDocs(t *testing.T) {
	for _, e := range Catalog() {
		if e.Doc == "" {
			t.Errorf("%s: empty Doc", e.Name)
		}
		if e.Title == "" {
			t.Errorf("%s: empty Title", e.Name)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := tinySuite().Run(context.Background(), "fig42"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestFigure2Structure(t *testing.T) {
	rep, err := tinySuite().Figure2(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	out := rep.String()
	for _, want := range []string{
		"Figure 2(a)", "Figure 2(b)", "SS2", "SS1",
		"gap", "vortex-one [high]", "equake", "apsi [high]",
		"Average", "Average (Low only)", "Average (High only)",
		"penalty vs SS1 on integer", "penalty vs SS1 on floating-point",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("fig2 output missing %q", want)
		}
	}
	if n := strings.Count(out, "gap"); n != 1 {
		t.Errorf("gap appears %d times in fig2, want 1", n)
	}
}

func TestTable2Structure(t *testing.T) {
	rep, err := tinySuite().Table2(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	out := rep.String()
	if !strings.Contains(out, "X S C B") {
		t.Fatal("missing header")
	}
	// Sixteen data rows: one per factor combination.
	if n := strings.Count(out, "\n"); n < 18 {
		t.Fatalf("table2 has %d lines", n)
	}
	for _, row := range []string{"- - - -", "X S C B", "- S C B", "X - C -"} {
		if !strings.Contains(out, row) {
			t.Errorf("missing row %q", row)
		}
	}
	// The baseline row must be all zeros.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "- - - -") {
			fields := strings.Fields(line)
			for _, f := range fields[4:] {
				if f != "0" && f != "-0" {
					t.Fatalf("baseline row not zero: %q", line)
				}
			}
		}
	}
}

func TestTable3Structure(t *testing.T) {
	rep, err := tinySuite().Table3(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	out := rep.String()
	if !strings.Contains(out, "Table 3") || !strings.Contains(out, "factor") {
		t.Fatalf("table3 header malformed:\n%s", out)
	}
	if testing.Short() {
		// At short-mode run lengths some classes legitimately have no
		// >3% effects; the per-class rows are asserted at full scale.
		return
	}
	for _, want := range []string{
		"Integer: High", "Integer: Low",
		"Floating-point: High", "Floating-point: Low",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("table3 missing class %q", want)
		}
	}
}

func TestFigure5Structure(t *testing.T) {
	rep, err := tinySuite().Figure5(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	out := rep.String()
	for _, want := range []string{"0 Stagger", "256 Stagger", "1K Stagger", "1M Stagger",
		"Integer Low", "Floating-point High"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig5 missing %q", want)
		}
	}
}

func TestFigure7Structure(t *testing.T) {
	rep, err := tinySuite().Figure7(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	out := rep.String()
	for _, want := range []string{"SHREC", "SS2+SCB", "Figure 7(a)", "Figure 7(b)"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig7 missing %q", want)
		}
	}
}

func TestFigure8Structure(t *testing.T) {
	rep, err := tinySuite().Figure8(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	out := rep.String()
	for _, want := range []string{"0.5X", "2X", "SHREC - FP High", "SS2 - Int Low"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig8 missing %q", want)
		}
	}
}

func TestSharedCacheAcrossExperiments(t *testing.T) {
	// Figures 3 and 4 share SS1 and SS2 runs with Figure 2: running all
	// three must not blow up and should reuse the cache (observable as a
	// much smaller second cost, but here we just assert correctness).
	s := tinySuite()
	if _, err := s.Figure2(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Figure3(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Figure4(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// Even at tiny scale, the first-order qualitative results must hold:
// SS2 slower than SS1, SHREC between them on average.
func TestQualitativeOrderingAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("qualitative ordering needs run lengths beyond short mode")
	}
	s := NewSuite(sim.NewSuite(sim.Options{WarmupInstrs: 10000, MeasureInstrs: 30000, Parallelism: 16}))
	if _, err := s.Figure7(context.Background()); err != nil {
		t.Fatal(err)
	}
	ss1, err := s.sims.Averages(context.Background(), ss1Machine(), s.profiles)
	if err != nil {
		t.Fatal(err)
	}
	ss2, err := s.sims.Averages(context.Background(), ss2Machine(), s.profiles)
	if err != nil {
		t.Fatal(err)
	}
	shrec, err := s.sims.Averages(context.Background(), shrecMachine(), s.profiles)
	if err != nil {
		t.Fatal(err)
	}
	if !(ss2.All < shrec.All && shrec.All <= ss1.All*1.02) {
		t.Fatalf("ordering violated: SS2 %.3f, SHREC %.3f, SS1 %.3f",
			ss2.All, shrec.All, ss1.All)
	}
}
