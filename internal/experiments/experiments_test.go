package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
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
	// Harmonic means over every profile, both classes together.
	rows, err := s.batch(context.Background(), []config.Machine{config.SS1(), config.SS2(config.Factors{}), config.SHREC()}, s.profiles)
	if err != nil {
		t.Fatal(err)
	}
	hm := func(rs []sim.Result) float64 {
		var ipcs []float64
		for _, r := range rs {
			ipcs = append(ipcs, r.IPC())
		}
		return stats.HarmonicMean(ipcs)
	}
	ss1, ss2, shrec := hm(rows[0]), hm(rows[1]), hm(rows[2])
	if !(ss2 < shrec && shrec <= ss1*1.02) {
		t.Fatalf("ordering violated: SS2 %.3f, SHREC %.3f, SS1 %.3f", ss2, shrec, ss1)
	}
}

// A fresh suite's fig2 simulates each of its 50 pairs once and counts no
// hit: the figure reads its aggregates from the batch it ran.
func TestFigure2CountsNoHits(t *testing.T) {
	s := tinySuite()
	if _, err := s.Figure2(context.Background()); err != nil {
		t.Fatal(err)
	}
	if c := s.sims.Counters(); c.Runs != 50 || c.Hits != 0 {
		t.Fatalf("fig2 on a fresh suite: %s, want runs=50 and no hits", c.Summary())
	}
}

// The per-class means split the class into the paper's high- and low-IPC
// groups: the overall harmonic mean lies between the groups', and the
// high-IPC group is in fact faster.
func TestAverages(t *testing.T) {
	s := NewSuite(sim.NewSuite(sim.Options{WarmupInstrs: 5000, MeasureInstrs: 10000, Parallelism: 8}))
	rows, err := s.batch(context.Background(), []config.Machine{config.SS1()}, s.profiles)
	if err != nil {
		t.Fatal(err)
	}
	av := means(rows[0], trace.IntClass)
	if av.All <= 0 || av.High <= 0 || av.Low <= 0 {
		t.Fatalf("averages = %+v", av)
	}
	lo, hi := av.Low, av.High
	if lo > hi {
		lo, hi = hi, lo
	}
	if av.All < lo || av.All > hi {
		t.Fatalf("overall %v outside [%v, %v]", av.All, lo, hi)
	}
	if av.High <= av.Low {
		t.Fatalf("high %v <= low %v", av.High, av.Low)
	}
	if fp := means(rows[0], trace.FPClass); fp.All == av.All {
		t.Fatalf("class filter ignored: integer and floating-point means both %v", fp.All)
	}
}

// Each group's mean CPI is the arithmetic mean over its results, in
// profile order.
func TestMeanCPI(t *testing.T) {
	s := tinySuite()
	rows, err := s.batch(context.Background(), []config.Machine{config.SS1()}, s.ints)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	var n int
	for _, r := range rows[0] {
		if r.HighIPC {
			sum += r.CPI()
			n++
		}
	}
	av := means(rows[0], trace.IntClass)
	if want := sum / float64(n); av.CPIHigh != want || av.CPIHigh <= 0 || av.CPIHigh > 50 {
		t.Fatalf("high-IPC mean CPI = %v, want %v", av.CPIHigh, want)
	}
	if av.CPILow <= 0 || av.CPILow > 50 {
		t.Fatalf("low-IPC mean CPI = %v", av.CPILow)
	}
}
