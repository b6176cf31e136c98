// Benchmarks: one per table and figure of the paper's evaluation. Each
// benchmark simulates the experiment's machine configurations on
// representative workloads for b.N instructions per machine, so ns/op is
// simulation cost per (machine x instruction). Run the full-scale
// reproduction with cmd/experiments; these benches exercise exactly the
// same code paths at benchmark-friendly sizes.
package repro

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/factorial"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// benchWorkloads picks a small representative subset: one low and one high
// IPC benchmark per class.
func benchWorkloads() []trace.Profile {
	names := []string{"parser", "vortex-one", "swim", "apsi"}
	out := make([]trace.Profile, 0, len(names))
	for _, n := range names {
		p, err := workload.ByName(n)
		if err != nil {
			panic(err)
		}
		out = append(out, p)
	}
	return out
}

// runMachines simulates b.N instructions on every (machine, workload) pair.
func runMachines(b *testing.B, machines ...config.Machine) {
	b.Helper()
	b.ReportAllocs()
	profiles := benchWorkloads()
	var engines []*core.Engine
	for _, m := range machines {
		for _, p := range profiles {
			engines = append(engines, core.New(m, trace.New(p)))
		}
	}
	b.ResetTimer()
	var cycles int64
	var retired uint64
	for _, e := range engines {
		st, err := e.RunBudget(context.Background(), uint64(b.N), 0)
		if err != nil {
			b.Fatal(err)
		}
		cycles += st.Cycles
		retired += st.Retired
	}
	b.StopTimer()
	b.ReportMetric(float64(retired)/float64(cycles), "IPC-agg")
}

// BenchmarkFigure2 exercises the SS1-versus-SS2 comparison.
func BenchmarkFigure2(b *testing.B) {
	runMachines(b, config.SS2(config.Factors{}), config.SS1())
}

// BenchmarkTable2 exercises all sixteen factor combinations.
func BenchmarkTable2(b *testing.B) {
	combos := config.AllFactorCombinations()
	machines := make([]config.Machine, len(combos))
	for i, f := range combos {
		machines[i] = config.SS2(f)
	}
	runMachines(b, machines...)
}

// BenchmarkTable3 exercises the factorial analysis on top of the sixteen
// configurations (the analysis itself is microscopic next to simulation).
func BenchmarkTable3(b *testing.B) {
	resp := make([]float64, 16)
	for i := range resp {
		resp[i] = 1 + float64(i)*0.1
	}
	factors := []string{"X", "S", "C", "B"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := factorial.Analyze(factors, resp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCycle is the per-cycle cost microbenchmark: one engine and one
// memory-bound workload (swim streams through a footprint far beyond the
// L2) per execution mode, so ns/op isolates the inner simulation loop the
// cycle-skipping engine optimizes. The tick sub-benchmark runs the same
// SS1 configuration under the reference tick-by-tick loop (core.WithTickLoop)
// so the fast-forward speedup is itself recorded in BENCH_baseline.json.
func BenchmarkCycle(b *testing.B) {
	p, err := workload.ByName("swim")
	if err != nil {
		b.Fatal(err)
	}
	machines := []config.Machine{
		config.SS1(),
		config.SS2(config.Factors{}),
		config.SS2(config.Factors{S: true}),
		config.SHREC(),
		config.O3RS(),
	}
	// The detection-mode zoo, under benchmark-stable labels (machine names
	// carry '@'/'+' value syntax that would churn the baseline keys if the
	// defaults moved).
	zoo := []struct {
		label string
		m     config.Machine
	}{
		{"MEEK2", config.MEEK(2)},
		{"SHREC-ctx8", config.SHREC().WithContexts(8)},
		{"FLEX", config.FLEX()},
	}
	run := func(b *testing.B, m config.Machine, opts ...core.Option) {
		b.ReportAllocs()
		e := core.New(m, trace.New(p), opts...)
		b.ResetTimer()
		st, err := e.RunBudget(context.Background(), uint64(b.N), 0)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if st.Retired > 0 {
			b.ReportMetric(float64(st.Cycles)/float64(st.Retired), "CPI")
		}
		if st.Cycles > 0 {
			b.ReportMetric(float64(e.SkippedCycles())/float64(st.Cycles), "skip-frac")
		}
	}
	for _, m := range machines {
		b.Run(m.Name, func(b *testing.B) { run(b, m) })
	}
	for _, z := range zoo {
		b.Run(z.label, func(b *testing.B) { run(b, z.m) })
	}
	b.Run("SS1-tick", func(b *testing.B) { run(b, config.SS1(), core.WithTickLoop()) })
}

// BenchmarkFigure3 exercises the C-factor study.
func BenchmarkFigure3(b *testing.B) {
	runMachines(b,
		config.SS2(config.Factors{}),
		config.SS2(config.Factors{C: true}),
		config.SS1(),
	)
}

// BenchmarkFigure4 exercises the S-factor study.
func BenchmarkFigure4(b *testing.B) {
	runMachines(b,
		config.SS2(config.Factors{}),
		config.SS2(config.Factors{S: true}),
		config.SS1(),
	)
}

// BenchmarkFigure5 exercises the stagger sweep.
func BenchmarkFigure5(b *testing.B) {
	base := config.SS2(config.Factors{S: true, C: true})
	runMachines(b,
		base.WithStagger(0),
		base.WithStagger(256),
		base.WithStagger(1024),
		base.WithStagger(1<<20),
	)
}

// BenchmarkFigure7 exercises the headline SHREC comparison.
func BenchmarkFigure7(b *testing.B) {
	runMachines(b,
		config.SS2(config.Factors{}),
		config.SHREC(),
		config.SS2(config.Factors{S: true, C: true, B: true}),
		config.SS1(),
	)
}

// BenchmarkFigure8 exercises the X-scaling sweep.
func BenchmarkFigure8(b *testing.B) {
	var machines []config.Machine
	for _, sc := range []float64{0.5, 1, 1.5, 2} {
		machines = append(machines,
			config.SHREC().WithXScale(sc),
			config.SS2(config.Factors{}).WithXScale(sc))
	}
	runMachines(b, machines...)
}

// BenchmarkSuiteCache measures the memoizing suite on tiny runs.
func BenchmarkSuiteCache(b *testing.B) {
	opt := sim.Options{WarmupInstrs: 1000, MeasureInstrs: 2000}
	s := sim.NewSuite(opt)
	ctx := context.Background()
	p, _ := workload.ByName("gzip-graphic")
	m := config.SS1()
	if _, err := s.GetOpt(ctx, m, p, s.Options()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.GetOpt(ctx, m, p, s.Options()); err != nil {
			b.Fatal(err)
		}
	}
}

// Example-style sanity check keeping the bench file honest about what it
// measures.
func Example() {
	c, err := NewClient(WithOptions(Options{WarmupInstrs: 2000, MeasureInstrs: 4000}))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer c.Close()
	res, err := c.Simulate(context.Background(), SS1(), "gzip-graphic")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(res.IPC() > 0)
	// Output: true
}
