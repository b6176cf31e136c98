// Command workloads characterizes the synthetic SPEC2K-like benchmark
// suite: for each profile it reports the measured instruction mix, branch
// behavior, and cache miss rates on the SS1 baseline, so the substitution
// of synthetic profiles for the paper's SimPoint traces, documented in the
// internal/workload and internal/trace package comments, is inspectable.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sync"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	var (
		n    = flag.Uint64("n", 300_000, "instructions to characterize")
		warm = flag.Uint64("warmup", 100_000, "warmup instructions")
	)
	flag.Parse()

	type row struct {
		name  string
		cells []string
	}
	profiles := workload.All()
	rows := make([]row, len(profiles))
	var wg sync.WaitGroup
	for i, p := range profiles {
		wg.Add(1)
		go func(i int, p trace.Profile) {
			defer wg.Done()
			// Measure the static mix from the generator itself.
			g := trace.New(p)
			var counts [isa.NumOpClasses]uint64
			total := 3 * int(*n) / 2
			for k := 0; k < total; k++ {
				counts[g.Next().Class]++
			}
			frac := func(c isa.OpClass) float64 {
				return float64(counts[c]) / float64(total)
			}

			e := core.New(config.SS1(), trace.New(p))
			if err := e.WarmupContext(context.Background(), *warm); err != nil {
				fmt.Fprintln(os.Stderr, "workloads:", err)
				os.Exit(1)
			}
			st, err := e.RunBudget(context.Background(), *n, 0)
			if err != nil {
				fmt.Fprintln(os.Stderr, "workloads:", err)
				os.Exit(1)
			}
			h := e.Mem()
			class := p.Class.String()
			if p.HighIPC {
				class += "/high"
			} else {
				class += "/low"
			}
			rows[i] = row{p.Name, []string{
				class,
				fmt.Sprintf("%.2f", st.IPC()),
				fmt.Sprintf("%.2f", frac(isa.OpIALU)+frac(isa.OpIMul)+frac(isa.OpIDiv)),
				fmt.Sprintf("%.2f", frac(isa.OpFAdd)+frac(isa.OpFMul)+frac(isa.OpFDiv)),
				fmt.Sprintf("%.2f", frac(isa.OpLoad)+frac(isa.OpStore)),
				fmt.Sprintf("%.2f", frac(isa.OpBranch)),
				fmt.Sprintf("%.3f", st.MispredictRate()),
				fmt.Sprintf("%.3f", h.L1D().MissRate()),
				fmt.Sprintf("%.3f", h.L2().MissRate()),
				fmt.Sprintf("%.1f", float64(st.MSHROccSum)/float64(st.Cycles)),
			}}
		}(i, p)
	}
	wg.Wait()

	tb := stats.NewTable("Synthetic SPEC2K-like workload characterization (SS1 baseline)",
		"benchmark", "class", "IPC", "int", "fp", "mem", "br", "mispred", "L1D", "L2", "MLP")
	for _, r := range rows {
		tb.AddRow(append([]string{r.name}, r.cells...)...)
	}
	fmt.Print(tb.String())
}
