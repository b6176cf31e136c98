// Interval-parallel: split one simulation's measured phase into
// independent intervals, run them concurrently, and verify the stitched
// result is byte-identical to the sequential stitch.
//
// Intervals > 1 selects the sampled interval estimator: each interval
// re-warms a fresh engine at its region of the instruction stream (in the
// SimPoint tradition), so intervals share no state and parallelism cannot
// perturb results — the wall-clock speedup is free determinism-preserving
// concurrency. The CI examples job runs this as the parallel smoke test.
//
//	go run ./examples/interval-parallel [benchmark]
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro"
)

func main() {
	bench := "mesa"
	if len(os.Args) > 1 {
		bench = os.Args[1]
	}
	p, err := repro.WorkloadByName(bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "interval-parallel:", err)
		os.Exit(1)
	}
	m := repro.SHREC()
	opt := repro.Options{
		WarmupInstrs:  10_000,
		MeasureInstrs: 200_000,
		Intervals:     8,
	}

	// Each run gets its own cacheless client, so the second run simulates
	// afresh instead of being served the first run's result.
	run := func(parallelism int) (repro.Result, time.Duration) {
		start := time.Now()
		c, err := repro.NewClient(repro.WithOptions(opt), repro.WithParallelism(parallelism), repro.WithCache(false))
		if err != nil {
			fmt.Fprintln(os.Stderr, "interval-parallel:", err)
			os.Exit(1)
		}
		defer c.Close()
		res, err := c.SimulateProfile(context.Background(), m, p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "interval-parallel:", err)
			os.Exit(1)
		}
		return res, time.Since(start)
	}

	seq, seqT := run(1)
	par, parT := run(8)

	fmt.Printf("benchmark %s on %s: %d instructions in %d intervals\n\n",
		bench, m.Name, opt.MeasureInstrs, opt.Intervals)
	fmt.Printf("  sequential (1 worker):  IPC %.3f  sig %016x  %v\n", seq.IPC(), seq.Stats.ArchSig, seqT.Round(time.Millisecond))
	fmt.Printf("  parallel   (8 workers): IPC %.3f  sig %016x  %v\n", par.IPC(), par.Stats.ArchSig, parT.Round(time.Millisecond))

	if seq.Stats != par.Stats {
		fmt.Fprintln(os.Stderr, "\ninterval-parallel: PARALLEL RUN DIVERGED FROM SEQUENTIAL")
		os.Exit(1)
	}
	fmt.Println("\nstitched counters and architectural signature are byte-identical:")
	fmt.Println("parallelism changed only the wall clock, never the result.")
}
