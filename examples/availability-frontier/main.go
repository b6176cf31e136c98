// Availability-frontier: sweep checkpoint/rollback recovery policies on
// the SHREC machine under fault injection and find the Pareto frontier
// over performance, hardware cost, detection coverage, and steady-state
// availability.
//
// The space crosses SHREC with a checkpoint-interval axis — no recovery
// at all, then geometrically spaced intervals — under one transient-fault
// rate. Every checkpointed point runs its fault campaign under the
// recovery policy: detected faults roll back to the newest preceding
// architectural checkpoint, charge restore plus re-execution, and run to
// completion, so the campaign observes rollbacks, lost work, and the
// occasional unrecoverable detection directly. From those counts each
// point gets an availability estimate with Wilson-propagated confidence
// bounds and the implied MTTF; the recovery-free point keeps coverage
// only, anchoring what availability costs in checkpoint hardware.
//
// The exploration is deterministic and resumable: rerunning after an
// interrupt resumes from the store instead of re-simulating.
//
//	go run ./examples/availability-frontier [benchmark]
package main

import (
	"context"
	"fmt"
	"os"

	"repro"
)

func main() {
	bench := "crafty"
	if len(os.Args) > 1 {
		bench = os.Args[1]
	}

	c, err := repro.NewClient(
		repro.WithOptions(repro.Options{WarmupInstrs: 5_000, MeasureInstrs: 20_000}),
	)
	if err != nil {
		fmt.Fprintln(os.Stderr, "availability-frontier:", err)
		os.Exit(1)
	}
	defer c.Close()

	spec := repro.ExploreSpec{
		Space: repro.ExploreSpace{
			Bases: []string{"shrec"},
			// 0 = no recovery: the comparison point that shows what the
			// availability objective buys.
			CkptIntervals: []uint64{0, 256, 1024, 4096},
			CkptDepths:    nil, // depth 1 everywhere; add an axis to sweep it
			FaultRates:    []float64{2e-4},
		},
		Benchmarks: []string{bench},
		Trials:     12,
		Seed:       7,
	}
	// Restrict the interval axis to non-zero entries before adding a
	// depth axis: depth without an interval is rejected statically.

	ctx := context.Background()
	res, err := c.StartExplore(ctx, spec, repro.WithProgress(func(p repro.ExploreProgress) {
		if p.Done == p.Total {
			fmt.Printf("  %s pass: %d/%d evaluations\n", p.Phase, p.Done, p.Total)
		}
	})).Wait(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "availability-frontier:", err)
		os.Exit(1)
	}

	fmt.Println()
	fmt.Print(res.Report().String())

	// The typed evaluations carry the availability estimates directly —
	// a dashboard would plot Avail (with AvailLo/AvailHi error bars)
	// against Cost.
	fmt.Println()
	for _, ev := range res.Evals {
		if !ev.Availed {
			fmt.Printf("  %-28s coverage %.3f, no recovery: availability undefined\n",
				ev.Spec, ev.Coverage)
			continue
		}
		fmt.Printf("  %-28s availability %.4f [%.4f, %.4f], MTTF %.3g cycles\n",
			ev.Spec, ev.Avail, ev.AvailLo, ev.AvailHi, ev.MTTFCycles)
	}
	fmt.Printf("\nfrontier of %d over a %d-point space\n", len(res.Frontier), res.Points)
}
