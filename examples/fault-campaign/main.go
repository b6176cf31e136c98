// Fault-campaign: run a Monte Carlo fault-injection campaign against
// SHREC and print the classified outcome distribution with its
// Wilson-bounded coverage estimate — the statistically grounded version
// of "does the protection actually work?".
//
// Every trial simulates the same (machine, benchmark) pair with a
// distinct derived fault seed, injecting transient result corruptions
// inside the measured region only, and is classified against a fault-free
// golden run: detected, squashed-benign, masked, silent data corruption
// (architectural-signature divergence), or hang (cycle-budget watchdog).
//
// The client's store keeps one record per simulation — the golden run and
// each trial — so interrupting and re-running this example resumes
// instead of re-simulating: every finished trial is a store hit, and the
// second run prints "resumed 120 of 120".
//
//	go run ./examples/fault-campaign [benchmark]
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
		repro.WithStore("fault-campaign.db"), // interrupt + rerun = resume
	)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fault-campaign:", err)
		os.Exit(1)
	}
	defer c.Close()

	spec := repro.CampaignSpec{
		Machine:   "shrec",
		Benchmark: bench,
		Trials:    120,
		FaultRate: 1e-4,
		Seed:      42,
	}

	ctx := context.Background()
	// The progress callback streams the running coverage estimate; a
	// server would publish these snapshots (shrecd's POST /campaigns
	// does exactly that).
	res, err := c.StartCampaign(ctx, spec, repro.WithProgress(func(p repro.CampaignProgress) {
		if p.Done%40 == 0 || p.Done == p.Total {
			fmt.Printf("  %3d/%d trials, coverage %.1f%% [%.1f%%, %.1f%%]\n",
				p.Done, p.Total, 100*p.Coverage.Point, 100*p.Coverage.Lo, 100*p.Coverage.Hi)
		}
	})).Wait(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fault-campaign:", err)
		os.Exit(1)
	}

	fmt.Println()
	fmt.Print(res.Report().String())
	fmt.Printf("\nresumed %d, executed %d (rerun this example: all %d resume)\n",
		res.Resumed, res.Executed, len(res.Trials))
}
