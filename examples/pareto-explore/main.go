// Pareto-explore: search a small machine-configuration space for
// Pareto-efficient resource sharing — the exploration engine turned on
// the paper's own cast of machines, scaled up and down.
//
// The space crosses the error-detecting machines — symmetric SS2 with
// and without the paper's S/C factors, resource-sharing SHREC, and
// dedicated-checker DIVA — with three issue/FU bandwidth scales (fifteen
// points). Each point is scored on IPC, slowdown against the plain SS2
// redundant baseline, and a deterministic hardware-cost proxy; the
// report lists the configurations no other point beats on every
// objective at once. Successive halving screens the whole space at
// one-eighth run length and re-evaluates only the surviving half at full
// fidelity.
//
// Evaluations persist to a store, so interrupting and re-running this
// example resumes instead of re-evaluating: the second run prints
// "resumed" evaluations in the report notes.
//
//	go run ./examples/pareto-explore [benchmark]
package main

import (
	"context"
	"fmt"
	"os"

	"repro"
)

func main() {
	bench := "swim"
	if len(os.Args) > 1 {
		bench = os.Args[1]
	}

	c, err := repro.NewClient(
		repro.WithOptions(repro.Options{WarmupInstrs: 5_000, MeasureInstrs: 20_000}),
		repro.WithStore("pareto-explore.db"), // interrupt + rerun = resume
	)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pareto-explore:", err)
		os.Exit(1)
	}
	defer c.Close()

	spec := repro.ExploreSpec{
		Space: repro.ExploreSpace{
			Bases:   []string{"ss2", "ss2+s", "ss2+sc", "shrec", "diva"},
			XScales: []float64{0.5, 1, 1.5},
		},
		Strategy:   "halving",
		Benchmarks: []string{bench},
		Seed:       42,
	}

	ctx := context.Background()
	// The progress callback streams the evaluation phases; a server
	// would publish these snapshots (shrecd's POST /explorations does
	// exactly that).
	res, err := c.StartExplore(ctx, spec, repro.WithProgress(func(p repro.ExploreProgress) {
		if p.Done == p.Total {
			fmt.Printf("  %s pass: %d/%d evaluations (%d resumed)\n",
				p.Phase, p.Done, p.Total, p.Resumed)
		}
	})).Wait(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pareto-explore:", err)
		os.Exit(1)
	}

	fmt.Println()
	fmt.Print(res.Report().String())
	fmt.Printf("\nfrontier of %d over a %d-point space; resumed %d, executed %d (rerun: all resume)\n",
		len(res.Frontier), res.Points, res.Resumed, res.Executed)
}
