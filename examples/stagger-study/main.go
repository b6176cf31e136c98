// Stagger study: reproduce the shape of the paper's Figure 5 on selected
// benchmarks — IPC of the SS2+S+C machine as the maximum allowed stagger
// between the redundant threads grows from lockstep to effectively
// unbounded.
//
// The paper's observation: a moderate stagger (256 instructions) captures
// nearly all of the benefit, because it is enough to hide the longest
// system latency (a main-memory access); staggers beyond that add nothing
// since pairs must still retire together through the shared ROB.
//
//	go run ./examples/stagger-study [benchmarks...]
package main

import (
	"context"
	"fmt"
	"os"

	"repro"
)

func main() {
	benches := os.Args[1:]
	if len(benches) == 0 {
		benches = []string{"swim", "parser", "vortex-one", "apsi"}
	}
	staggers := []int{0, 64, 256, 1024, 1 << 20}

	c, err := repro.NewClient(repro.WithOptions(repro.Options{WarmupInstrs: 300_000, MeasureInstrs: 500_000}))
	if err != nil {
		fmt.Fprintln(os.Stderr, "stagger-study:", err)
		os.Exit(1)
	}
	defer c.Close()
	fmt.Printf("%-12s", "benchmark")
	for _, s := range staggers {
		fmt.Printf(" %9s", staggerLabel(s))
	}
	fmt.Println()

	for _, bench := range benches {
		fmt.Printf("%-12s", bench)
		for _, s := range staggers {
			m := repro.SS2(repro.Factors{S: true, C: true}).WithStagger(s)
			res, err := c.Simulate(context.Background(), m, bench)
			if err != nil {
				fmt.Fprintln(os.Stderr, "\nstagger-study:", err)
				os.Exit(1)
			}
			fmt.Printf(" %9.2f", res.IPC())
		}
		fmt.Println()
	}
	fmt.Println("\nColumns are IPC at each maximum stagger; gains flatten by ~256")
	fmt.Println("instructions, matching the paper's Figure 5.")
}

func staggerLabel(s int) string {
	switch {
	case s == 0:
		return "lockstep"
	case s >= 1<<20:
		return "1M"
	case s >= 1024:
		return fmt.Sprintf("%dK", s/1024)
	default:
		return fmt.Sprintf("%d", s)
	}
}
