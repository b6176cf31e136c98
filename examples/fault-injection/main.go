// Fault injection: demonstrate that the redundant machines actually detect
// and recover from transient errors, which is the entire point of paying
// the performance penalty the paper measures.
//
// The example injects single-bit-flip-style result corruptions at a given
// per-instruction rate into SS1 (no protection), SS2 (pairwise compare at
// retirement), and SHREC (in-order checker), then reports detection
// coverage and the recovery cost.
//
//	go run ./examples/fault-injection [-rate 2e-5]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro"
)

func main() {
	rate := flag.Float64("rate", 2e-5, "per-instruction fault probability")
	bench := flag.String("bench", "crafty", "benchmark to run")
	flag.Parse()

	c, err := repro.NewClient(repro.WithOptions(repro.Options{WarmupInstrs: 200_000, MeasureInstrs: 600_000}))
	if err != nil {
		fmt.Fprintln(os.Stderr, "fault-injection:", err)
		os.Exit(1)
	}
	defer c.Close()
	fmt.Printf("injecting transient faults at rate %.0e on %s\n\n", *rate, *bench)
	fmt.Printf("%-8s %8s %9s %9s %7s %8s %10s\n",
		"machine", "IPC", "injected", "detected", "silent", "recover", "coverage")

	for _, base := range []repro.Machine{
		repro.SS1(),
		repro.SS2(repro.Factors{S: true}),
		repro.SHREC(),
	} {
		m := base
		m.FaultRate = *rate
		m.FaultSeed = 2004 // MICRO-37
		res, err := c.Simulate(context.Background(), m, *bench)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fault-injection:", err)
			os.Exit(1)
		}
		st := res.Stats
		coverage := "n/a"
		// Faults wiped by an unrelated recovery's squash (or still in
		// flight at the end) never reach a compare, so coverage counts
		// the faults that did.
		if eligible := st.FaultsInjected - st.FaultsSquashed; eligible > 0 {
			pct := 100 * float64(st.FaultsDetected) / float64(eligible)
			if pct > 100 {
				pct = 100
			}
			coverage = fmt.Sprintf("%.0f%%", pct)
		}
		fmt.Printf("%-8s %8.2f %9d %9d %7d %8d %10s\n",
			m.Name, res.IPC(), st.FaultsInjected, st.FaultsDetected,
			st.SilentCorruptions, st.SoftExceptions, coverage)
	}

	fmt.Println("\nSS1 lets every fault escape as silent data corruption; SS2 and SHREC")
	fmt.Println("detect each one at the redundant compare and replay from the faulty")
	fmt.Println("instruction (a soft exception), losing only pipeline-refill time.")
}
