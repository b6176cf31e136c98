// Command shrecsim runs one benchmark on one machine configuration and
// prints detailed statistics.
//
// Usage:
//
//	shrecsim -bench swim -machine shrec [-n instrs] [-warmup instrs]
//	         [-stagger N] [-xscale F] [-faultrate P]
//
// -machine takes any machine spec config.ByName accepts: a base — ss1,
// ss2, ss2+<factors> (e.g. ss2+sc, ss2+xscb), shrec, diva, o3rs,
// meek@N (N checker lanes), or flex@P:onL (check the first L of every P
// fetched instructions) — followed by optional modifiers: @x<f>,
// +stagger<n>, +ctx<k> (SHREC checker contexts, e.g. shrec+ctx4),
// +fux<f>, +mshr<n>, +ports<n>, +rate<p>, +ckpt<n>, +depth<n>. See
// internal/config/spec.go for the full grammar.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/fu"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	var (
		bench     = flag.String("bench", "swim", "benchmark name (see cmd/workloads for the list)")
		machine   = flag.String("machine", "shrec", "machine spec: ss1, ss2, ss2+<factors>, shrec, diva, o3rs, meek@N, flex@P:onL, plus modifiers like shrec+ctx4 or ss2+sc@x1.5+stagger256")
		n         = flag.Uint64("n", 1_000_000, "measured instructions")
		warm      = flag.Uint64("warmup", 200_000, "warmup instructions")
		stagger   = flag.Int("stagger", -1, "override the SS2 maximum stagger")
		xscale    = flag.Float64("xscale", 1, "scale issue width and functional units")
		faultRate = flag.Float64("faultrate", 0, "per-instruction transient fault probability")
		faultSeed = flag.Uint64("faultseed", 1, "fault injection seed")
		prefetch  = flag.Bool("prefetch", false, "enable the stride prefetcher (what-if; off in the paper)")
	)
	flag.Parse()

	p, err := workload.ByName(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "shrecsim:", err)
		os.Exit(1)
	}
	m, err := config.ByName(*machine)
	if err != nil {
		fmt.Fprintln(os.Stderr, "shrecsim:", err)
		os.Exit(1)
	}
	if *stagger >= 0 {
		m = m.WithStagger(*stagger)
	}
	if *xscale != 1 {
		m = m.WithXScale(*xscale)
	}
	m.FaultRate = *faultRate
	m.FaultSeed = *faultSeed
	m.Mem.Prefetch.Enable = *prefetch

	e := core.New(m, trace.New(p))
	opt := sim.Options{WarmupInstrs: *warm, MeasureInstrs: *n}
	if opt.WarmupInstrs > 0 {
		if err := e.Warmup(opt.WarmupInstrs); err != nil {
			fmt.Fprintln(os.Stderr, "shrecsim:", err)
			os.Exit(1)
		}
	}
	st, err := e.Run(opt.MeasureInstrs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "shrecsim:", err)
		os.Exit(1)
	}

	fmt.Printf("%s on %s (%s)\n", m.Name, p.Name, p.Class)
	fmt.Printf("  IPC               %8.3f\n", st.IPC())
	fmt.Printf("  cycles            %8d\n", st.Cycles)
	fmt.Printf("  retired           %8d\n", st.Retired)
	fmt.Printf("  wrong-path fetch  %8d\n", st.WrongPathFetched)
	fmt.Printf("  mispredict rate   %8.3f\n", st.MispredictRate())
	fmt.Printf("  BTB bubbles       %8d\n", st.BTBBubbles)
	fmt.Printf("  issued M/R/chk    %d / %d / %d\n", st.IssuedM, st.IssuedR, st.IssuedChecker)
	fmt.Printf("  load forwards     %8d\n", st.LoadForwards)
	fmt.Printf("  avg ROB/ISQ/LSQ   %.1f / %.1f / %.1f\n",
		st.AvgROBOcc(), float64(st.ISQOccSum)/float64(st.Cycles), float64(st.LSQOccSum)/float64(st.Cycles))
	fmt.Printf("  avg MLP           %8.2f\n", float64(st.MSHROccSum)/float64(st.Cycles))
	fmt.Printf("  avg stagger       %8.1f\n", st.AvgStagger())

	h := e.Mem()
	fmt.Printf("  L1I/L1D/L2 miss   %.3f / %.3f / %.3f\n",
		h.L1I().MissRate(), h.L1D().MissRate(), h.L2().MissRate())
	if pfIss, pfUse := h.PrefetchStats(); pfIss > 0 {
		fmt.Printf("  prefetch iss/use  %d / %d\n", pfIss, pfUse)
	}
	util := e.Pool().Utilization(st.Cycles)
	fmt.Printf("  FU util (IALU/IMULDIV/FADD/FMULDIV)  %.2f / %.2f / %.2f / %.2f\n",
		util[fu.IALU], util[fu.IMULDIV], util[fu.FADD], util[fu.FMULDIV])
	if *faultRate > 0 {
		fmt.Printf("  faults inj/det    %d / %d (silent: %d, exceptions: %d)\n",
			st.FaultsInjected, st.FaultsDetected, st.SilentCorruptions, st.SoftExceptions)
	}
}
