// Command explore searches a machine-configuration space for
// Pareto-efficient resource sharing: every point is scored on IPC,
// slowdown against the plain SS2 redundant baseline, a deterministic
// hardware-cost proxy, and (with -rates) Monte Carlo detection coverage,
// and the non-dominated configurations are reported.
//
// The space is the cross product of -bases with the optional axes; empty
// axes keep the base machine's value. -strategy grid evaluates every
// point at full fidelity (and refuses spaces over -budget); -strategy
// halving screens the whole space at run lengths divided by -screendiv
// and re-evaluates only the Pareto-ranked surviving half. With -store,
// finished evaluations persist and an interrupted exploration resumes
// where it left off.
//
// Usage:
//
//	explore [-strategy grid|halving] [-bases ss1,ss2,ss2+s,shrec,diva]
//	        [-benchmarks crafty] [-xscales 0.5,1,1.5] [-staggers ...]
//	        [-fuscales ...] [-mshrs ...] [-ports ...] [-rates ...]
//	        [-trials 24] [-n instrs] [-warmup instrs] [-seed N]
//	        [-budget N] [-screendiv 8] [-store evals.db]
//	        [-format text|json|csv] [-o file]
//	        [-log-level info] [-log-format text]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/explore"
	"repro/internal/report"
	"repro/internal/retry"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// openStore opens the evaluation store with a short retry: a transiently
// busy path must not kill an exploration about to resume persisted work.
func openStore(path string) (*store.Store, error) {
	var st *store.Store
	p := retry.Policy{MaxAttempts: 3, BaseDelay: 200 * time.Millisecond, MaxDelay: 2 * time.Second}
	err := p.Do(context.Background(), func(context.Context) error {
		var err error
		st, err = store.Open(path)
		return err
	})
	return st, err
}

// splitList parses a comma-separated flag, trimming blanks.
func splitList(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// floatList parses a comma-separated list of floats.
func floatList(name, s string) []float64 {
	var out []float64
	for _, p := range splitList(s) {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "explore: bad -%s value %q: %v\n", name, p, err)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

// intList parses a comma-separated list of integers.
func intList(name, s string) []int {
	var out []int
	for _, p := range splitList(s) {
		v, err := strconv.Atoi(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "explore: bad -%s value %q: %v\n", name, p, err)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

func main() {
	var (
		strategy  = flag.String("strategy", explore.StrategyGrid, "search strategy: grid or halving")
		bases     = flag.String("bases", "ss1,ss2,ss2+s,shrec,diva", "comma-separated base machine specs")
		benchs    = flag.String("benchmarks", explore.DefaultBenchmark, "comma-separated benchmarks to score on")
		xscales   = flag.String("xscales", "", "comma-separated issue/FU/port scale axis (e.g. 0.5,1,1.5)")
		staggers  = flag.String("staggers", "", "comma-separated max-stagger axis")
		fuscales  = flag.String("fuscales", "", "comma-separated FU-pool scale axis")
		mshrs     = flag.String("mshrs", "", "comma-separated MSHR-count axis")
		ports     = flag.String("ports", "", "comma-separated memory-port axis")
		rates     = flag.String("rates", "", "comma-separated fault-rate axis (adds a coverage objective)")
		trials    = flag.Int("trials", 0, "coverage campaign trials per faulted point (0 = default)")
		n         = flag.Uint64("n", 50_000, "measured instructions per evaluation")
		warm      = flag.Uint64("warmup", 20_000, "warmup instructions per evaluation")
		seed      = flag.Uint64("seed", 0xF00D, "exploration master seed")
		budget    = flag.Int("budget", 0, "full-fidelity evaluation budget (0 = strategy default)")
		screenDiv = flag.Int("screendiv", 0, "halving screen run-length divisor (0 = default)")
		storeP    = flag.String("store", "", "persist evaluations in this store directory (resumable)")
		format    = flag.String("format", "text", "output format: text, json, or csv")
		out       = flag.String("o", "", "write output to file (default stdout)")
		quiet     = flag.Bool("q", false, "suppress progress on stderr")
		logLevel  = flag.String("log-level", "info", "structured log level: debug, info, warn, error")
		logFmt    = flag.String("log-format", "text", "structured log format: text, json")
	)
	flag.Parse()

	logger, err := telemetry.NewLogger(os.Stderr, *logLevel, *logFmt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "explore:", err)
		os.Exit(1)
	}

	spec := explore.Spec{
		Space: explore.Space{
			Bases:      splitList(*bases),
			XScales:    floatList("xscales", *xscales),
			Staggers:   intList("staggers", *staggers),
			FUScales:   floatList("fuscales", *fuscales),
			MSHRs:      intList("mshrs", *mshrs),
			MemPorts:   intList("ports", *ports),
			FaultRates: floatList("rates", *rates),
		},
		Strategy:      *strategy,
		Benchmarks:    splitList(*benchs),
		Seed:          *seed,
		WarmupInstrs:  *warm,
		MeasureInstrs: *n,
		ScreenDiv:     *screenDiv,
		Budget:        *budget,
		Trials:        *trials,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	reg := telemetry.NewRegistry()
	sims := sim.NewSuite(sim.Options{WarmupInstrs: *warm, MeasureInstrs: *n}).WithTelemetry(reg)
	eng := explore.New(sims)
	if *storeP != "" {
		st, err := openStore(*storeP)
		if err != nil {
			fmt.Fprintln(os.Stderr, "explore:", err)
			os.Exit(1)
		}
		defer st.Close()
		sims.WithStore(st)
		eng.WithStore(st)
	}

	progress := func(p explore.Progress) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "\r%s %d/%d (resumed %d) ", p.Phase, p.Done, p.Total, p.Resumed)
		}
	}
	res, err := eng.Run(ctx, spec, progress)
	for _, st := range sims.StageSnapshots() {
		logger.Debug("sim stage timing", "stage", st.Labels[0],
			"count", st.Snapshot.Count, "total_s", st.Snapshot.Sum,
			"p50_s", st.Snapshot.Quantile(0.5), "p99_s", st.Snapshot.Quantile(0.99))
	}
	if !*quiet {
		fmt.Fprintln(os.Stderr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "explore:", err)
		if *storeP != "" {
			fmt.Fprintln(os.Stderr, "explore: finished evaluations are persisted; rerun with the same flags to resume")
		}
		os.Exit(1)
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "explore:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	rep := res.Report()
	switch *format {
	case "text":
		err = rep.Text(w)
	case "json":
		err = rep.JSON(w)
	case "csv":
		err = report.WriteCSV(w, rep)
	default:
		fmt.Fprintf(os.Stderr, "explore: unknown -format %q (have text, json, csv)\n", *format)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "explore:", err)
		os.Exit(1)
	}
	if *storeP != "" && !*quiet {
		fmt.Fprintf(os.Stderr, "(%s; store %s)\n", sims.Counters().Summary(), *storeP)
	}
}
