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

	"repro"
	"repro/internal/explore"
	"repro/internal/report"
	"repro/internal/telemetry"
)

// fatal reports err and exits with code.
func fatal(code int, err error) {
	fmt.Fprintln(os.Stderr, "explore:", err)
	os.Exit(code)
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

// parseList parses a comma-separated flag with parse, exiting on a bad
// element.
func parseList[T any](name, s string, parse func(string) (T, error)) []T {
	var out []T
	for _, p := range splitList(s) {
		v, err := parse(p)
		if err != nil {
			fatal(2, fmt.Errorf("bad -%s value %q: %v", name, p, err))
		}
		out = append(out, v)
	}
	return out
}

// parseFloat is strconv.ParseFloat at 64 bits, shaped for parseList.
func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }

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

	outFormat, err := report.ParseFormat(*format)
	if err != nil {
		fatal(2, err)
	}
	logger, err := telemetry.NewLogger(os.Stderr, *logLevel, *logFmt)
	if err != nil {
		fatal(1, err)
	}

	spec := repro.ExploreSpec{
		Space: repro.ExploreSpace{
			Bases:      splitList(*bases),
			XScales:    parseList("xscales", *xscales, parseFloat),
			Staggers:   parseList("staggers", *staggers, strconv.Atoi),
			FUScales:   parseList("fuscales", *fuscales, parseFloat),
			MSHRs:      parseList("mshrs", *mshrs, strconv.Atoi),
			MemPorts:   parseList("ports", *ports, strconv.Atoi),
			FaultRates: parseList("rates", *rates, parseFloat),
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

	c, err := repro.NewClient(
		repro.WithOptions(repro.Options{WarmupInstrs: *warm, MeasureInstrs: *n}),
		repro.WithStore(*storeP))
	if err != nil {
		fatal(1, err)
	}
	defer c.Close()

	progress := func(p repro.ExploreProgress) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "\r%s %d/%d (resumed %d) ", p.Phase, p.Done, p.Total, p.Resumed)
		}
	}
	// The job runs under ctx, so a signal cancels it; waiting without a
	// deadline lets it stop at its own checkpoint with its work persisted.
	res, err := c.StartExplore(ctx, spec, repro.WithProgress(progress)).Wait(context.Background())
	for _, st := range c.Metrics().Stages {
		logger.Debug("sim stage timing", "stage", st.Stage, "count", st.Count,
			"total_s", st.TotalSeconds, "p50_s", st.P50Seconds, "p99_s", st.P99Seconds)
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
			fatal(1, err)
		}
		defer f.Close()
		w = f
	}
	rep := res.Report()
	switch outFormat {
	case report.FormatText:
		err = rep.Text(w)
	case report.FormatJSON:
		err = rep.JSON(w)
	case report.FormatCSV:
		err = rep.CSV(w)
	}
	if err != nil {
		fatal(1, err)
	}
	if *storeP != "" && !*quiet {
		fmt.Fprintf(os.Stderr, "(%s; store %s)\n", c.Metrics().Summary(), *storeP)
	}
}
