// Command faultstudy sweeps transient-fault injection rates across the
// redundant machines and reports statistically grounded detection
// coverage — an extension beyond the paper's performance-only evaluation,
// validating that the protection the machines pay for actually works.
//
// It is a thin preset over the client's Monte Carlo campaigns
// (repro.Client.StartCampaign): each (machine, rate) cell runs a campaign of
// -trials independent fault-injection trials, classifies every trial
// (detected / squashed / masked / SDC / hang / clean) against a
// fault-free golden run, and reports coverage with Wilson 95% confidence
// bounds. With -store, finished trials persist and an interrupted sweep
// resumes where it left off.
//
// With -recover, every campaign runs under a checkpoint/rollback
// recovery policy ("ckpt@<interval>[+depth<d>][+flush<f>][+restore<r>]"):
// detected faults roll back to the newest preceding architectural
// checkpoint and re-execute, and the report gains per-cell rollback
// counts, mean recovery latency, and the steady-state availability and
// MTTF estimates the campaign implies.
//
// Usage:
//
//	faultstudy [-bench crafty] [-machines ss1,ss2+s,o3rs,shrec,diva]
//	           [-rates 1e-5,1e-4,1e-3] [-trials 40] [-n instrs]
//	           [-warmup instrs] [-seed N] [-recover ckpt@64k+depth2]
//	           [-store trials.db] [-log-level info] [-log-format text]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"repro"
	"repro/internal/telemetry"
)

// fatal reports err and exits.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "faultstudy:", err)
	os.Exit(1)
}

func main() {
	var (
		bench    = flag.String("bench", "crafty", "benchmark to inject into")
		machines = flag.String("machines", "ss1,ss2+s,o3rs,shrec,diva", "comma-separated machines to sweep")
		n        = flag.Uint64("n", 50_000, "measured instructions per trial")
		warm     = flag.Uint64("warmup", 20_000, "warmup instructions per trial")
		rateList = flag.String("rates", "1e-5,1e-4,1e-3", "comma-separated fault rates")
		trials   = flag.Int("trials", 40, "fault-injection trials per (machine, rate) cell")
		seed     = flag.Uint64("seed", 0xF00D, "campaign master seed")
		recMode  = flag.String("recover", "", `checkpoint/rollback recovery mode, e.g. "ckpt@64k+depth2" (default: none)`)
		storeP   = flag.String("store", "", "persist per-trial results in this store directory (resumable)")
		logLevel = flag.String("log-level", "info", "structured log level: debug, info, warn, error")
		logFmt   = flag.String("log-format", "text", "structured log format: text, json")
	)
	flag.Parse()

	logger, err := telemetry.NewLogger(os.Stderr, *logLevel, *logFmt)
	if err != nil {
		fatal(err)
	}

	var rates []float64
	for _, s := range strings.Split(*rateList, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			fatal(fmt.Errorf("bad rate: %w", err))
		}
		rates = append(rates, r)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	c, err := repro.NewClient(
		repro.WithOptions(repro.Options{WarmupInstrs: *warm, MeasureInstrs: *n}),
		repro.WithStore(*storeP))
	if err != nil {
		fatal(err)
	}
	defer c.Close()

	rep := repro.NewReport("faultstudy",
		fmt.Sprintf("Transient-fault campaigns on %s (%d trials per cell, %d instructions per trial)",
			*bench, *trials, *n))
	tb := rep.AddTable("Coverage by machine and rate",
		"machine@rate", "faulted", "det", "sq", "mask", "sdc", "hang",
		"cov%", "lo%", "hi%", "lat(cy)", "ovh%")
	tb.Verb = "%.4g"
	var rtb *repro.ReportTable
	if *recMode != "" {
		rep.SetMeta("recovery", *recMode)
		rtb = rep.AddTable("Recovery and availability by machine and rate",
			"machine@rate", "rollbacks", "fatal", "lost(cy)", "rec-lat(cy)",
			"avail%", "aLo%", "aHi%", "MTTF(cy)")
		rtb.Verb = "%.6g"
	}

	for _, mname := range strings.Split(*machines, ",") {
		mname = strings.TrimSpace(mname)
		for _, rate := range rates {
			// Each campaign runs under ctx, so a signal cancels it; waiting
			// without a deadline lets it stop with its trials persisted.
			res, err := c.StartCampaign(ctx, repro.CampaignSpec{
				Machine:   mname,
				Benchmark: *bench,
				Trials:    *trials,
				FaultRate: rate,
				Seed:      *seed,
				Recovery:  *recMode,
			}).Wait(context.Background())
			if err != nil {
				fatal(err)
			}
			counts := res.Counts()
			cov := res.Coverage()
			agg := res.Aggregates()
			cell := fmt.Sprintf("%s@%.0e", res.Golden.Machine, rate)
			tb.AddRow(cell,
				float64(cov.N), float64(counts.Detected), float64(counts.Squashed),
				float64(counts.Masked), float64(counts.SDC), float64(counts.Hang),
				100*cov.Point, 100*cov.Lo, 100*cov.Hi, agg.DetectLatency, agg.Overhead)
			if rtb != nil {
				rs := res.RecoverySummary()
				av, ok := res.Availability(repro.DefaultRepairCycles)
				if rs == nil || !ok {
					fatal(fmt.Errorf("recovery campaign produced no summary for %s", cell))
				}
				rtb.AddRow(cell,
					float64(rs.Rollbacks), float64(rs.Overruns+rs.Unrecoverable),
					float64(rs.LostWork), rs.MeanRecoveryLatency,
					100*av.Point, 100*av.Lo, 100*av.Hi, av.MTTFCycles)
			}
		}
		tb.AddRule()
		if rtb != nil {
			rtb.AddRule()
		}
	}

	rep.AddNote("coverage = (detected + squashed + masked) / faulted trials, Wilson 95%% bounds;")
	rep.AddNote("SS1 detects nothing (faults retire as silent corruptions caught by the")
	rep.AddNote("golden-signature oracle); the redundant machines detect or squash every")
	rep.AddNote("fault. lat is mean injection-to-detection distance; ovh is IPC lost to")
	rep.AddNote("soft-exception recovery relative to each machine's fault-free golden run.")
	if *recMode != "" {
		rep.AddNote("recovery: %s; fatal = overruns + unrecoverable detections; availability", *recMode)
		rep.AddNote("assumes a %d-cycle repair after each fatal failure (renewal model,", repro.DefaultRepairCycles)
		rep.AddNote("Wilson-propagated bounds); MTTF(cy) 0 means no fatal failure was observed.")
	}
	fmt.Print(rep.String())
	if *storeP != "" {
		fmt.Fprintf(os.Stderr, "(%s; store %s)\n", c.Metrics().Summary(), *storeP)
	}
	// Stage timing summary at debug: where the sweep's wall-clock went.
	for _, st := range c.Metrics().Stages {
		logger.Debug("sim stage timing", "stage", st.Stage, "count", st.Count,
			"total_s", st.TotalSeconds, "p50_s", st.P50Seconds, "p99_s", st.P99Seconds)
	}
}
