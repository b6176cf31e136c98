// Command shrecd serves the SHREC simulation engine over HTTP.
//
// Usage:
//
//	shrecd [-addr :8080] [-n instrs] [-warmup instrs] [-workers N]
//	       [-par N] [-store results.db] [-journal jobs.db]
//	       [-watchdog 10m] [-shed 5s] [-log-level info] [-log-format text]
//	       [-pprof]
//
// Endpoints:
//
//	POST /simulate            {"machine":"shrec","benchmark":"swim",
//	                           "warmup_instrs":0,"measure_instrs":0}
//	GET  /experiments         the experiment catalog (names and titles)
//	GET  /experiments/{name}  regenerate one paper table/figure as a typed
//	                          report (?format=text|json|csv or Accept)
//	POST /campaigns           start an async fault-injection campaign
//	                          {"machine":"shrec","benchmark":"swim","trials":1000}
//	GET  /campaigns           list campaign jobs with progress
//	GET  /campaigns/{id}      one job: progress, coverage, report when done
//	                          (?format=text|csv renders just the report)
//	GET  /results             every cached result plus cache metrics
//	GET  /healthz             liveness, store integrity, journal depth,
//	                          cache counters
//	GET  /metrics             Prometheus text, rendered from the telemetry
//	                          registry: cache/store/journal counters, HTTP
//	                          route latency histograms, job duration and
//	                          phase histograms, sim stage histograms
//	GET  /debug/pprof/...     net/http/pprof profiles (only with -pprof)
//
// Duplicate in-flight requests for the same (machine, benchmark,
// options) key share one simulation; results are cached in memory and,
// with -store, persisted across restarts in a checksummed segmented
// store.
// With -journal, accepted campaigns and explorations are journaled
// before they run and re-adopted at the next startup, so a crashed or
// killed server resumes its jobs with only in-flight trials re-executed.
// SIGINT/SIGTERM drain in-flight requests before exiting; kill -9 is
// recovered by the journal.
//
// Diagnostics are structured logs on stderr (-log-level debug|info|warn|
// error, -log-format text|json); the "listening on" line stays on stdout
// so scripts that parse it keep working.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/shrecd"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/telemetry"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address (:0 picks a free port; the bound address is printed)")
		n         = flag.Uint64("n", 0, "default measured instructions per run (default 1,000,000)")
		warmup    = flag.Uint64("warmup", 0, "default warmup instructions per run (default 500,000)")
		par       = flag.Int("par", 0, "max parallel simulations in the engine (default GOMAXPROCS)")
		workers   = flag.Int("workers", 16, "max concurrently served simulation requests")
		maxInstrs = flag.Int64("maxinstrs", 0, "cap on per-request warmup+measure instructions (0 = default 10M, negative = uncapped)")
		maxTrials = flag.Int("maxtrials", 0, "cap on per-campaign trial count (0 = default 10000)")
		maxCamps  = flag.Int("maxcampaigns", 0, "bound on tracked campaign jobs (0 = default 64)")
		storePath = flag.String("store", "", "persist results in this segmented store directory across restarts")
		journalP  = flag.String("journal", "", "write-ahead job journal directory: accepted campaigns/explorations survive crashes and are re-adopted at startup")
		watchdog  = flag.Duration("watchdog", 0, "fail running jobs that report no progress for this long (0 = disabled)")
		shed      = flag.Duration("shed", 0, "shed POSTs queued longer than this with 429+Retry-After (0 = default 5s, negative = queue indefinitely)")
		drain     = flag.Duration("drain", 30*time.Second, "graceful shutdown drain timeout")
		logLevel  = flag.String("log-level", "info", "structured log level: debug, info, warn, error")
		logFormat = flag.String("log-format", "text", "structured log format: text, json")
		pprofOn   = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the server mux")
	)
	flag.Parse()

	logger, err := telemetry.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "shrecd:", err)
		os.Exit(1)
	}

	opt := sim.DefaultOptions()
	if *n > 0 {
		opt.MeasureInstrs = *n
	}
	if *warmup > 0 {
		opt.WarmupInstrs = *warmup
	}
	opt.Parallelism = *par

	sims := sim.NewSuite(opt)
	var st *store.Store
	if *storePath != "" {
		var err error
		st, err = store.OpenWith(*storePath, store.Options{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "shrecd:", err)
			os.Exit(1)
		}
		defer st.Close()
		sims.WithStore(st)
		logger.Info("result store opened", "path", *storePath, "results", st.Len())
	}
	var journal *store.Store
	if *journalP != "" {
		var err error
		// SyncAlways: a journal entry that can be lost to a power cut is
		// not a journal.
		journal, err = store.OpenWith(*journalP, store.Options{Sync: store.SyncAlways})
		if err != nil {
			fmt.Fprintln(os.Stderr, "shrecd:", err)
			os.Exit(1)
		}
		defer journal.Close()
	}

	srv := shrecd.NewWith(shrecd.Config{
		DefaultOptions: opt,
		MaxConcurrent:  *workers,
		MaxInstrs:      *maxInstrs,
		MaxTrials:      *maxTrials,
		MaxCampaigns:   *maxCamps,
		Store:          st,
		Journal:        journal,
		Watchdog:       *watchdog,
		ShedAfter:      *shed,
		Logger:         logger,
		EnablePprof:    *pprofOn,
	}, sims)
	defer srv.Close() // stop background campaigns; finished trials are persisted

	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Listen before serving so the actually-bound address (":0" resolves
	// to a real port) is printed for scripts and the crash-recovery tests.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "shrecd:", err)
		os.Exit(1)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	// Scripts (and the crash-recovery tests) parse this exact stdout line
	// for the bound address; structured diagnostics go to stderr instead.
	fmt.Printf("shrecd: listening on %s (workers=%d, warmup=%d, measure=%d)\n",
		ln.Addr(), *workers, opt.WarmupInstrs, opt.MeasureInstrs)
	if *pprofOn {
		logger.Info("pprof enabled", "url", "/debug/pprof/")
	}

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "shrecd:", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		stop() // restore default signal handling: a second ^C force-quits
		logger.Info("draining")
		shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			fmt.Fprintln(os.Stderr, "shrecd: shutdown:", err)
			os.Exit(1)
		}
	}
	logger.Info("bye")
}
