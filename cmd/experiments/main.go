// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-run fig2,table2,...|all] [-format text|json|csv] [-o file]
//	            [-n instrs] [-warmup instrs] [-par N] [-quick]
//	            [-store results.db] [-docs]
//
// Each experiment produces a typed report rendered as fixed-width text
// (the default, matching the paper's rows/series; see docs/EXPERIMENTS.md
// for the generated catalog), a JSON array of report objects, or one tidy
// CSV stream. With -store, simulation results persist to a segmented
// store directory and later runs (of any experiment sharing configurations) reuse
// them instead of resimulating. Ctrl-C cancels in-flight simulations
// promptly.
//
// -docs runs no simulations: it emits the experiment catalog as Markdown
// (to stdout or -o), generated from the same registry that drives
// dispatch — `make docs` writes docs/EXPERIMENTS.md with it, and CI
// regenerates and diffs the file so the catalog cannot drift.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/report"
)

// fatal reports err and exits with code.
func fatal(code int, err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(code)
}

func main() {
	var (
		runList = flag.String("run", "all",
			fmt.Sprintf("comma-separated experiments to run (%s) or 'all'",
				strings.Join(repro.ExperimentNames(), ",")))
		format    = flag.String("format", "text", "output format: text, json, or csv")
		outPath   = flag.String("o", "", "write output to this file instead of stdout")
		n         = flag.Uint64("n", 0, "measured instructions per run (default 1,000,000)")
		warmup    = flag.Uint64("warmup", 0, "warmup instructions per run (default 500,000)")
		par       = flag.Int("par", 0, "max parallel simulations (default GOMAXPROCS)")
		quick     = flag.Bool("quick", false, "short runs (100k measured) for a fast smoke pass")
		storePath = flag.String("store", "", "persist simulation results in this store directory and reuse them across runs")
		docs      = flag.Bool("docs", false, "emit the experiment catalog as Markdown (no simulations) and exit")
	)
	flag.Parse()

	if *docs {
		md := catalogMarkdown()
		if *outPath == "" {
			fmt.Print(md)
		} else if err := writeFileAtomic(*outPath, []byte(md)); err != nil {
			fatal(1, err)
		}
		return
	}

	outFormat, err := report.ParseFormat(*format)
	if err != nil {
		fatal(2, err)
	}

	opt := repro.DefaultOptions()
	if *quick {
		opt = repro.QuickOptions()
	}
	if *n > 0 {
		opt.MeasureInstrs = *n
	}
	if *warmup > 0 {
		opt.WarmupInstrs = *warmup
	}

	names := repro.ExperimentNames()
	if *runList != "all" {
		names = strings.Split(*runList, ",")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	c, err := repro.NewClient(repro.WithOptions(opt), repro.WithParallelism(*par), repro.WithStore(*storePath))
	if err != nil {
		fatal(1, err)
	}
	defer c.Close()

	// With -o, render into memory and replace the file atomically at the
	// end: a failed or interrupted run must not truncate an existing
	// results file.
	var out io.Writer = os.Stdout
	var buf *bytes.Buffer
	if *outPath != "" {
		buf = &bytes.Buffer{}
		out = buf
	}

	var reports []*repro.Report
	for _, name := range names {
		name = strings.TrimSpace(name)
		start := time.Now()
		rep, err := c.Experiment(ctx, name)
		if err != nil {
			fatal(1, fmt.Errorf("%s: %w", name, err))
		}
		if outFormat == report.FormatText {
			// Stream each report as it completes, with the historical
			// framing; structured formats are emitted in one piece below.
			if _, err := fmt.Fprintf(out, "=== %s (%.1fs) ===\n%s\n", name, time.Since(start).Seconds(), rep); err != nil {
				fatal(1, err)
			}
			continue
		}
		reports = append(reports, rep)
	}
	switch outFormat {
	case report.FormatJSON:
		err = report.WriteJSONArray(out, reports...)
	case report.FormatCSV:
		err = report.WriteCSV(out, reports...)
	}
	if err != nil {
		fatal(1, err)
	}
	if buf != nil {
		if err := writeFileAtomic(*outPath, buf.Bytes()); err != nil {
			fatal(1, err)
		}
	}
	if *storePath != "" {
		fmt.Fprintf(os.Stderr, "(%s; store %s)\n", c.Metrics().Summary(), *storePath)
	}
}

// catalogMarkdown renders docs/EXPERIMENTS.md from the experiment
// registry: name, title, prose description, and the flag invocation for
// every runnable experiment. Generated output only — the registry in
// internal/experiments is the single source of truth, and the CI
// docs-drift job fails when the committed file disagrees with it.
func catalogMarkdown() string {
	var b strings.Builder
	b.WriteString("# Experiment catalog\n\n")
	b.WriteString("<!-- Generated by `make docs` (cmd/experiments -docs). Do not edit:\n")
	b.WriteString("     edit the registry in internal/experiments/experiments.go and\n")
	b.WriteString("     regenerate. CI fails when this file drifts from the registry. -->\n\n")
	b.WriteString("Every table and figure of the paper's evaluation (plus two\n")
	b.WriteString("extensions) is a named experiment: runnable from the command line,\n")
	b.WriteString("from Go via `repro.Client.Experiment`, and over HTTP via shrecd's\n")
	b.WriteString("`GET /experiments/{name}`. All three dispatch through the same\n")
	b.WriteString("registry this catalog is generated from.\n\n")
	b.WriteString("| Name | Title |\n| --- | --- |\n")
	for _, e := range repro.ExperimentCatalog() {
		fmt.Fprintf(&b, "| [`%s`](#%s) | %s |\n", e.Name, e.Name, e.Title)
	}
	b.WriteString("\n")
	for _, e := range repro.ExperimentCatalog() {
		fmt.Fprintf(&b, "## %s\n\n", e.Name)
		fmt.Fprintf(&b, "**%s**\n\n", e.Title)
		fmt.Fprintf(&b, "%s\n\n", e.Doc)
		fmt.Fprintf(&b, "```sh\ngo run ./cmd/experiments -run %s          # full scale\n", e.Name)
		fmt.Fprintf(&b, "go run ./cmd/experiments -run %s -quick   # smoke scale\n", e.Name)
		fmt.Fprintf(&b, "curl -s localhost:8080/experiments/%s     # via shrecd (JSON)\n```\n\n", e.Name)
	}
	b.WriteString("Common flags: `-format text|json|csv`, `-o file`, `-store results.db`\n")
	b.WriteString("(persist and reuse simulation runs), `-n`/`-warmup` (run lengths),\n")
	b.WriteString("`-par` (parallelism). See `go run ./cmd/experiments -h`.\n")
	return b.String()
}

// writeFileAtomic writes data to path via a temp file + rename, so a
// partial write (disk full, interrupt) never clobbers an existing file.
func writeFileAtomic(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(f.Name())
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return err
	}
	if err := os.Rename(f.Name(), path); err != nil {
		os.Remove(f.Name())
		return err
	}
	return nil
}
