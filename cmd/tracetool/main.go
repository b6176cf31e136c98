// Command tracetool captures synthetic workload traces to files and
// inspects or replays them, decoupling workload generation from timing
// simulation (the usual trace-driven methodology of the paper's era).
//
//	tracetool capture -bench swim -n 500000 -o swim.trace
//	tracetool info   swim.trace
//	tracetool run    -machine shrec swim.trace
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "capture":
		err = capture(os.Args[2:], os.Stdout)
	case "info":
		err = info(os.Args[2:], os.Stdout)
	case "run":
		err = run(os.Args[2:], os.Stdout)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracetool:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  tracetool capture -bench <name> [-n instrs] [-wrong instrs] -o <file>
  tracetool info <file>
  tracetool run [-machine spec] [-n instrs] [-warmup instrs] <file>`)
	os.Exit(2)
}

// capture records a synthetic workload's trace to a file.
func capture(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("capture", flag.ContinueOnError)
	bench := fs.String("bench", "swim", "benchmark to capture")
	n := fs.Int("n", 500_000, "correct-path instructions")
	wrong := fs.Int("wrong", 50_000, "wrong-path instructions")
	out := fs.String("o", "", "output file (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("capture: -o is required")
	}
	p, err := workload.ByName(*bench)
	if err != nil {
		return err
	}
	rec, err := trace.Capture(trace.New(p), *n, *wrong)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	written, err := rec.WriteTo(f)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "captured %s: %d + %d instructions, %d bytes -> %s\n",
		*bench, rec.Len(), rec.WrongLen(), written, *out)
	return err
}

// load reads a recording written by capture.
func load(path string) (*trace.Recording, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.ReadRecording(f)
}

// info prints a recording's instruction mix.
func info(args []string, w io.Writer) error {
	if len(args) != 1 {
		return fmt.Errorf("info: want one trace file, got %d arguments", len(args))
	}
	rec, err := load(args[0])
	if err != nil {
		return err
	}
	var counts [isa.NumOpClasses]int
	branches, taken := 0, 0
	for i := 0; i < rec.Len(); i++ {
		in := rec.Next()
		counts[in.Class]++
		if in.IsBranch() {
			branches++
			if in.Taken {
				taken++
			}
		}
	}
	fmt.Fprintf(w, "%s: %d correct-path + %d wrong-path instructions\n",
		args[0], rec.Len(), rec.WrongLen())
	for c := 0; c < isa.NumOpClasses; c++ {
		if counts[c] == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-7s %8d  (%.1f%%)\n", isa.OpClass(c), counts[c],
			100*float64(counts[c])/float64(rec.Len()))
	}
	if branches > 0 {
		fmt.Fprintf(w, "  taken branch fraction: %.1f%%\n", 100*float64(taken)/float64(branches))
	}
	return nil
}

// run replays a recording on one machine and prints its IPC. -machine
// takes any spec config.ByName parses (ss2+s, meek@2, shrec+ctx4, ...).
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	machine := fs.String("machine", "shrec", "machine spec, e.g. ss1, ss2+s, shrec+ctx4, meek@2")
	n := fs.Uint64("n", 0, "instructions to simulate (default: one full lap)")
	warm := fs.Uint64("warmup", 100_000, "warmup instructions")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("run: want one trace file, got %d arguments", fs.NArg())
	}
	m, err := config.ByName(*machine)
	if err != nil {
		return err
	}
	rec, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	count := *n
	if count == 0 {
		count = uint64(rec.Len())
	}
	ctx := context.Background()
	e := core.New(m, rec)
	if *warm > 0 {
		if err := e.WarmupContext(ctx, *warm); err != nil {
			return err
		}
	}
	st, err := e.RunBudget(ctx, count, 0)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s on %s: IPC %.3f over %d instructions (%d cycles)\n",
		m.Name, fs.Arg(0), st.IPC(), st.Retired, st.Cycles)
	return err
}
