// Command tracetool captures synthetic workload traces to files and
// inspects or replays them, decoupling workload generation from timing
// simulation (the usual trace-driven methodology of the paper's era).
// A trace file is a serialized trace.Tape of a registered workload:
// reading one regenerates the workload's stream and rejects a file that
// differs from it, so a file always replays as its workload does.
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

	"repro"
	"repro/internal/isa"
	"repro/internal/trace"
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
  tracetool capture -bench <name> [-n instrs] -o <file>
  tracetool info <file>
  tracetool run [-machine spec] [-n instrs] [-warmup instrs] <file>`)
	os.Exit(2)
}

// capture writes a workload's first -n instructions to a trace file.
func capture(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("capture", flag.ContinueOnError)
	bench := fs.String("bench", "swim", "benchmark to capture")
	n := fs.Int("n", 500_000, "correct-path instructions")
	out := fs.String("o", "", "output file (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("capture: -o is required")
	}
	if *n <= 0 {
		return fmt.Errorf("capture: -n %d must be positive", *n)
	}
	p, err := repro.WorkloadByName(*bench)
	if err != nil {
		return err
	}
	tape, err := trace.BuildTape(context.Background(), p, *n)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	written, err := tape.WriteTo(f)
	if err == nil {
		err = f.Close()
	}
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "captured %s: %d instructions, %d bytes -> %s\n",
		p.Name, tape.Len(), written, *out)
	return err
}

// load reads a trace file written by capture.
func load(path string) (*trace.Tape, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.ReadTape(f, repro.WorkloadByName)
}

// info prints a trace file's workload and instruction mix.
func info(args []string, w io.Writer) error {
	if len(args) != 1 {
		return fmt.Errorf("info: want one trace file, got %d arguments", len(args))
	}
	tape, err := load(args[0])
	if err != nil {
		return err
	}
	var counts [isa.NumOpClasses]int
	branches, taken := 0, 0
	c := tape.Cursor()
	for i := 0; i < tape.Len(); i++ {
		in := c.Next()
		counts[in.Class]++
		if in.IsBranch() {
			branches++
			if in.Taken {
				taken++
			}
		}
	}
	fmt.Fprintf(w, "%s: %d instructions of %s\n", args[0], tape.Len(), tape.Profile().Name)
	for c := 0; c < isa.NumOpClasses; c++ {
		if counts[c] == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-7s %8d  (%.1f%%)\n", isa.OpClass(c), counts[c],
			100*float64(counts[c])/float64(tape.Len()))
	}
	if branches > 0 {
		fmt.Fprintf(w, "  taken branch fraction: %.1f%%\n", 100*float64(taken)/float64(branches))
	}
	return nil
}

// run simulates a trace file's workload on one machine through
// repro.Client and prints its IPC. -machine takes any spec
// repro.MachineByName parses (ss2+s, meek@2, shrec+ctx4, ...).
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	machine := fs.String("machine", "shrec", "machine spec, e.g. ss1, ss2+s, shrec+ctx4, meek@2")
	n := fs.Uint64("n", 0, "instructions to simulate (default: the file's length)")
	warm := fs.Uint64("warmup", 100_000, "warmup instructions")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("run: want one trace file, got %d arguments", fs.NArg())
	}
	m, err := repro.MachineByName(*machine)
	if err != nil {
		return err
	}
	tape, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	count := *n
	if count == 0 {
		count = uint64(tape.Len())
	}
	c, err := repro.NewClient(repro.WithOptions(repro.Options{WarmupInstrs: *warm, MeasureInstrs: count}),
		repro.WithParallelism(1))
	if err != nil {
		return err
	}
	defer c.Close()
	res, err := c.SimulateProfile(context.Background(), m, tape.Profile())
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s on %s: IPC %.3f over %d instructions (%d cycles)\n",
		m.Name, fs.Arg(0), res.IPC(), res.Stats.Retired, res.Stats.Cycles)
	return err
}
