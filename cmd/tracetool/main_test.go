package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
)

// capture4k writes swim's first 4000 instructions to a file in dir.
func capture4k(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "swim.trace")
	if err := capture([]string{"-bench", "swim", "-n", "4000", "-o", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
	return path
}

// A short capture replays under machine specs beyond the five base names:
// any spec repro.MachineByName parses, modifiers and lane counts included.
// run prints exactly what repro.Client.SimulateProfile returns at the same
// options, so a file replays as its workload does on every front door.
// An unknown spec is an error, not an exit.
func TestRunReplaysAnyMachineSpec(t *testing.T) {
	path := capture4k(t, t.TempDir())
	c, err := repro.NewClient(repro.WithOptions(repro.Options{WarmupInstrs: 1000, MeasureInstrs: 3000}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	swim, err := repro.WorkloadByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"ss2+s", "meek@2", "shrec+ckpt1k"} {
		var out strings.Builder
		if err := run([]string{"-machine", spec, "-warmup", "1000", "-n", "3000", path}, &out); err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		m, err := repro.MachineByName(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.SimulateProfile(context.Background(), m, swim)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("%s on %s: IPC %.3f over %d instructions (%d cycles)\n",
			m.Name, path, res.IPC(), res.Stats.Retired, res.Stats.Cycles)
		if out.String() != want {
			t.Fatalf("%s: output %q, want %q", spec, out.String(), want)
		}
	}
	if err := run([]string{"-machine", "ss3", path}, io.Discard); err == nil {
		t.Fatal("unknown machine spec accepted")
	}
}

// info names the file's workload and counts every instruction in it.
func TestInfoNamesProfile(t *testing.T) {
	path := capture4k(t, t.TempDir())
	var out strings.Builder
	if err := info([]string{path}, &out); err != nil {
		t.Fatal(err)
	}
	if want := path + ": 4000 instructions of swim\n"; !strings.HasPrefix(out.String(), want) {
		t.Fatalf("info printed %q, want prefix %q", out.String(), want)
	}
}

// A file that is not a prefix of its workload's stream is rejected, and an
// old-format file is rejected with a request to recapture it.
func TestRunRejectsAlteredFiles(t *testing.T) {
	dir := t.TempDir()
	good, err := os.ReadFile(capture4k(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	// The header is the magic, the name's length and bytes, and two counts;
	// 4000 ops of 4 bytes follow, then the words.
	ops := 8 + 1 + len("swim") + 8
	words := ops + 4*4000
	for _, c := range []struct {
		name string
		data []byte
		want string
	}{
		{"flipped op byte", flipped(good, ops+4*1234+2), "instruction 1234 differs"},
		{"flipped word byte", flipped(good, words+8*99+3), "word 99 differs"},
		{"old format", append([]byte("SHRECTR1"), make([]byte, 8+29)...), "recapture"},
	} {
		path := filepath.Join(dir, strings.ReplaceAll(c.name, " ", "-")+".trace")
		if err := os.WriteFile(path, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		err := run([]string{"-machine", "ss1", "-warmup", "100", "-n", "100", path}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: run returned %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

// flipped returns a copy of b with one bit of byte off inverted.
func flipped(b []byte, off int) []byte {
	c := append([]byte(nil), b...)
	c[off] ^= 0x04
	return c
}

// A capture must hold at least one instruction.
func TestCaptureRejectsEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.trace")
	if err := capture([]string{"-bench", "swim", "-n", "0", "-o", path}, io.Discard); err == nil {
		t.Fatal("empty capture accepted")
	}
}
