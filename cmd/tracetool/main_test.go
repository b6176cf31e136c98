package main

import (
	"io"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/config"
)

// A short capture replays under machine specs beyond the five base
// names: any spec config.ByName parses, modifiers and lane counts
// included. An unknown spec is an error, not an exit.
func TestRunReplaysAnyMachineSpec(t *testing.T) {
	path := filepath.Join(t.TempDir(), "swim.trace")
	if err := capture([]string{"-bench", "swim", "-n", "4000", "-wrong", "400", "-o", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"ss2+s", "meek@2"} {
		var out strings.Builder
		if err := run([]string{"-machine", spec, "-warmup", "1000", "-n", "3000", path}, &out); err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		m, err := config.ByName(spec)
		if err != nil {
			t.Fatal(err)
		}
		if want := m.Name + " on " + path + ": IPC "; !strings.HasPrefix(out.String(), want) {
			t.Fatalf("%s: output %q, want prefix %q", spec, out.String(), want)
		}
	}
	if err := run([]string{"-machine", "ss3", path}, io.Discard); err == nil {
		t.Fatal("unknown machine spec accepted")
	}
}
