package experiments

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sim"
)

// TestGoldenTextAtQuickOptions pins the Text rendering of the report API
// to the output of the pre-report string API: the testdata files were
// captured from the seed implementation (stats.NewTable string
// concatenation) under sim.QuickOptions, and the typed reports must
// reproduce them byte-for-byte. fig2 covers the per-benchmark layout
// with aggregate rows, "[high]" labels, and penalty notes; table3 covers
// the class-grouped factorial layout with rules between groups.
//
// The two experiments share one suite (table3's plain-SS2 column reuses
// fig2's runs). Roughly 425 QuickOptions simulations — skipped in
// -short mode, exercised by the full `go test ./...` tier.
func TestGoldenTextAtQuickOptions(t *testing.T) {
	if testing.Short() {
		t.Skip("QuickOptions golden render is minutes of simulation; full tier only")
	}
	s := NewSuite(sim.NewSuite(sim.QuickOptions()))
	for _, name := range []string{"fig2", "table3"} {
		rep, err := s.Run(context.Background(), name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", name+".quick.golden"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := rep.String(); got != string(want) {
			t.Errorf("%s text rendering diverged from the seed output\ngot:\n%s\nwant:\n%s",
				name, got, want)
		}
	}
}
