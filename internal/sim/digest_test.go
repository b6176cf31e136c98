package sim

import (
	"testing"

	"repro/internal/config"
	"repro/internal/workload"
)

// TestDigestStable pins the persistent-store key of three fixed requests.
// Every stored sim.Result is served under its digest, so a change that moves
// one of these values silently orphans every persisted record; a change to
// what a result means must bump the digest's schema label instead.
func TestDigestStable(t *testing.T) {
	swim, err := workload.ByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	crafty, err := workload.ByName("crafty")
	if err != nil {
		t.Fatal(err)
	}
	recov, err := config.ByName("shrec+ckpt4k+depth2")
	if err != nil {
		t.Fatal(err)
	}
	recov.FaultRate, recov.FaultSeed = 1e-4, 42
	budget := tinyOpts()
	budget.MaxCycles = 50_000

	for _, tc := range []struct {
		name string
		got  string
		want string
	}{
		{"ss1/swim/quick", digest(config.SS1(), swim, QuickOptions()),
			"5ddb98c5b570edcfdb40ead0a8eda0970f2a3e43c8d8b531c4fc32af8ffae544"},
		{"shrec+ckpt/crafty/seed42", digest(recov, crafty, tinyOpts()),
			"69faf3c477dbf69cb18f32857f2de18d84b459bd556871fe355057c56922102b"},
		{"shrec/swim/maxcycles", digest(config.SHREC(), swim, budget),
			"a600e38006d78bf2f464f56a4222b69d6101e889d65bde38bc40b22f23f17aaa"},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: digest = %s, want %s", tc.name, tc.got, tc.want)
		}
	}
}
