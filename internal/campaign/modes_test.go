package campaign

import (
	"context"
	"testing"
)

// TestMEEKCampaignClassification pins the MEEK protection claim at the
// campaign level: the checker-lane compare catches every materialized
// fault before it silently corrupts architectural state.
func TestMEEKCampaignClassification(t *testing.T) {
	res, err := Run(context.Background(), quickSuite(), quickSpec("meek@2", 16), nil)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Counts()
	if c.SDC != 0 {
		t.Fatalf("MEEK campaign produced %d SDC trials", c.SDC)
	}
	if c.Detected == 0 {
		t.Fatal("MEEK campaign detected nothing; rate/window too narrow for the test")
	}
	for i, tr := range res.Trials {
		if tr.FaultsUnchecked != 0 {
			t.Fatalf("trial %d: MEEK checks everything but recorded %d unchecked faults", i, tr.FaultsUnchecked)
		}
	}
}

// TestMultiContextSHRECCampaignClassification pins that absorbing checker
// stalls into extra hardware contexts does not open a detection hole: the
// cross-context compare still catches every fault.
func TestMultiContextSHRECCampaignClassification(t *testing.T) {
	res, err := Run(context.Background(), quickSuite(), quickSpec("shrec+ctx4", 16), nil)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Counts()
	if c.SDC != 0 {
		t.Fatalf("SHREC+ctx4 campaign produced %d SDC trials", c.SDC)
	}
	if c.Detected == 0 {
		t.Fatal("SHREC+ctx4 campaign detected nothing; rate/window too narrow for the test")
	}
}

// TestFLEXOnRegionCampaign runs FLEX with a region policy whose checking
// window covers the entire injection window (period 64k, on-region 16k:
// every fetch sequence number in a 2k-warmup/5k-measure campaign stays
// inside the on band). Checked everywhere, FLEX must match the SHREC
// protection claim, and conditional coverage must coincide with global
// coverage.
func TestFLEXOnRegionCampaign(t *testing.T) {
	res, err := Run(context.Background(), quickSuite(), quickSpec("flex@64k:on16k", 16), nil)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Counts()
	if c.SDC != 0 {
		t.Fatalf("on-region FLEX campaign produced %d SDC trials", c.SDC)
	}
	if c.Detected == 0 {
		t.Fatal("on-region FLEX campaign detected nothing")
	}
	for i, tr := range res.Trials {
		if tr.FaultsUnchecked != 0 {
			t.Fatalf("trial %d: fault classified off-region inside the on band (%d unchecked)", i, tr.FaultsUnchecked)
		}
	}
	if cov, ccov := res.Coverage(), res.ConditionalCoverage(); cov != ccov {
		t.Fatalf("with everything checked, conditional coverage %+v != coverage %+v", ccov, cov)
	}
}

// TestFLEXOffRegionCampaign positions the same campaign entirely outside
// the checking window (on-region 1k ends before the 2k-instruction warmup
// does). Faults now sail past the disabled checker: silent corruption
// reappears globally, every fault is recorded as unchecked, and the
// conditional-coverage denominator — coverage given that checking applied
// — excludes all of these trials rather than blaming the checker for a
// region the policy chose not to look at.
func TestFLEXOffRegionCampaign(t *testing.T) {
	res, err := Run(context.Background(), quickSuite(), quickSpec("flex@64k:on1k", 16), nil)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Counts()
	if c.Detected != 0 {
		t.Fatalf("checking is disabled across the window but %d trials detected", c.Detected)
	}
	if c.SDC == 0 {
		t.Fatal("off-region FLEX campaign produced no SDC; faults are not landing off-region")
	}
	faulted := 0
	for i, tr := range res.Trials {
		if tr.Faults == 0 {
			continue
		}
		faulted++
		if tr.FaultsUnchecked != tr.Faults {
			t.Fatalf("trial %d: %d of %d faults counted as checked in an off band", i, tr.Faults-tr.FaultsUnchecked, tr.Faults)
		}
	}
	if got := res.UncheckedOnlyTrials(); got != faulted {
		t.Fatalf("UncheckedOnlyTrials = %d, want every faulted trial (%d)", got, faulted)
	}
	ccov := res.ConditionalCoverage()
	if ccov.N != 0 {
		t.Fatalf("conditional denominator %d, want 0: every fault landed where checking was off", ccov.N)
	}
	// Global coverage still counts program-masked off-region faults as
	// covered, so it need not be zero — but with SDC present it cannot be
	// full, while the conditional estimate above excludes the trials
	// entirely instead of averaging them in.
	if cov := res.Coverage(); cov.N != faulted || cov.Point >= 1 {
		t.Fatalf("global coverage %+v over %d faulted trials should be degraded, not full", cov, faulted)
	}
}
