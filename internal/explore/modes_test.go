package explore

import (
	"context"
	"testing"

	"repro/internal/config"
	"repro/internal/sim"
)

// TestSpaceModeAxes enumerates the detection-mode axes: MEEK checker
// lanes, SHREC hardware contexts (including the classic single-context
// entry), and FLEX region duty cycles. Every point's spec must
// round-trip, like any other axis.
func TestSpaceModeAxes(t *testing.T) {
	cases := []struct {
		space Space
		specs []string
	}{
		{
			Space{Bases: []string{"meek"}, CheckerLanes: []int{1, 2, 4}},
			[]string{"MEEK@1", "MEEK@2", "MEEK@4"},
		},
		{
			Space{Bases: []string{"shrec"}, Contexts: []int{1, 2, 4}},
			[]string{"SHREC", "SHREC+ctx2", "SHREC+ctx4"},
		},
		{
			Space{Bases: []string{"flex@64k:on16k"}, RegionDuties: []float64{0.125, 0.5}},
			[]string{"FLEX@64k:on8k", "FLEX@64k:on32k"},
		},
	}
	for _, tc := range cases {
		pts, err := tc.space.Points()
		if err != nil {
			t.Errorf("space %+v: %v", tc.space, err)
			continue
		}
		for i, pt := range pts {
			if pt.Spec != tc.specs[i] {
				t.Errorf("space %+v point %d = %q, want %q", tc.space, i, pt.Spec, tc.specs[i])
			}
			m, rate, err := DecodeSpec(pt.Spec)
			if err != nil {
				t.Errorf("DecodeSpec(%q): %v", pt.Spec, err)
				continue
			}
			a, b := m, pt.Machine
			a.Name, b.Name = "", ""
			if a != b || rate != pt.Rate {
				t.Errorf("%q decoded to a different machine", pt.Spec)
			}
		}
	}
}

// TestSpaceModeAxisCompat pins that a mode-specific axis over an
// incompatible base rejects the whole space with the conflict named, and
// that out-of-range entries are static errors.
func TestSpaceModeAxisCompat(t *testing.T) {
	bad := []Space{
		{Bases: []string{"ss1"}, CheckerLanes: []int{2}},           // lanes need meek
		{Bases: []string{"meek", "shrec"}, CheckerLanes: []int{2}}, // ... on every base
		{Bases: []string{"meek"}, Contexts: []int{2}},              // contexts need shrec/diva
		{Bases: []string{"ss2"}, Contexts: []int{2}},               // ... not duplication
		{Bases: []string{"shrec"}, RegionDuties: []float64{0.5}},   // duties need flex
		{Bases: []string{"meek"}, CheckerLanes: []int{0}},          // lane count floor
		{Bases: []string{"meek"}, CheckerLanes: []int{99}},         // lane count ceiling
		{Bases: []string{"shrec"}, Contexts: []int{0}},             // context floor
		{Bases: []string{"shrec"}, Contexts: []int{99}},            // context ceiling
		{Bases: []string{"flex"}, RegionDuties: []float64{0}},      // duty in (0,1)
		{Bases: []string{"flex"}, RegionDuties: []float64{1}},      // duty in (0,1)
	}
	for i, s := range bad {
		if _, err := s.Points(); err == nil {
			t.Errorf("space %d accepted: %+v", i, s)
		}
	}
	// DIVA is a SHREC-mode base: the contexts axis applies.
	pts, err := (Space{Bases: []string{"diva"}, Contexts: []int{2}}).Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || pts[0].Spec != "DIVA+ctx2" {
		t.Fatalf("diva+ctx mis-enumerated: %+v", pts)
	}
}

// TestDecodeSpecOrders pins DecodeSpec against hand-written specs in
// non-canonical modifier orders. The decoder strips the rate through the
// grammar, so the written order must never matter; the old string-excision
// implementation depended on where "+rate" rendered relative to the other
// tokens.
func TestDecodeSpecOrders(t *testing.T) {
	cases := []struct {
		spec string
		name string // canonical structural name
		rate float64
	}{
		{"shrec", "SHREC", 0},
		{"shrec+rate0.0001", "SHREC", 1e-4},
		{"shrec+rate1e-4+ckpt64k", "SHREC+ckpt64k", 1e-4},
		{"shrec+ckpt64k+rate1e-4", "SHREC+ckpt64k", 1e-4}, // rate written last
		{"shrec+rate2e-4+ctx4", "SHREC+ctx4", 2e-4},
		{"shrec+ctx4+rate2e-4", "SHREC+ctx4", 2e-4},
		{"SHREC+CKPT64K+DEPTH4+RATE0.001", "SHREC+ckpt64k+depth4", 1e-3},
		{"meek@4+rate1e-4", "MEEK@4", 1e-4},
		{"flex@1m:on4k+rate5e-4", "FLEX@1m:on4k", 5e-4},
		{"diva+ctx2+mshr32+rate1e-3", "DIVA+ctx2+mshr32", 1e-3},
	}
	for _, tc := range cases {
		m, rate, err := DecodeSpec(tc.spec)
		if err != nil {
			t.Errorf("DecodeSpec(%q): %v", tc.spec, err)
			continue
		}
		if m.Name != tc.name || rate != tc.rate || m.FaultRate != 0 {
			t.Errorf("DecodeSpec(%q) = (%q, %g, faultrate %g), want (%q, %g, 0)",
				tc.spec, m.Name, rate, m.FaultRate, tc.name, tc.rate)
		}
		// The structural machine re-encodes canonically with the rate.
		if tc.rate > 0 {
			back := m.WithFaultRate(tc.rate).Spec()
			if m2, r2, err := DecodeSpec(back); err != nil || m2.Name != tc.name || r2 != tc.rate {
				t.Errorf("re-encode of %q = %q did not round-trip (err %v)", tc.spec, back, err)
			}
		}
	}
}

// TestCostModeTerms pins the detection-hardware cost terms: each MEEK
// lane and each SHREC context has a price, FLEX pays a flat region-logic
// charge over its SHREC substrate — and two checker lanes undercut
// SHREC's shared checker window, which is what puts MEEK on the
// cost-coverage frontier.
func TestCostModeTerms(t *testing.T) {
	shrec := Cost(config.SHREC())
	if meek2 := Cost(config.MEEK(2)); meek2 >= shrec {
		t.Errorf("MEEK@2 cost %g not below SHREC %g", meek2, shrec)
	}
	if Cost(config.MEEK(4)) <= Cost(config.MEEK(2)) {
		t.Error("lane count does not price in")
	}
	if Cost(config.SHREC().WithContexts(4)) <= shrec {
		t.Error("contexts do not price in")
	}
	if Cost(config.SHREC().WithContexts(4)) <= Cost(config.SHREC().WithContexts(2)) {
		t.Error("cost not monotone in contexts")
	}
	if Cost(config.FLEX()) <= shrec {
		t.Error("FLEX region logic does not price in")
	}
	if Cost(config.DIVA().WithContexts(2)) <= Cost(config.DIVA()) {
		t.Error("contexts do not price in on DIVA")
	}
}

// TestMEEKDominatesSHRECOnCostCoverage is the acceptance test for the new
// detection modes as exploration citizens: in a faulted grid over classic
// SHREC and two-lane MEEK, the MEEK point must dominate SHREC on the
// cost x coverage plane — full detection at strictly lower hardware cost —
// and must appear on the exploration's Pareto frontier.
func TestMEEKDominatesSHRECOnCostCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fault campaigns; full tier only")
	}
	sims := sim.NewSuite(quickOpts())
	res, err := Run(context.Background(), sims, Spec{
		Space: Space{
			Bases:      []string{"shrec", "meek@2"},
			FaultRates: []float64{3e-4},
		},
		Trials: 12,
		Seed:   11,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	byspec := map[string]Eval{}
	for _, ev := range res.Evals {
		byspec[ev.Spec] = ev
	}
	shrec, ok1 := byspec["SHREC+rate0.0003"]
	meek, ok2 := byspec["MEEK@2+rate0.0003"]
	if !ok1 || !ok2 {
		t.Fatalf("point specs drifted: %+v", res.Evals)
	}
	if !shrec.Covered || !meek.Covered {
		t.Fatalf("faulted points lack coverage: %+v / %+v", shrec, meek)
	}
	if meek.SDC != 0 {
		t.Fatalf("MEEK leaked %d silent corruptions", meek.SDC)
	}
	if meek.Coverage < shrec.Coverage {
		t.Fatalf("MEEK coverage %.3f below SHREC %.3f", meek.Coverage, shrec.Coverage)
	}
	if meek.Cost >= shrec.Cost {
		t.Fatalf("MEEK cost %.2f not below SHREC %.2f", meek.Cost, shrec.Cost)
	}
	onFrontier := false
	for _, ev := range res.FrontierEvals() {
		if ev.Spec == meek.Spec {
			onFrontier = true
		}
	}
	if !onFrontier {
		t.Fatalf("dominating MEEK point missing from the frontier: %+v", res.FrontierEvals())
	}
}
