package explore

import (
	"context"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/sim"
)

// TestSpaceCkptEnumeration pins the checkpoint axes: enumeration order
// (depths vary faster than intervals, rates fastest of all), canonical
// spec strings with the k-suffix rendering, and the DecodeSpec
// round-trip that campaigns rely on for rate+ckpt combinations.
func TestSpaceCkptEnumeration(t *testing.T) {
	s := Space{
		Bases:         []string{"shrec"},
		CkptIntervals: []uint64{256, 1024},
		CkptDepths:    []int{1, 4},
		FaultRates:    []float64{0, 2e-4},
	}
	if got := s.Size(); got != 8 {
		t.Fatalf("size = %d, want 8", got)
	}
	pts, err := s.Points()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"SHREC+ckpt256+depth1",
		"SHREC+rate0.0002+ckpt256+depth1",
		"SHREC+ckpt256+depth4",
		"SHREC+rate0.0002+ckpt256+depth4",
		"SHREC+ckpt1k+depth1",
		"SHREC+rate0.0002+ckpt1k+depth1",
		"SHREC+ckpt1k+depth4",
		"SHREC+rate0.0002+ckpt1k+depth4",
	}
	for i, pt := range pts {
		if pt.Spec != want[i] {
			t.Fatalf("point %d spec %q, want %q", i, pt.Spec, want[i])
		}
		m, rate, err := DecodeSpec(pt.Spec)
		if err != nil {
			t.Fatalf("DecodeSpec(%q): %v", pt.Spec, err)
		}
		if rate != pt.Rate || m.FaultRate != 0 {
			t.Fatalf("%q: rate %g (machine %g), want %g and 0", pt.Spec, rate, m.FaultRate, pt.Rate)
		}
		if m.CkptInterval != pt.Machine.CkptInterval || m.CkptDepth != pt.Machine.CkptDepth {
			t.Fatalf("%q decoded to ckpt %d/%d, want %d/%d", pt.Spec,
				m.CkptInterval, m.CkptDepth, pt.Machine.CkptInterval, pt.Machine.CkptDepth)
		}
	}
	// A zero interval enumerates the recovery-free comparison point.
	free := Space{Bases: []string{"shrec"}, CkptIntervals: []uint64{0, 4096}}
	pts, err = free.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].Spec != "SHREC" || pts[1].Spec != "SHREC+ckpt4k" {
		t.Fatalf("zero-interval enumeration drifted: %+v", pts)
	}
}

// TestSpaceCkptValidation pins the static rejections for the checkpoint
// axes.
func TestSpaceCkptValidation(t *testing.T) {
	bad := []Space{
		// Interval below the capture floor.
		{Bases: []string{"shrec"}, CkptIntervals: []uint64{32}},
		// Depth without an interval axis is meaningless.
		{Bases: []string{"shrec"}, CkptDepths: []int{2}},
		// Depth crossed with a zero interval would duplicate the
		// recovery-free point once per depth.
		{Bases: []string{"shrec"}, CkptIntervals: []uint64{0, 1024}, CkptDepths: []int{2}},
		// Depth outside the ring bound.
		{Bases: []string{"shrec"}, CkptIntervals: []uint64{1024}, CkptDepths: []int{0}},
		{Bases: []string{"shrec"}, CkptIntervals: []uint64{1024}, CkptDepths: []int{config.MaxCkptDepth + 1}},
	}
	for i, s := range bad {
		if _, err := s.Points(); err == nil {
			t.Errorf("space %d accepted: %+v", i, s)
		}
	}
}

// TestCostCkptTerm pins that checkpoint hardware is charged: a
// checkpointed machine costs more than its base, and retaining more
// checkpoints costs more still.
func TestCostCkptTerm(t *testing.T) {
	base := Cost(config.SHREC())
	one := Cost(config.SHREC().WithCkptInterval(1024))
	deep := Cost(config.SHREC().WithCkptInterval(1024).WithCkptDepth(8))
	if one <= base {
		t.Fatalf("checkpointed cost %g not above base %g", one, base)
	}
	if deep <= one {
		t.Fatalf("depth-8 cost %g not above depth-1 %g", deep, one)
	}
}

// TestAvailabilityObjective is the frontier-with-availability acceptance
// test: a grid over a checkpoint-interval axis crossed with a fault rate
// yields availability estimates with confidence bounds on checkpointed
// points, leaves the recovery-free point without one, and reports the
// extra objective.
func TestAvailabilityObjective(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fault campaigns; full tier only")
	}
	spec := Spec{
		Space: Space{
			Bases:         []string{"shrec"},
			CkptIntervals: []uint64{0, 256, 1024},
			FaultRates:    []float64{2e-4},
		},
		Trials: 12,
		Seed:   7,
	}
	if !spec.hasAvailability() {
		t.Fatal("spec sweeps recovery under fault injection but hasAvailability is false")
	}
	res, err := Run(context.Background(), sim.NewSuite(quickOpts()), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Evals) != 3 {
		t.Fatalf("evaluated %d points, want 3", len(res.Evals))
	}
	byspec := map[string]Eval{}
	for _, ev := range res.Evals {
		byspec[ev.Spec] = ev
	}
	plain, ok := byspec["SHREC+rate0.0002"]
	if !ok {
		t.Fatalf("recovery-free point spec drifted: %+v", res.Evals)
	}
	if plain.Availed || plain.Avail != 0 {
		t.Fatalf("recovery-free point carries an availability estimate: %+v", plain)
	}
	for _, name := range []string{"SHREC+rate0.0002+ckpt256", "SHREC+rate0.0002+ckpt1k"} {
		ev, ok := byspec[name]
		if !ok {
			t.Fatalf("checkpointed point %q missing: %+v", name, res.Evals)
		}
		if !ev.Availed {
			t.Fatalf("checkpointed faulted point %q carries no availability", name)
		}
		if !(0 < ev.AvailLo && ev.AvailLo <= ev.Avail && ev.Avail <= ev.AvailHi && ev.AvailHi <= 1) {
			t.Fatalf("%q availability bounds disordered: %g [%g, %g]",
				name, ev.Avail, ev.AvailLo, ev.AvailHi)
		}
		if !ev.Covered {
			t.Fatalf("checkpointed faulted point %q lacks coverage", name)
		}
	}
	if len(res.Frontier) == 0 {
		t.Fatal("empty frontier")
	}
	// A checkpointed point must make the frontier: it is the only kind
	// with a non-zero availability objective, so it cannot be dominated.
	onFrontier := false
	for _, ev := range res.FrontierEvals() {
		if ev.Availed {
			onFrontier = true
		}
	}
	if !onFrontier {
		t.Fatalf("no checkpointed point on the frontier: %+v", res.FrontierEvals())
	}
	text := res.Report().String()
	for _, want := range []string{"avail%", "availability"} {
		if !strings.Contains(text, want) {
			t.Fatalf("report lacks %q:\n%s", want, text)
		}
	}
}
