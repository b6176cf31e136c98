package explore

import (
	"fmt"

	"repro/internal/config"
)

// Space is a typed, enumerable parameter space over config.Machine: the
// cross product of a set of base machines with optional modifier axes.
// An empty axis means "keep the base machine's value", so the zero axes
// contribute nothing to the product. The enumeration order is fixed —
// bases vary slowest, then CheckerLanes, Contexts, RegionDuties, XScales,
// Staggers, FUScales, MSHRs, MemPorts, CkptIntervals, CkptDepths, and
// FaultRates fastest — so point index i names the same configuration on
// every run, which is what lets an interrupted exploration resume from
// the store. (Axes left empty consume no digit, so adding an axis family
// to the type never renumbers existing spaces.)
type Space struct {
	// Bases are machine specification strings (config.ByName): named
	// machines ("ss1", "shrec", "ss2+sc") or full specs with modifiers.
	Bases []string `json:"bases"`
	// CheckerLanes sweeps the MEEK checker-lane count
	// (Machine.WithCheckerLanes). The axis requires every base to be a
	// MEEK machine — lanes mean nothing elsewhere, and a silent skip
	// would enumerate duplicate points.
	CheckerLanes []int `json:"checker_lanes,omitempty"`
	// Contexts sweeps the SHREC hardware checker contexts
	// (Machine.WithContexts); it requires SHREC-mode bases (shrec or
	// diva). An entry of 1 keeps the point's classic single-context
	// checker, so one axis can compare stall-absorbing contexts against
	// the baseline scan.
	Contexts []int `json:"contexts,omitempty"`
	// RegionDuties sweeps the FLEX checked-region duty cycle in (0,1)
	// (Machine.WithRegionDuty, holding the base's period); it requires
	// FLEX bases.
	RegionDuties []float64 `json:"region_duties,omitempty"`
	// XScales scales issue width, the FU pool, and memory ports together
	// (Machine.WithXScale; the paper's X factor as a continuum).
	XScales []float64 `json:"xscales,omitempty"`
	// Staggers sweeps the maximum dispatch stagger (Machine.WithStagger).
	Staggers []int `json:"staggers,omitempty"`
	// FUScales scales the functional-unit pool alone
	// (Machine.WithFUScale), separating FU pressure from issue bandwidth.
	FUScales []float64 `json:"fu_scales,omitempty"`
	// MSHRs sweeps the data-side MSHR file size (Machine.WithMSHRs).
	MSHRs []int `json:"mshrs,omitempty"`
	// MemPorts sweeps the memory port count (Machine.WithMemPorts).
	MemPorts []int `json:"mem_ports,omitempty"`
	// CkptIntervals sweeps the recovery checkpoint interval in retired
	// instructions (Machine.WithCkptInterval). A zero entry keeps the
	// point recovery-free, so one axis can compare "no recovery" against
	// policies; non-zero entries must clear config.MinCkptInterval.
	// Crossed with FaultRates, checkpointed points gain an availability
	// objective from their campaigns.
	CkptIntervals []uint64 `json:"ckpt_intervals,omitempty"`
	// CkptDepths sweeps the retained-checkpoint ring depth
	// (Machine.WithCkptDepth). It requires a CkptIntervals axis with only
	// non-zero entries — depth without an interval is meaningless, and a
	// zero-interval entry would enumerate duplicate recovery-free points.
	CkptDepths []int `json:"ckpt_depths,omitempty"`
	// FaultRates sweeps the per-instruction fault-injection rate. A
	// non-zero rate gives the point a campaign-derived coverage
	// objective; zero keeps the point performance-only.
	FaultRates []float64 `json:"fault_rates,omitempty"`
}

// Point is one enumerated machine configuration of a Space.
type Point struct {
	// Index is the point's position in the space's enumeration order.
	Index int
	// Machine is the structural configuration (fault-free; a point's
	// fault rate lives in Rate so golden runs and campaigns can share
	// the same structural machine).
	Machine config.Machine
	// Rate is the point's fault-injection rate (0 = no injection).
	Rate float64
	// Spec is the point's canonical specification string: the machine's
	// spec, with a "+rate" modifier when Rate is non-zero. It is
	// accepted by config.ByName / DecodeSpec, keys the point's persisted
	// evaluation, and labels its report rows.
	Spec string
}

// axisLen treats an empty axis as the single "keep base" element.
func axisLen(n int) int {
	if n == 0 {
		return 1
	}
	return n
}

// Size returns the number of points in the space.
func (s Space) Size() int {
	n := len(s.Bases)
	for _, l := range []int{len(s.CheckerLanes), len(s.Contexts), len(s.RegionDuties),
		len(s.XScales), len(s.Staggers), len(s.FUScales),
		len(s.MSHRs), len(s.MemPorts), len(s.CkptIntervals), len(s.CkptDepths),
		len(s.FaultRates)} {
		n *= axisLen(l)
	}
	return n
}

// canonical returns s with every empty axis nil. An empty axis and an
// absent one describe the same space, and JSON omits both, so only nil
// survives a round trip.
func (s Space) canonical() Space {
	s.CheckerLanes = nilIfEmpty(s.CheckerLanes)
	s.Contexts = nilIfEmpty(s.Contexts)
	s.RegionDuties = nilIfEmpty(s.RegionDuties)
	s.XScales = nilIfEmpty(s.XScales)
	s.Staggers = nilIfEmpty(s.Staggers)
	s.FUScales = nilIfEmpty(s.FUScales)
	s.MSHRs = nilIfEmpty(s.MSHRs)
	s.MemPorts = nilIfEmpty(s.MemPorts)
	s.CkptIntervals = nilIfEmpty(s.CkptIntervals)
	s.CkptDepths = nilIfEmpty(s.CkptDepths)
	s.FaultRates = nilIfEmpty(s.FaultRates)
	return s
}

func nilIfEmpty[T any](axis []T) []T {
	if len(axis) == 0 {
		return nil
	}
	return axis
}

// validate checks the axes without building any point.
func (s Space) validate() error {
	if len(s.Bases) == 0 {
		return fmt.Errorf("explore: space has no base machines")
	}
	for _, b := range s.Bases {
		m, err := config.ByName(b)
		if err != nil {
			return fmt.Errorf("explore: base %q: %w", b, err)
		}
		// The mode-specific axes bind to every base; an incompatible base
		// would enumerate duplicate (or impossible) points, so the whole
		// space is rejected with the conflict named.
		if len(s.CheckerLanes) > 0 && m.Mode != config.ModeMEEK {
			return fmt.Errorf("explore: checker_lanes axis requires MEEK bases; base %q is %s", b, m.Mode)
		}
		if len(s.Contexts) > 0 && m.Mode != config.ModeSHREC {
			return fmt.Errorf("explore: contexts axis requires SHREC-mode bases (shrec or diva); base %q is %s", b, m.Mode)
		}
		if len(s.RegionDuties) > 0 && m.Mode != config.ModeFLEX {
			return fmt.Errorf("explore: region_duties axis requires FLEX bases; base %q is %s", b, m.Mode)
		}
	}
	for _, n := range s.CheckerLanes {
		if n < 1 || n > config.MaxCheckerLanes {
			return fmt.Errorf("explore: checker lane count %d out of [1,%d]", n, config.MaxCheckerLanes)
		}
	}
	for _, n := range s.Contexts {
		if n < 1 || n > config.MaxContexts {
			return fmt.Errorf("explore: context count %d out of [1,%d]", n, config.MaxContexts)
		}
	}
	for _, d := range s.RegionDuties {
		if d <= 0 || d >= 1 {
			return fmt.Errorf("explore: region duty %g outside (0,1)", d)
		}
	}
	for _, x := range s.XScales {
		if x <= 0 {
			return fmt.Errorf("explore: non-positive xscale %g", x)
		}
	}
	for _, n := range s.Staggers {
		if n < 0 {
			return fmt.Errorf("explore: negative stagger %d", n)
		}
	}
	for _, f := range s.FUScales {
		if f <= 0 {
			return fmt.Errorf("explore: non-positive fu scale %g", f)
		}
	}
	for _, n := range s.MSHRs {
		if n < 1 {
			return fmt.Errorf("explore: non-positive mshr count %d", n)
		}
	}
	for _, n := range s.MemPorts {
		if n < 1 {
			return fmt.Errorf("explore: non-positive port count %d", n)
		}
	}
	for _, n := range s.CkptIntervals {
		if n > 0 && n < config.MinCkptInterval {
			return fmt.Errorf("explore: checkpoint interval %d below minimum %d", n, config.MinCkptInterval)
		}
	}
	if len(s.CkptDepths) > 0 {
		if len(s.CkptIntervals) == 0 {
			return fmt.Errorf("explore: ckpt_depths axis requires a ckpt_intervals axis")
		}
		for _, n := range s.CkptIntervals {
			if n == 0 {
				return fmt.Errorf("explore: ckpt_depths axis forbids a zero checkpoint interval (it would enumerate duplicate recovery-free points)")
			}
		}
		for _, d := range s.CkptDepths {
			if d < 1 || d > config.MaxCkptDepth {
				return fmt.Errorf("explore: checkpoint depth %d out of [1,%d]", d, config.MaxCkptDepth)
			}
		}
	}
	for _, r := range s.FaultRates {
		if r < 0 || r > 1 {
			return fmt.Errorf("explore: fault rate %g out of [0,1]", r)
		}
	}
	return nil
}

// Point builds the i-th point of the enumeration. The index decodes as a
// mixed-radix number over the axes, bases slowest.
func (s Space) Point(i int) (Point, error) {
	if i < 0 || i >= s.Size() {
		return Point{}, fmt.Errorf("explore: point %d outside space of %d", i, s.Size())
	}
	// Peel digits fastest-axis-first.
	rem := i
	digit := func(n int) int {
		if n == 0 {
			return 0
		}
		d := rem % n
		rem /= n
		return d
	}
	ri := digit(len(s.FaultRates))
	di := digit(len(s.CkptDepths))
	ci := digit(len(s.CkptIntervals))
	pi := digit(len(s.MemPorts))
	mi := digit(len(s.MSHRs))
	fi := digit(len(s.FUScales))
	si := digit(len(s.Staggers))
	xi := digit(len(s.XScales))
	gi := digit(len(s.RegionDuties))
	ki := digit(len(s.Contexts))
	li := digit(len(s.CheckerLanes))
	bi := rem

	m, err := config.ByName(s.Bases[bi])
	if err != nil {
		return Point{}, fmt.Errorf("explore: base %q: %w", s.Bases[bi], err)
	}
	if len(s.CheckerLanes) > 0 {
		m = m.WithCheckerLanes(s.CheckerLanes[li])
	}
	if len(s.Contexts) > 0 && s.Contexts[ki] > 1 {
		// An entry of 1 is the classic single-context checker: the base
		// machine unchanged.
		m = m.WithContexts(s.Contexts[ki])
	}
	if len(s.RegionDuties) > 0 {
		m = m.WithRegionDuty(s.RegionDuties[gi])
	}
	if len(s.XScales) > 0 {
		m = m.WithXScale(s.XScales[xi])
	}
	if len(s.Staggers) > 0 {
		m = m.WithStagger(s.Staggers[si])
	}
	if len(s.FUScales) > 0 {
		m = m.WithFUScale(s.FUScales[fi])
	}
	if len(s.MSHRs) > 0 {
		m = m.WithMSHRs(s.MSHRs[mi])
	}
	if len(s.MemPorts) > 0 {
		m = m.WithMemPorts(s.MemPorts[pi])
	}
	if len(s.CkptIntervals) > 0 && s.CkptIntervals[ci] > 0 {
		m = m.WithCkptInterval(s.CkptIntervals[ci])
		if len(s.CkptDepths) > 0 {
			m = m.WithCkptDepth(s.CkptDepths[di])
		}
	}
	if err := m.Validate(); err != nil {
		return Point{}, fmt.Errorf("explore: point %d: %w", i, err)
	}
	pt := Point{Index: i, Machine: m, Spec: m.Spec()}
	if len(s.FaultRates) > 0 && s.FaultRates[ri] > 0 {
		pt.Rate = s.FaultRates[ri]
		pt.Spec = m.WithFaultRate(pt.Rate).Spec()
	}
	// Every point must honor the canonical-spec contract: the spec string
	// round-trips to exactly this configuration, because campaigns, store
	// keys, and shrecd responses all re-parse it. The one way to break it
	// is a base that already carries a modifier an axis re-applies
	// ("shrec@x1.4" crossed with XScales), whose chained rounding defeats
	// canonical naming — reject the space rather than fail mid-run.
	dm, drate, err := DecodeSpec(pt.Spec)
	if err == nil {
		a, b := dm, m
		a.Name, b.Name = "", ""
		if a != b || drate != pt.Rate {
			err = fmt.Errorf("explore: spec %q does not reproduce the machine", pt.Spec)
		}
	}
	if err != nil {
		return Point{}, fmt.Errorf("explore: point %d (%q) has no canonical spec — the base %q already carries a modifier an axis re-applies: %w",
			i, pt.Spec, s.Bases[bi], err)
	}
	return pt, nil
}

// Points enumerates the whole space in index order.
func (s Space) Points() ([]Point, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	out := make([]Point, s.Size())
	for i := range out {
		pt, err := s.Point(i)
		if err != nil {
			return nil, err
		}
		out[i] = pt
	}
	return out, nil
}

// DecodeSpec parses a point's canonical specification string back into
// its structural machine and fault rate — the inverse of Point.Spec. The
// rate is stripped through the grammar (config.Machine.WithoutRate), so
// any modifier order parses and the returned machine's name is canonical;
// an earlier version excised the "+rate" substring by hand and broke
// whenever another token rendered after it.
func DecodeSpec(spec string) (config.Machine, float64, error) {
	full, err := config.ByName(spec)
	if err != nil {
		return config.Machine{}, 0, fmt.Errorf("explore: %w", err)
	}
	return full.WithoutRate(), full.FaultRate, nil
}
