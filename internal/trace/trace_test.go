package trace

import (
	"math"
	"testing"

	"repro/internal/isa"
)

// testProfile returns a small, valid profile for generator tests.
func testProfile() Profile {
	var mix [isa.NumOpClasses]float64
	mix[isa.OpIALU] = 0.55
	mix[isa.OpLoad] = 0.25
	mix[isa.OpStore] = 0.12
	mix[isa.OpIMul] = 0.05
	mix[isa.OpIDiv] = 0.03
	return Profile{
		Name:            "test",
		Class:           IntClass,
		Seed:            12345,
		CodeFootprint:   32 * 1024,
		AvgBlockLen:     6,
		LoopFrac:        0.2,
		UncondFrac:      0.1,
		IndirectFrac:    0.05,
		LoopMean:        10,
		PredictableFrac: 0.8,
		IndirectTargets: 4,
		Phases: []Phase{{
			Len:           100000,
			Mix:           mix,
			DepMean:       6,
			DepMax:        32,
			ChainFrac:     0.25,
			SrcTwoProb:    0.4,
			DataFootprint: 256 * 1024,
			StrideFrac:    0.6,
			StrideBytes:   8,
		}},
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a, b := New(testProfile()), New(testProfile())
	for i := 0; i < 20000; i++ {
		ia, ib := a.Next(), b.Next()
		if ia != ib {
			t.Fatalf("streams diverged at %d:\n%v\n%v", i, &ia, &ib)
		}
	}
}

func TestGeneratorValidInstructions(t *testing.T) {
	g := New(testProfile())
	for i := 0; i < 50000; i++ {
		in := g.Next()
		if err := in.Validate(); err != nil {
			t.Fatalf("instruction %d invalid: %v (%v)", i, err, in)
		}
	}
}

func TestBranchFractionMatchesBlocks(t *testing.T) {
	p := testProfile()
	g := New(p)
	branches := 0
	const n = 200000
	for i := 0; i < n; i++ {
		if g.Next().IsBranch() {
			branches++
		}
	}
	got := float64(branches) / n
	want := p.BranchFraction()
	// Loops revisit short blocks, so allow a wide band.
	if got < want*0.5 || got > want*2 {
		t.Fatalf("branch fraction = %.3f, profile implies ~%.3f", got, want)
	}
}

func TestMixRoughlyRespected(t *testing.T) {
	p := testProfile()
	g := New(p)
	var counts [isa.NumOpClasses]int
	nonBranch := 0
	const n = 300000
	for i := 0; i < n; i++ {
		in := g.Next()
		if !in.IsBranch() {
			counts[in.Class]++
			nonBranch++
		}
	}
	mix := p.Phases[0].Mix
	var total float64
	for _, w := range mix {
		total += w
	}
	for cls, w := range mix {
		if w == 0 {
			continue
		}
		want := w / total
		got := float64(counts[cls]) / float64(nonBranch)
		if math.Abs(got-want) > 0.02 {
			t.Errorf("class %v fraction = %.3f, want ~%.3f", isa.OpClass(cls), got, want)
		}
	}
}

func TestPCsWithinCodeFootprint(t *testing.T) {
	p := testProfile()
	g := New(p)
	lo, hi := uint64(codeBase), uint64(codeBase)+p.CodeFootprint+uint64(4*p.AvgBlockLen*instrBytes)
	for i := 0; i < 100000; i++ {
		in := g.Next()
		if in.PC < lo || in.PC > hi {
			t.Fatalf("PC %#x outside code footprint [%#x, %#x]", in.PC, lo, hi)
		}
	}
}

func TestAddressesWithinDataFootprint(t *testing.T) {
	p := testProfile()
	g := New(p)
	fp := p.Phases[0].DataFootprint
	for i := 0; i < 100000; i++ {
		in := g.Next()
		if in.Class.IsMem() {
			if in.Addr < dataBase || in.Addr >= dataBase+fp {
				t.Fatalf("address %#x outside data footprint", in.Addr)
			}
		}
	}
}

func TestBranchTargetsAreBlockStarts(t *testing.T) {
	p := testProfile()
	g := New(p)
	starts := map[uint64]bool{}
	for i := range g.blocks {
		starts[g.blocks[i].start] = true
	}
	for i := 0; i < 100000; i++ {
		in := g.Next()
		if in.IsBranch() && !starts[in.Target] {
			t.Fatalf("branch target %#x is not a block start", in.Target)
		}
	}
}

// The walk must actually follow taken branches: after a taken branch, the
// next instruction's PC equals the branch target.
func TestControlFlowContinuity(t *testing.T) {
	g := New(testProfile())
	prev := g.Next()
	for i := 0; i < 100000; i++ {
		cur := g.Next()
		if prev.IsBranch() {
			if prev.Taken && cur.PC != prev.Target {
				t.Fatalf("after taken branch to %#x, next PC = %#x", prev.Target, cur.PC)
			}
			if !prev.Taken && cur.PC != prev.Target {
				// Target holds the fall-through for not-taken branches.
				t.Fatalf("after not-taken branch, next PC = %#x, want fall-through %#x", cur.PC, prev.Target)
			}
		} else if cur.PC != prev.PC+instrBytes {
			t.Fatalf("sequential PC break: %#x -> %#x", prev.PC, cur.PC)
		}
		prev = cur
	}
}

// Dependency sources must reference reasonably recent producers. Because
// stores and branches do not write their rotation slot, the effective
// distance to the last writer can exceed one rotation, but it must stay
// bounded (a handful of rotations) or the ILP model would be meaningless.
func TestDependencyDistancesInRange(t *testing.T) {
	g := New(testProfile())
	written := map[int8]uint64{} // reg -> last writer seq
	for i := uint64(0); i < 100000; i++ {
		in := g.Next()
		for _, src := range []int8{in.Src1, in.Src2} {
			if src == isa.RegNone {
				continue
			}
			if w, ok := written[src]; ok {
				dist := i - w
				if dist > 4*regRotation {
					t.Fatalf("instr %d reads r%d written %d instructions ago (> %d)",
						i, src, dist, 4*regRotation)
				}
			}
		}
		if in.Dest != isa.RegNone {
			written[in.Dest] = i
		}
	}
}

func TestWrongPathStreamIndependent(t *testing.T) {
	// Consuming wrong-path instructions must not perturb the correct path.
	a, b := New(testProfile()), New(testProfile())
	for i := 0; i < 5000; i++ {
		ia := a.Next()
		if i%3 == 0 {
			for k := 0; k < 5; k++ {
				wp := a.NextWrongPath()
				if err := wp.Validate(); err != nil {
					t.Fatalf("wrong-path instruction invalid: %v", err)
				}
			}
		}
		ib := b.Next()
		if ia != ib {
			t.Fatalf("wrong-path consumption perturbed correct path at %d", i)
		}
	}
}

func TestLoopBranchesLoop(t *testing.T) {
	p := testProfile()
	p.LoopFrac = 1 // all blocks self-loop
	p.UncondFrac, p.IndirectFrac = 0, 0
	g := New(p)
	selfLoops := 0
	for i := 0; i < 10000; i++ {
		in := g.Next()
		if in.IsBranch() && in.Taken && in.Target <= in.PC {
			selfLoops++
		}
	}
	if selfLoops == 0 {
		t.Fatal("no backward taken branches in an all-loop profile")
	}
}

func TestPhaseAlternation(t *testing.T) {
	p := testProfile()
	// Phase B is FP-heavy; phase A has no FP at all.
	var fpMix [isa.NumOpClasses]float64
	fpMix[isa.OpFAdd] = 0.5
	fpMix[isa.OpFMul] = 0.3
	fpMix[isa.OpLoad] = 0.2
	p.Phases = []Phase{
		p.Phases[0],
		{Len: 100000, Mix: fpMix, DepMean: 8, DepMax: 32, SrcTwoProb: 0.5,
			DataFootprint: 64 * 1024, StrideFrac: 0.9, StrideBytes: 8},
	}
	p.Phases[0].Len = 100000
	g := New(p)
	sawFP, sawInt := false, false
	for i := 0; i < 250000; i++ {
		in := g.Next()
		if in.Class.IsFP() {
			sawFP = true
		}
		if in.Class == isa.OpIALU {
			sawInt = true
		}
	}
	if !sawFP || !sawInt {
		t.Fatalf("phases not alternating: fp=%v int=%v", sawFP, sawInt)
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	base := testProfile()
	mutations := []func(*Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.CodeFootprint = 100 },
		func(p *Profile) { p.AvgBlockLen = 1 },
		func(p *Profile) { p.LoopFrac = 0.9; p.UncondFrac = 0.9 },
		func(p *Profile) { p.IndirectFrac = 0.1; p.IndirectTargets = 0 },
		func(p *Profile) { p.Phases = nil },
		func(p *Profile) { p.Phases[0].Len = 0 },
		func(p *Profile) { p.Phases[0].Mix[isa.OpBranch] = 0.5 },
		func(p *Profile) { p.Phases[0].Mix = [isa.NumOpClasses]float64{} },
		func(p *Profile) { p.Phases[0].DepMax = 0 },
		func(p *Profile) { p.Phases[0].DepMax = 200 },
		func(p *Profile) { p.Phases[0].DepMean = 0.5 },
		func(p *Profile) { p.Phases[0].DataFootprint = 8 },
	}
	for i, mut := range mutations {
		p := base
		p.Phases = append([]Phase(nil), base.Phases...)
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d: expected validation error", i)
		}
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("base profile invalid: %v", err)
	}
}

func TestNewPanicsOnInvalidProfile(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New did not panic on invalid profile")
		}
	}()
	p := testProfile()
	p.Phases = nil
	New(p)
}

func TestClassString(t *testing.T) {
	if IntClass.String() != "int" || FPClass.String() != "fp" {
		t.Fatal("class strings wrong")
	}
}
