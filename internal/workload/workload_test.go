package workload

import (
	"reflect"
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
)

func TestCounts(t *testing.T) {
	if n := len(Integer()); n != 11 {
		t.Errorf("integer benchmarks = %d, want 11 (mcf excluded)", n)
	}
	if n := len(FloatingPoint()); n != 14 {
		t.Errorf("fp benchmarks = %d, want 14", n)
	}
	if n := len(All()); n != 25 {
		t.Errorf("total = %d, want 25", n)
	}
}

func TestMcfExcluded(t *testing.T) {
	if _, err := ByName("mcf"); err == nil {
		t.Fatal("mcf must be excluded, as in the paper")
	}
}

func TestAllProfilesValid(t *testing.T) {
	for _, p := range All() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestAllProfilesGenerate(t *testing.T) {
	for _, p := range All() {
		g := trace.New(p)
		for i := 0; i < 5000; i++ {
			in := g.Next()
			if err := in.Validate(); err != nil {
				t.Fatalf("%s instruction %d: %v", p.Name, i, err)
			}
		}
	}
}

func TestClassesAndOrder(t *testing.T) {
	for _, p := range Integer() {
		if p.Class != trace.IntClass {
			t.Errorf("%s misclassified as %v", p.Name, p.Class)
		}
	}
	for _, p := range FloatingPoint() {
		if p.Class != trace.FPClass {
			t.Errorf("%s misclassified as %v", p.Name, p.Class)
		}
	}
	// Paper's high-IPC subsets.
	wantHigh := map[string]bool{
		"gcc-166": true, "crafty": true, "eon-rushmeier": true, "vortex-one": true,
		"galgel": true, "sixtrack": true, "mesa": true, "apsi": true,
	}
	for _, p := range All() {
		if p.HighIPC != wantHigh[p.Name] {
			t.Errorf("%s HighIPC = %v, want %v", p.Name, p.HighIPC, wantHigh[p.Name])
		}
	}
}

func TestSeedsUniqueAndStable(t *testing.T) {
	seen := map[uint64]string{}
	for _, p := range All() {
		if other, dup := seen[p.Seed]; dup {
			t.Errorf("%s and %s share seed %#x", p.Name, other, p.Seed)
		}
		seen[p.Seed] = p.Name
	}
	// Stability: the seed is a pure function of the name.
	a, _ := ByName("swim")
	b, _ := ByName("swim")
	if a.Seed != b.Seed {
		t.Fatal("seed not stable across lookups")
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("swim")
	if err != nil || p.Name != "swim" || p.Class != trace.FPClass {
		t.Fatalf("ByName(swim) = %+v, %v", p.Name, err)
	}
	if _, err := ByName("nonexistent"); err == nil {
		t.Fatal("no error for unknown name")
	}
}

func TestNames(t *testing.T) {
	names := Names()
	if len(names) != 25 || names[0] != "gap" {
		t.Fatalf("Names() = %v", names)
	}
	sorted := SortedNames()
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1] >= sorted[i] {
			t.Fatal("SortedNames not sorted")
		}
	}
}

func TestIntProfilesHaveNoHeavyFP(t *testing.T) {
	for _, p := range Integer() {
		for _, ph := range p.Phases {
			fp := ph.Mix[isa.OpFAdd] + ph.Mix[isa.OpFMul] + ph.Mix[isa.OpFDiv]
			var total float64
			for _, w := range ph.Mix {
				total += w
			}
			if fp/total > 0.25 {
				t.Errorf("%s: integer benchmark with %.0f%% FP mix", p.Name, 100*fp/total)
			}
		}
	}
}

func TestFPProfilesHaveFP(t *testing.T) {
	for _, p := range FloatingPoint() {
		anyFP := false
		for _, ph := range p.Phases {
			if ph.Mix[isa.OpFAdd]+ph.Mix[isa.OpFMul] > 0 {
				anyFP = true
			}
		}
		if !anyFP {
			t.Errorf("%s: fp benchmark without FP operations", p.Name)
		}
	}
}

// The distinguishing characteristics the tuning relies on must hold
// structurally: memory-bound fp codes have footprints beyond the L2;
// high-IPC codes have larger dependency distances than low-IPC ones.
func TestCharacteristicStructure(t *testing.T) {
	memBound := []string{"equake", "lucas", "swim", "mgrid", "fma3d"}
	for _, name := range memBound {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Phases[0].DataFootprint <= 2*1024*1024 {
			t.Errorf("%s: memory-bound profile fits in the L2", name)
		}
	}
	vortex, _ := ByName("vortex-one")
	parser, _ := ByName("parser")
	if vortex.Phases[0].DepMean <= parser.Phases[0].DepMean {
		t.Error("high-IPC vortex should have more ILP than parser")
	}
}

// ByName serves every name from the one table, and no copy handed out
// aliases it.
func TestByNameTable(t *testing.T) {
	all := All()
	names := Names()
	if len(names) != len(all) {
		t.Fatalf("%d names for %d profiles", len(names), len(all))
	}
	for i, name := range names {
		p, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if !reflect.DeepEqual(p, all[i]) {
			t.Errorf("ByName(%q) differs from All()[%d]", name, i)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName of an unknown name succeeded")
	}

	// The reference is a fresh build, so it cannot share memory with the
	// table the copies are made from.
	var want trace.Profile
	for _, p := range FloatingPoint() {
		if p.Name == "swim" {
			want = p
		}
	}
	got, _ := ByName("swim")
	got.Phases[0].DepMean = -1
	got.Phases = append(got.Phases, trace.Phase{})
	for i := range all {
		if all[i].Name == "swim" {
			all[i].Phases[0].HotBytes = 0
			all[i].Name = "changed"
		}
	}
	if again, _ := ByName("swim"); !reflect.DeepEqual(again, want) {
		t.Error("changing a returned profile or All's slice changed the next ByName result")
	}

	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ByName("swim"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("ByName hit: %v allocs, want at most 1 (the Phases copy)", allocs)
	}
}
