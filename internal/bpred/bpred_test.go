package bpred

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/isa"
	"repro/internal/rng"
)

func TestCounter2Saturates(t *testing.T) {
	c := Counter2(0)
	for i := 0; i < 10; i++ {
		c = c.Update(false)
	}
	if c != 0 {
		t.Fatalf("counter underflowed to %d", c)
	}
	for i := 0; i < 10; i++ {
		c = c.Update(true)
	}
	if c != 3 {
		t.Fatalf("counter did not saturate: %d", c)
	}
	if !c.Taken() {
		t.Fatal("saturated-taken counter predicts not-taken")
	}
}

func TestCounter2Hysteresis(t *testing.T) {
	c := Counter2(3)
	c = c.Update(false)
	if !c.Taken() {
		t.Fatal("one not-taken flipped a strongly-taken counter")
	}
	c = c.Update(false)
	if c.Taken() {
		t.Fatal("two not-takens should flip the prediction")
	}
}

func TestCounter2Property(t *testing.T) {
	f := func(start uint8, outcomes []bool) bool {
		c := Counter2(start % 4)
		for _, o := range outcomes {
			c = c.Update(o)
			if c > 3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGshareLearnsBias(t *testing.T) {
	g := NewGshare(1024, 8)
	pc := uint64(0x4000)
	for i := 0; i < 100; i++ {
		g.Update(pc, true)
	}
	if !g.Predict(pc) {
		t.Fatal("gshare failed to learn an always-taken branch")
	}
}

func TestGshareLearnsAlternating(t *testing.T) {
	// With history, gshare predicts a strict T/NT alternation perfectly
	// after warmup.
	g := NewGshare(4096, 8)
	pc := uint64(0x1000)
	taken := false
	wrong := 0
	for i := 0; i < 2000; i++ {
		p := g.Predict(pc)
		if i > 500 && p != taken {
			wrong++
		}
		g.Update(pc, taken)
		taken = !taken
	}
	if wrong > 0 {
		t.Fatalf("gshare mispredicted alternating pattern %d times after warmup", wrong)
	}
}

func TestGshareHistoryMasked(t *testing.T) {
	g := NewGshare(1024, 4)
	for i := 0; i < 100; i++ {
		g.Update(0x100, true)
	}
	if g.History() != 0xF {
		t.Fatalf("history = %#x, want 0xF", g.History())
	}
}

func TestPAsLearnsPerBranchPatterns(t *testing.T) {
	// Two branches with opposite biases must not destructively interfere.
	p := NewPAs(1024, 4096, 8)
	a, b := uint64(0x4000), uint64(0x4004)
	for i := 0; i < 500; i++ {
		p.Update(a, true)
		p.Update(b, false)
	}
	if !p.Predict(a) {
		t.Fatal("PAs lost branch a's taken bias")
	}
	if p.Predict(b) {
		t.Fatal("PAs lost branch b's not-taken bias")
	}
}

func TestPAsLearnsShortLoop(t *testing.T) {
	// Pattern TTTN repeating: local history captures it exactly.
	p := NewPAs(1024, 65536, 12)
	pc := uint64(0x2000)
	wrong := 0
	for i := 0; i < 4000; i++ {
		taken := i%4 != 3
		pred := p.Predict(pc)
		if i > 1000 && pred != taken {
			wrong++
		}
		p.Update(pc, taken)
	}
	if wrong > 0 {
		t.Fatalf("PAs mispredicted TTTN loop %d times after warmup", wrong)
	}
}

func TestCombiningBeatsWorseComponent(t *testing.T) {
	// A branch whose direction correlates with its own local history but
	// not global history: PAs should win and the meta should learn that.
	c := NewCombining(DefaultConfig())
	noise := rng.New(99)
	pcs := []uint64{0x100, 0x200, 0x300, 0x400}
	wrong, total := 0, 0
	for i := 0; i < 20000; i++ {
		for j, pc := range pcs {
			taken := (i+j)%3 != 0 // period-3 local pattern
			pred := c.Predict(pc)
			if i > 5000 {
				total++
				if pred != taken {
					wrong++
				}
			}
			c.Update(pc, taken)
		}
		// Interleave noisy branches to scramble global history.
		npc := uint64(0x10000 + (i%64)*4)
		c.Update(npc, noise.Bool(0.5))
	}
	rate := float64(wrong) / float64(total)
	if rate > 0.05 {
		t.Fatalf("combining mispredict rate %.3f on locally-predictable branches", rate)
	}
}

func TestCombiningStats(t *testing.T) {
	c := NewCombining(DefaultConfig())
	for i := 0; i < 100; i++ {
		c.Predict(0x40)
		c.Update(0x40, true)
	}
	lookups, _ := c.Stats()
	if lookups != 100 {
		t.Fatalf("lookups = %d", lookups)
	}
	if r := c.MispredictRate(); r < 0 || r > 1 {
		t.Fatalf("rate out of range: %v", r)
	}
}

func TestPredictInstKinds(t *testing.T) {
	c := NewCombining(DefaultConfig())
	un := &isa.Inst{PC: 0x10, Class: isa.OpBranch, BranchKind: isa.BranchUncond, Dest: isa.RegNone}
	if !c.PredictInst(un) {
		t.Fatal("unconditional branch predicted not-taken")
	}
	ind := &isa.Inst{PC: 0x14, Class: isa.OpBranch, BranchKind: isa.BranchIndirect, Dest: isa.RegNone}
	if !c.PredictInst(ind) {
		t.Fatal("indirect branch predicted not-taken")
	}
	non := &isa.Inst{PC: 0x18, Class: isa.OpIALU, Dest: 1}
	if c.PredictInst(non) {
		t.Fatal("non-branch predicted taken")
	}
}

func TestBTBHitAfterInsert(t *testing.T) {
	b := NewBTB(64, 4)
	b.Insert(0x1000, 0x2000)
	tgt, ok := b.Lookup(0x1000)
	if !ok || tgt != 0x2000 {
		t.Fatalf("lookup = (%#x, %v)", tgt, ok)
	}
	if _, ok := b.Lookup(0x1004); ok {
		t.Fatal("hit on never-inserted PC")
	}
}

func TestBTBUpdateTarget(t *testing.T) {
	b := NewBTB(64, 4)
	b.Insert(0x1000, 0x2000)
	b.Insert(0x1000, 0x3000)
	tgt, ok := b.Lookup(0x1000)
	if !ok || tgt != 0x3000 {
		t.Fatalf("updated target = (%#x, %v)", tgt, ok)
	}
}

func TestBTBLRUEviction(t *testing.T) {
	b := NewBTB(1, 2) // one set, two ways
	b.Insert(0x000, 0xA)
	b.Insert(0x004, 0xB)
	b.Lookup(0x000)      // make 0x000 MRU
	b.Insert(0x008, 0xC) // must evict 0x004
	if _, ok := b.Lookup(0x000); !ok {
		t.Fatal("MRU entry evicted")
	}
	if _, ok := b.Lookup(0x004); ok {
		t.Fatal("LRU entry survived")
	}
	if tgt, ok := b.Lookup(0x008); !ok || tgt != 0xC {
		t.Fatal("new entry missing")
	}
}

func TestBTBConflictCapacity(t *testing.T) {
	b := NewBTB(64, 4)
	// Fill one set with 4 conflicting entries plus one more.
	for i := 0; i < 5; i++ {
		pc := uint64(i) << (2 + 6) // same set index, different tags
		b.Insert(pc, uint64(i))
	}
	hits := 0
	for i := 0; i < 5; i++ {
		pc := uint64(i) << (2 + 6)
		if _, ok := b.Lookup(pc); ok {
			hits++
		}
	}
	if hits != 4 {
		t.Fatalf("4-way set retained %d of 5 conflicting entries", hits)
	}
}

func TestBTBHitRate(t *testing.T) {
	b := NewBTB(64, 4)
	if b.HitRate() != 0 {
		t.Fatal("hit rate before lookups must be 0")
	}
	b.Insert(0x40, 0x80)
	b.Lookup(0x40)
	b.Lookup(0x44)
	if r := b.HitRate(); r != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", r)
	}
}

func TestConstructorPanics(t *testing.T) {
	cases := []func(){
		func() { NewGshare(1000, 8) },
		func() { NewGshare(0, 8) },
		func() { NewGshare(1024, 0) },
		func() { NewPAs(1000, 1024, 8) },
		func() { NewPAs(1024, 1000, 8) },
		func() { NewPAs(1024, 1024, 70) },
		func() { NewBTB(100, 4) },
		func() { NewBTB(64, 0) },
		func() { NewCombining(Config{MetaEntries: 3}) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: constructor did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestRandomBranchesNearHalfRate(t *testing.T) {
	// On truly random outcomes no predictor beats 50%; the combining
	// predictor must not be pathologically worse either.
	c := NewCombining(DefaultConfig())
	r := rng.New(7)
	wrong, total := 0, 0
	for i := 0; i < 50000; i++ {
		pc := uint64(0x1000 + (i%256)*4)
		taken := r.Bool(0.5)
		if c.Predict(pc) != taken {
			wrong++
		}
		total++
		c.Update(pc, taken)
	}
	rate := float64(wrong) / float64(total)
	if rate < 0.45 || rate > 0.55 {
		t.Fatalf("mispredict rate on random branches = %.3f, want ~0.5", rate)
	}
}

func TestBiasedBranchesLowRate(t *testing.T) {
	c := NewCombining(DefaultConfig())
	r := rng.New(8)
	wrong, total := 0, 0
	for i := 0; i < 50000; i++ {
		pc := uint64(0x1000 + (i%64)*4)
		taken := r.Bool(0.95)
		pred := c.Predict(pc)
		if i > 10000 {
			total++
			if pred != taken {
				wrong++
			}
		}
		c.Update(pc, taken)
	}
	rate := float64(wrong) / float64(total)
	if rate > 0.08 {
		t.Fatalf("mispredict rate on 95%%-biased branches = %.3f", rate)
	}
}

func BenchmarkCombiningPredictUpdate(b *testing.B) {
	c := NewCombining(DefaultConfig())
	r := rng.New(1)
	for i := 0; i < b.N; i++ {
		pc := uint64(0x1000 + (i%1024)*4)
		taken := r.Bool(0.7)
		c.Predict(pc)
		c.Update(pc, taken)
	}
}

func BenchmarkBTB(b *testing.B) {
	btb := NewBTB(512, 4)
	for i := 0; i < b.N; i++ {
		pc := uint64((i % 4096) * 4)
		if _, ok := btb.Lookup(pc); !ok {
			btb.Insert(pc, pc+16)
		}
	}
}

// btbOps applies n random lookups and inserts over a small PC range (so
// sets conflict and evict) and returns every lookup's target and hit flag.
func btbOps(b *BTB, seed uint64, n int) []uint64 {
	r := rng.New(seed)
	var out []uint64
	for i := 0; i < n; i++ {
		pc := uint64(r.Intn(256)) << 2
		if r.Intn(2) == 0 {
			tgt, ok := b.Lookup(pc)
			hit := uint64(0)
			if ok {
				hit = 1
			}
			out = append(out, pc, tgt, hit)
		} else {
			b.Insert(pc, r.Uint64())
		}
	}
	return out
}

// TestBTBCloneIsIndependent warms two BTBs identically, clones one and
// churns the clone, then requires the original to answer every later
// lookup — LRU victim choice included, since an evicted entry misses —
// exactly as the untouched twin does.
func TestBTBCloneIsIndependent(t *testing.T) {
	orig, twin := NewBTB(16, 4), NewBTB(16, 4)
	btbOps(orig, 1, 500)
	btbOps(twin, 1, 500)

	clone := orig.Clone()
	if got, want := btbOps(clone.Clone(), 2, 500), btbOps(twin.Clone(), 2, 500); !reflect.DeepEqual(got, want) {
		t.Fatal("a clone answers differently from the BTB it copied")
	}
	btbOps(clone, 3, 2000)

	if got, want := btbOps(orig, 4, 1000), btbOps(twin, 4, 1000); !reflect.DeepEqual(got, want) {
		t.Fatal("mutating a clone changed the original's answers")
	}
	if orig.HitRate() != twin.HitRate() {
		t.Fatalf("original hit rate %v != twin %v", orig.HitRate(), twin.HitRate())
	}
}

// TestBTBCloneAllocs pins the flat layout: a clone is the struct plus one
// allocation per table, whatever the set count.
func TestBTBCloneAllocs(t *testing.T) {
	b := NewBTB(512, 4)
	if n := testing.AllocsPerRun(10, func() { _ = b.Clone() }); n > 4 {
		t.Fatalf("Clone made %.0f allocations, want at most 4", n)
	}
}
