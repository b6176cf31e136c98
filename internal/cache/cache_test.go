package cache

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestCacheHitAfterFill(t *testing.T) {
	c := NewCache("t", 1024, 2, 64)
	if c.Lookup(0x100, false) {
		t.Fatal("hit in empty cache")
	}
	c.Fill(0x100, false)
	if !c.Lookup(0x100, false) {
		t.Fatal("miss after fill")
	}
	// Same line, different offset.
	if !c.Lookup(0x13F, false) {
		t.Fatal("miss within filled line")
	}
	// Adjacent line.
	if c.Lookup(0x140, false) {
		t.Fatal("hit on unfilled adjacent line")
	}
}

func TestCacheLRUWithinSet(t *testing.T) {
	// 2 ways, 8 sets of 64B lines => set stride 512.
	c := NewCache("t", 1024, 2, 64)
	const stride = 512
	c.Fill(0*stride, false)
	c.Fill(1*stride, false)
	c.Lookup(0*stride, false) // make way A MRU
	c.Fill(2*stride, false)   // evicts 1*stride
	if !c.Probe(0 * stride) {
		t.Fatal("MRU line evicted")
	}
	if c.Probe(1 * stride) {
		t.Fatal("LRU line survived")
	}
	if !c.Probe(2 * stride) {
		t.Fatal("new line missing")
	}
}

func TestCacheEvictionReturnsVictim(t *testing.T) {
	c := NewCache("t", 1024, 2, 64)
	const stride = 512
	c.Fill(3*stride, true) // dirty
	c.Fill(4*stride, false)
	victim, dirty := c.Fill(5*stride, false)
	if victim != 3*stride {
		t.Fatalf("victim = %#x, want %#x", victim, uint64(3*stride))
	}
	if !dirty {
		t.Fatal("dirty eviction not flagged")
	}
}

func TestCacheDirtyTracking(t *testing.T) {
	c := NewCache("t", 1024, 2, 64)
	c.Fill(0x000, false)
	c.Lookup(0x000, true) // write hit dirties the line
	c.Fill(0x200, false)
	_, dirty := c.Fill(0x400, false) // evicts 0x000
	if !dirty {
		t.Fatal("write-hit line evicted clean")
	}
}

func TestCacheStats(t *testing.T) {
	c := NewCache("t", 1024, 2, 64)
	c.Lookup(0x0, false) // miss
	c.Fill(0x0, false)
	c.Lookup(0x0, false) // hit
	acc, miss, _ := c.Stats()
	if acc != 2 || miss != 1 {
		t.Fatalf("stats = (%d, %d)", acc, miss)
	}
	if c.MissRate() != 0.5 {
		t.Fatalf("miss rate = %v", c.MissRate())
	}
}

func TestCacheCapacityProperty(t *testing.T) {
	// After filling n distinct lines into a cache of capacity >= n lines
	// mapped to distinct sets, all must be present.
	c := NewCache("t", 64*1024, 2, 64)
	lines := 64 * 1024 / 64
	for i := 0; i < lines; i++ {
		c.Fill(uint64(i*64), false)
	}
	missing := 0
	for i := 0; i < lines; i++ {
		if !c.Probe(uint64(i * 64)) {
			missing++
		}
	}
	if missing != 0 {
		t.Fatalf("%d of %d resident lines missing", missing, lines)
	}
}

func TestCacheVictimReconstruction(t *testing.T) {
	// Property: the victim address returned by Fill is always a line the
	// cache previously contained.
	c := NewCache("t", 2048, 4, 64)
	r := rng.New(42)
	resident := map[uint64]bool{}
	for i := 0; i < 5000; i++ {
		addr := uint64(r.Intn(1 << 20))
		line := c.LineAddr(addr)
		victim, _ := c.Fill(addr, r.Bool(0.3))
		if victim != 0 && !resident[victim] {
			t.Fatalf("victim %#x was never resident", victim)
		}
		if victim != 0 {
			delete(resident, victim)
		}
		resident[line] = true
	}
}

func TestCacheGeometryPanics(t *testing.T) {
	cases := []func(){
		func() { NewCache("t", 0, 2, 64) },
		func() { NewCache("t", 1024, 2, 60) },
		func() { NewCache("t", 1000, 2, 64) },
		func() { NewCache("t", 3*64*2, 2, 64) }, // 3 sets: not a power of two
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestMSHRPrimaryAndMerge(t *testing.T) {
	m := NewMSHRFile(2, 2)
	res, ready := m.Request(0x1000, 50)
	if res != MSHRAllocated || ready != 50 {
		t.Fatalf("primary = (%v, %d)", res, ready)
	}
	res, ready = m.Request(0x1000, 99)
	if res != MSHRMerged || ready != 50 {
		t.Fatalf("merge = (%v, %d); merged requests adopt the primary's ready time", res, ready)
	}
	// Target slots: 2 per entry, both used now.
	if res, _ := m.Request(0x1000, 0); res != MSHRFull {
		t.Fatalf("third target = %v, want MSHRFull", res)
	}
}

func TestMSHRCapacity(t *testing.T) {
	m := NewMSHRFile(2, 8)
	m.Request(0x1000, 10)
	m.Request(0x2000, 10)
	if res, _ := m.Request(0x3000, 10); res != MSHRFull {
		t.Fatalf("allocation beyond capacity = %v", res)
	}
	if m.InFlight() != 2 {
		t.Fatalf("in flight = %d", m.InFlight())
	}
}

func TestMSHRExpire(t *testing.T) {
	m := NewMSHRFile(2, 8)
	m.Request(0x1000, 10)
	m.Request(0x2000, 20)
	m.Expire(10)
	if m.InFlight() != 1 {
		t.Fatalf("in flight after expire = %d", m.InFlight())
	}
	if _, out := m.Outstanding(0x1000); out {
		t.Fatal("expired entry still outstanding")
	}
	if _, out := m.Outstanding(0x2000); !out {
		t.Fatal("live entry lost")
	}
	// Register is reusable now.
	if res, _ := m.Request(0x3000, 30); res != MSHRAllocated {
		t.Fatalf("reuse after expire = %v", res)
	}
}

// The line-bucket filter is exact: over random requests and expiries,
// find agrees with a plain scan of the registers, and the bucket counts
// equal a recount.
func TestMSHRLineFilterExact(t *testing.T) {
	r := rng.New(5)
	m := NewMSHRFile(16, 2)
	for now := int64(0); now < 20000; now++ {
		m.Expire(now)
		// Lines from a small pool so merges, bucket collisions and reuse
		// all happen.
		line := uint64(r.Intn(64)) << 6
		m.Request(line, now+1+int64(r.Intn(40)))
		var want [1 << mshrBucketBits]uint16
		for i := range m.slots {
			if s := &m.slots[i]; s.used {
				want[lineBucket(s.line)]++
			}
		}
		if want != m.lines {
			t.Fatalf("cycle %d: line buckets differ from a recount", now)
		}
		probe := uint64(r.Intn(64)) << 6
		var scan *mshrSlot
		for i := range m.slots {
			if s := &m.slots[i]; s.used && s.line == probe {
				scan = s
			}
		}
		if got := m.find(probe); got != scan {
			t.Fatalf("cycle %d: find(%#x) = %p, a scan finds %p", now, probe, got, scan)
		}
	}
}

func TestMSHRStats(t *testing.T) {
	m := NewMSHRFile(1, 1)
	m.Request(0x1000, 10)
	m.Request(0x1000, 10) // target fail
	m.Request(0x2000, 10) // alloc fail
	p, s, af, tf := m.Stats()
	if p != 1 || s != 0 || af != 1 || tf != 1 {
		t.Fatalf("stats = (%d,%d,%d,%d)", p, s, af, tf)
	}
}

func TestHierarchyL1Hit(t *testing.T) {
	h := NewHierarchy(DefaultConfig())
	h.BeginCycle(0)
	// First access misses to memory.
	ready, ok := h.Load(0, 0x1000)
	if !ok {
		t.Fatal("cold load rejected")
	}
	wantMiss := int64(12 + 200)
	if ready != wantMiss {
		t.Fatalf("cold miss ready = %d, want %d", ready, wantMiss)
	}
	// After the miss completes, the line hits in L1.
	h.BeginCycle(ready + 1)
	ready2, ok := h.Load(ready+1, 0x1000)
	if !ok || ready2 != ready+1+3 {
		t.Fatalf("L1 hit ready = %d (ok=%v), want %d", ready2, ok, ready+1+3)
	}
}

func TestHierarchyL2Hit(t *testing.T) {
	cfg := DefaultConfig()
	h := NewHierarchy(cfg)
	h.BeginCycle(0)
	h.Load(0, 0x1000) // fills L1+L2
	// Evict from tiny L1 by filling conflicting lines; L1 is 64K 2-way,
	// set stride = 32K.
	h.BeginCycle(1000)
	h.Load(1000, 0x1000+32*1024)
	h.BeginCycle(2000)
	h.Load(2000, 0x1000+2*32*1024)
	// 0x1000 now misses L1 but hits L2.
	h.BeginCycle(3000)
	ready, ok := h.Load(3000, 0x1000)
	if !ok || ready != 3000+12 {
		t.Fatalf("L2 hit ready = %d (ok=%v), want %d", ready, ok, 3000+12)
	}
}

func TestHierarchyPortLimit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemPorts = 2
	h := NewHierarchy(cfg)
	h.BeginCycle(0)
	if _, ok := h.Load(0, 0x0); !ok {
		t.Fatal("port 1 rejected")
	}
	if _, ok := h.Load(0, 0x40); !ok {
		t.Fatal("port 2 rejected")
	}
	if _, ok := h.Load(0, 0x80); ok {
		t.Fatal("third access accepted with 2 ports")
	}
	// Next cycle the ports are free again.
	h.BeginCycle(1)
	if _, ok := h.Load(1, 0x80); !ok {
		t.Fatal("port not released at cycle boundary")
	}
}

func TestHierarchyMSHRMerge(t *testing.T) {
	h := NewHierarchy(DefaultConfig())
	h.BeginCycle(0)
	r1, ok := h.Load(0, 0x5000)
	if !ok {
		t.Fatal("first load rejected")
	}
	// Second load to the same line merges and completes at the same time.
	h.BeginCycle(1)
	r2, ok := h.Load(1, 0x5008)
	if !ok {
		t.Fatal("merged load rejected")
	}
	if r2 != r1 {
		t.Fatalf("merged ready %d != primary ready %d", r2, r1)
	}
}

func TestHierarchyMSHRExhaustion(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MSHREntries = 2
	cfg.MemPorts = 8
	h := NewHierarchy(cfg)
	h.BeginCycle(0)
	h.Load(0, 0x10000)
	h.Load(0, 0x20000)
	if _, ok := h.Load(0, 0x30000); ok {
		t.Fatal("third distinct miss accepted with 2 MSHRs")
	}
	_, _, _, _, mshrRejects := h.Stats()
	if mshrRejects != 1 {
		t.Fatalf("mshr rejects = %d", mshrRejects)
	}
}

func TestHierarchyBusContention(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BusOccupancy = 10
	h := NewHierarchy(cfg)
	h.BeginCycle(0)
	r1, _ := h.Load(0, 0x100000)
	r2, _ := h.Load(0, 0x200000)
	if r2 != r1+10 {
		t.Fatalf("second transfer ready %d, want %d (bus serialization)", r2, r1+10)
	}
}

func TestHierarchyIFetch(t *testing.T) {
	h := NewHierarchy(DefaultConfig())
	h.BeginCycle(0)
	r := h.IFetch(0, 0x4000)
	if r != 12+200 {
		t.Fatalf("cold ifetch ready = %d", r)
	}
	r = h.IFetch(300, 0x4000)
	if r != 303 {
		t.Fatalf("warm ifetch ready = %d", r)
	}
	// IFetch must not consume data ports.
	h.BeginCycle(400)
	for i := 0; i < 4; i++ {
		h.IFetch(400, uint64(0x8000+i*64))
	}
	if !h.PortAvailable() {
		t.Fatal("ifetch consumed data ports")
	}
}

func TestHierarchyStoreDirtiesLine(t *testing.T) {
	h := NewHierarchy(DefaultConfig())
	h.BeginCycle(0)
	if _, ok := h.Store(0, 0x9000); !ok {
		t.Fatal("store rejected")
	}
	loads, stores, _, _, _ := h.Stats()
	if loads != 0 || stores != 1 {
		t.Fatalf("counts = (%d, %d)", loads, stores)
	}
}

func TestHierarchyMonotonicReadyProperty(t *testing.T) {
	// Property: an accepted access never completes before now + L1 hit
	// latency, and never before now.
	h := NewHierarchy(DefaultConfig())
	r := rng.New(17)
	if err := quick.Check(func(raw uint32) bool {
		now := int64(raw % 100000)
		h.BeginCycle(now)
		addr := uint64(r.Intn(1 << 22))
		ready, ok := h.Load(now, addr)
		if !ok {
			return true
		}
		return ready >= now+3
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkHierarchyLoad(b *testing.B) {
	h := NewHierarchy(DefaultConfig())
	r := rng.New(3)
	for i := 0; i < b.N; i++ {
		now := int64(i)
		h.BeginCycle(now)
		h.Load(now, uint64(r.Intn(1<<24)))
	}
}

// cacheOps applies n random lookups and fills over 64 lines 512 bytes
// apart (in a 16-set cache they share two sets, so fills evict) and
// returns every answer: hit or miss, victim address, and dirty-eviction
// flag.
func cacheOps(c *Cache, seed uint64, n int) []uint64 {
	r := rng.New(seed)
	var out []uint64
	for i := 0; i < n; i++ {
		addr := uint64(r.Intn(64)) * 512
		write := r.Intn(4) == 0
		if r.Intn(2) == 0 {
			hit := c.Lookup(addr, write)
			out = append(out, addr, boolWord(hit), boolWord(c.Probe(addr)))
		} else {
			victim, dirty := c.Fill(addr, write)
			out = append(out, addr, victim, boolWord(dirty))
		}
	}
	return out
}

func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// TestCacheCloneIsIndependent warms two caches identically, clones one
// and churns the clone, then requires the original to answer every later
// lookup, probe and fill — LRU victim choice and dirty bits included —
// exactly as the untouched twin does.
func TestCacheCloneIsIndependent(t *testing.T) {
	orig := NewCache("t", 4096, 4, 64)
	twin := NewCache("t", 4096, 4, 64)
	cacheOps(orig, 1, 500)
	cacheOps(twin, 1, 500)

	clone := orig.Clone()
	if got, want := cacheOps(clone.Clone(), 2, 500), cacheOps(twin.Clone(), 2, 500); !reflect.DeepEqual(got, want) {
		t.Fatal("a clone answers differently from the cache it copied")
	}
	cacheOps(clone, 3, 2000)

	if got, want := cacheOps(orig, 4, 1000), cacheOps(twin, 4, 1000); !reflect.DeepEqual(got, want) {
		t.Fatal("mutating a clone changed the original's answers")
	}
	oa, om, oe := orig.Stats()
	ta, tm, te := twin.Stats()
	if oa != ta || om != tm || oe != te {
		t.Fatalf("original stats (%d,%d,%d) != twin (%d,%d,%d)", oa, om, oe, ta, tm, te)
	}
}

// TestCacheCloneAllocs pins the flat layout: a clone is the struct plus
// one allocation per table, whatever the set count (the 2MB L2 has 8192
// sets).
func TestCacheCloneAllocs(t *testing.T) {
	c := NewCache("L2", 2*1024*1024, 4, 64)
	if n := testing.AllocsPerRun(10, func() { _ = c.Clone() }); n > 4 {
		t.Fatalf("Clone made %.0f allocations, want at most 4", n)
	}
}
