// Package cache models the memory hierarchy of the paper's Table 1: 64KB
// 2-way L1 instruction and data caches with 64-byte lines and 3-cycle hits,
// a unified 2MB 4-way L2 with 12-cycle hits, 200-cycle main memory, 32
// 8-target MSHRs, and 4 memory ports.
//
// The model is a timing model, not a functional one: accesses return the
// cycle at which data becomes available. Misses are non-blocking through a
// miss status holding register (MSHR) file; secondary misses to an
// outstanding line merge into the primary miss's MSHR. Structural refusal
// (no port, no MSHR, no target slot) is reported to the pipeline, which
// retries the access on a later cycle, exactly as sim-outorder does.
package cache

import "fmt"

// Cache is one level of set-associative cache with true-LRU replacement.
// It tracks hit/miss statistics; timing is composed by Hierarchy.
type Cache struct {
	name     string
	ways     int
	lineBits uint
	setMask  uint64
	setShift uint

	// One flat sets*ways array per field, indexed set*ways+way: a clone
	// is one allocation and one copy per array, and none holds a
	// pointer for the GC to scan.
	tags  []uint64 // 0 = invalid (tags are forced nonzero)
	lru   []uint8
	dirty []bool

	accesses  uint64
	misses    uint64
	evictions uint64
}

// NewCache builds a cache of size bytes, assoc ways, and lineSize-byte
// lines. size must be divisible by assoc*lineSize and the resulting set
// count must be a power of two.
func NewCache(name string, size, assoc, lineSize int) *Cache {
	if size <= 0 || assoc <= 0 || lineSize <= 0 {
		panic("cache: non-positive geometry")
	}
	if lineSize&(lineSize-1) != 0 {
		panic("cache: line size must be a power of two")
	}
	if size%(assoc*lineSize) != 0 {
		panic(fmt.Sprintf("cache %s: size %d not divisible by assoc*line %d", name, size, assoc*lineSize))
	}
	sets := size / (assoc * lineSize)
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache %s: set count %d not a power of two", name, sets))
	}
	lineBits := uint(0)
	for 1<<lineBits < lineSize {
		lineBits++
	}
	setShift := uint(0)
	for 1<<setShift < sets {
		setShift++
	}
	c := &Cache{
		name:     name,
		ways:     assoc,
		lineBits: lineBits,
		setMask:  uint64(sets - 1),
		setShift: setShift,
	}
	c.tags = make([]uint64, sets*assoc)
	c.lru = make([]uint8, sets*assoc)
	c.dirty = make([]bool, sets*assoc)
	for i := range c.lru {
		c.lru[i] = uint8(i % assoc)
	}
	return c
}

// LineAddr returns the line-aligned address for addr.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr >> c.lineBits << c.lineBits }

func (c *Cache) split(addr uint64) (set uint64, tag uint64) {
	line := addr >> c.lineBits
	return line & c.setMask, (line >> c.setShift) | 1<<63
}

// base returns the index of set's way 0 in the flat arrays.
func (c *Cache) base(set uint64) int { return int(set) * c.ways }

// Lookup probes the cache without filling. It updates LRU state and the
// hit/miss statistics.
func (c *Cache) Lookup(addr uint64, write bool) bool {
	c.accesses++
	set, tag := c.split(addr)
	b := c.base(set)
	for w, t := range c.tags[b : b+c.ways] {
		if t == tag {
			c.touch(b, w)
			if write {
				c.dirty[b+w] = true
			}
			return true
		}
	}
	c.misses++
	return false
}

// Probe reports whether addr is present without perturbing LRU or
// statistics. Used by tests and by the hierarchy's inclusion checks.
func (c *Cache) Probe(addr uint64) bool {
	set, tag := c.split(addr)
	b := c.base(set)
	for _, t := range c.tags[b : b+c.ways] {
		if t == tag {
			return true
		}
	}
	return false
}

// Fill installs addr's line, evicting the LRU way if needed. It returns the
// evicted line's address and whether an eviction of a valid (and dirty, if
// dirtyOnly) line occurred.
func (c *Cache) Fill(addr uint64, write bool) (victim uint64, dirtyEvict bool) {
	set, tag := c.split(addr)
	b := c.base(set)
	lru := c.lru[b : b+c.ways]
	victimWay := 0
	for w, t := range c.tags[b : b+c.ways] {
		if t == tag {
			// Already present (raced fills are benign).
			c.touch(b, w)
			if write {
				c.dirty[b+w] = true
			}
			return 0, false
		}
		if lru[w] > lru[victimWay] {
			victimWay = w
		}
	}
	v := b + victimWay
	if oldTag := c.tags[v]; oldTag != 0 {
		c.evictions++
		victim = c.reconstruct(set, oldTag)
		dirtyEvict = c.dirty[v]
	}
	c.tags[v] = tag
	c.dirty[v] = write
	c.touch(b, victimWay)
	return victim, dirtyEvict
}

// reconstruct rebuilds a line address from set and stored tag.
func (c *Cache) reconstruct(set uint64, tag uint64) uint64 {
	line := (tag&^(uint64(1)<<63))<<c.setShift | set
	return line << c.lineBits
}

// touch marks way w of the set starting at flat index b as most recently
// used.
func (c *Cache) touch(b, w int) {
	lru := c.lru[b : b+c.ways]
	old := lru[w]
	for i, r := range lru {
		if r < old {
			lru[i]++
		}
	}
	lru[w] = 0
}

// Clone returns a deep copy of the cache's tags, LRU, dirty bits, and
// counters (used by simulation checkpoints).
func (c *Cache) Clone() *Cache {
	out := *c
	out.tags = append([]uint64(nil), c.tags...)
	out.lru = append([]uint8(nil), c.lru...)
	out.dirty = append([]bool(nil), c.dirty...)
	return &out
}

// Stats returns accesses, misses, and evictions.
func (c *Cache) Stats() (accesses, misses, evictions uint64) {
	return c.accesses, c.misses, c.evictions
}

// MissRate returns misses/accesses, or 0 before any access.
func (c *Cache) MissRate() float64 {
	if c.accesses == 0 {
		return 0
	}
	return float64(c.misses) / float64(c.accesses)
}

// Name returns the cache's configured name.
func (c *Cache) Name() string { return c.name }

// ResetStats zeroes the hit/miss counters without touching cache contents.
func (c *Cache) ResetStats() { c.accesses, c.misses, c.evictions = 0, 0, 0 }

// addLookups adds k repetitions of (accesses, misses) deltas without
// touching contents or LRU state — re-probes of the same blocked line are
// idempotent on tag state, so replaying their counts is all a skipped
// retry cycle needs.
func (c *Cache) addLookups(accesses, misses, k uint64) {
	c.accesses += accesses * k
	c.misses += misses * k
}
