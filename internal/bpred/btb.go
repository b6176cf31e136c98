package bpred

// BTB is a set-associative branch target buffer with true-LRU replacement.
// Table 1 provisions 2K entries, 4-way. A fetch that predicts a branch
// taken but misses in the BTB cannot redirect in the same cycle and pays a
// fetch bubble.
type BTB struct {
	ways     int
	setMask  uint64
	setShift uint
	// One flat sets*ways array per field, indexed set*ways+way, so a
	// clone is one allocation and one copy per array.
	tags    []uint64 // tag per way; 0 means invalid (tags are made nonzero)
	targets []uint64
	lru     []uint8 // lower value = more recently used

	lookups uint64
	hits    uint64
}

// NewBTB builds a BTB with sets x ways entries. sets must be a power of two.
func NewBTB(sets, ways int) *BTB {
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("bpred: BTB sets must be a nonzero power of two")
	}
	if ways <= 0 {
		panic("bpred: BTB ways must be positive")
	}
	shift := uint(0)
	for 1<<shift < sets {
		shift++
	}
	b := &BTB{
		ways:     ways,
		setMask:  uint64(sets - 1),
		setShift: shift,
		tags:     make([]uint64, sets*ways),
		targets:  make([]uint64, sets*ways),
		lru:      make([]uint8, sets*ways),
	}
	for i := range b.lru {
		b.lru[i] = uint8(i % ways)
	}
	return b
}

// split returns the flat index of pc's set's way 0 and pc's tag.
func (b *BTB) split(pc uint64) (base int, tag uint64) {
	idx := pcIndex(pc)
	// Tag is made nonzero so the zero value marks an invalid way.
	return int(idx&b.setMask) * b.ways, (idx >> b.setShift) | 1<<63
}

// Lookup returns the predicted target for pc and whether it hit.
func (b *BTB) Lookup(pc uint64) (target uint64, ok bool) {
	b.lookups++
	base, tag := b.split(pc)
	for w, t := range b.tags[base : base+b.ways] {
		if t == tag {
			b.hits++
			b.touch(base, w)
			return b.targets[base+w], true
		}
	}
	return 0, false
}

// Insert records or updates the target for pc, evicting the LRU way on a
// conflict.
func (b *BTB) Insert(pc, target uint64) {
	base, tag := b.split(pc)
	lru := b.lru[base : base+b.ways]
	victim := 0
	for w, t := range b.tags[base : base+b.ways] {
		if t == tag {
			b.targets[base+w] = target
			b.touch(base, w)
			return
		}
		if lru[w] > lru[victim] {
			victim = w
		}
	}
	b.tags[base+victim] = tag
	b.targets[base+victim] = target
	b.touch(base, victim)
}

// touch marks way w of the set starting at flat index base as most
// recently used.
func (b *BTB) touch(base, w int) {
	lru := b.lru[base : base+b.ways]
	old := lru[w]
	for i, r := range lru {
		if r < old {
			lru[i]++
		}
	}
	lru[w] = 0
}

// Clone returns a deep copy of the BTB's tags, targets, and LRU state.
func (b *BTB) Clone() *BTB {
	c := *b
	c.tags = append([]uint64(nil), b.tags...)
	c.targets = append([]uint64(nil), b.targets...)
	c.lru = append([]uint8(nil), b.lru...)
	return &c
}

// HitRate returns the fraction of lookups that hit, or 0 before any lookup.
func (b *BTB) HitRate() float64 {
	if b.lookups == 0 {
		return 0
	}
	return float64(b.hits) / float64(b.lookups)
}
