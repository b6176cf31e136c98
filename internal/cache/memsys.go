package cache

// Config describes the memory hierarchy. Defaults follow the paper's
// Table 1.
type Config struct {
	LineSize int

	L1ISize, L1IAssoc int
	L1DSize, L1DAssoc int
	L1HitLat          int

	L2Size, L2Assoc int
	L2HitLat        int

	// MemLat is the main-memory access latency beyond the L2.
	MemLat int

	// MSHREntries and MSHRTargets shape the data-side MSHR file.
	MSHREntries, MSHRTargets int

	// MemPorts is the number of L1D accesses the core can start per cycle.
	MemPorts int

	// BusOccupancy is the number of cycles each off-chip transfer (L2 miss
	// fill or dirty writeback) occupies the memory bus. Transfers
	// serialize on the bus, modeling the bus contention the paper added
	// to sim-outorder.
	BusOccupancy int

	// Prefetch configures the optional stride prefetcher (disabled in the
	// paper's machines; see prefetch.go).
	Prefetch PrefetchConfig
}

// DefaultConfig returns the Table 1 memory system: 64K 2-way L1 I/D with
// 64-byte lines and 3-cycle hits, 2M 4-way unified L2 with 12-cycle hits,
// 200-cycle memory, 32 8-target MSHRs, 4 memory ports.
func DefaultConfig() Config {
	return Config{
		LineSize:     64,
		L1ISize:      64 * 1024,
		L1IAssoc:     2,
		L1DSize:      64 * 1024,
		L1DAssoc:     2,
		L1HitLat:     3,
		L2Size:       2 * 1024 * 1024,
		L2Assoc:      4,
		L2HitLat:     12,
		MemLat:       200,
		MSHREntries:  32,
		MSHRTargets:  8,
		MemPorts:     4,
		BusOccupancy: 4,
		Prefetch:     DefaultPrefetchConfig(),
	}
}

// Hierarchy composes the caches, MSHR file, memory ports, and bus into the
// timing model the pipeline calls. All methods take the current cycle; the
// pipeline must call BeginCycle once per cycle before issuing accesses.
type Hierarchy struct {
	cfg  Config
	l1i  *Cache
	l1d  *Cache
	l2   *Cache
	mshr *MSHRFile

	pf *prefetcher

	portCycle int64
	portsUsed int

	busFreeAt int64

	loads, stores, ifetches uint64
	portRejects             uint64
	mshrRejects             uint64
}

// NewHierarchy builds a hierarchy from cfg.
func NewHierarchy(cfg Config) *Hierarchy {
	h := &Hierarchy{
		cfg:  cfg,
		l1i:  NewCache("L1I", cfg.L1ISize, cfg.L1IAssoc, cfg.LineSize),
		l1d:  NewCache("L1D", cfg.L1DSize, cfg.L1DAssoc, cfg.LineSize),
		l2:   NewCache("L2", cfg.L2Size, cfg.L2Assoc, cfg.LineSize),
		mshr: NewMSHRFile(cfg.MSHREntries, cfg.MSHRTargets),
	}
	if cfg.Prefetch.Enable {
		h.pf = newPrefetcher(cfg.Prefetch)
	}
	return h
}

// Clone returns a deep copy of the whole hierarchy — cache contents,
// in-flight MSHR state, bus/port occupancy, prefetcher tables, and counters
// (used by simulation checkpoints).
func (h *Hierarchy) Clone() *Hierarchy {
	c := *h
	c.l1i = h.l1i.Clone()
	c.l1d = h.l1d.Clone()
	c.l2 = h.l2.Clone()
	c.mshr = h.mshr.Clone()
	if h.pf != nil {
		c.pf = h.pf.clone()
	}
	return &c
}

// BeginCycle releases completed MSHRs and resets the per-cycle port count.
func (h *Hierarchy) BeginCycle(now int64) {
	h.mshr.Expire(now)
	if h.portCycle != now {
		h.portCycle = now
		h.portsUsed = 0
	}
}

// PortAvailable reports whether a memory port remains this cycle.
func (h *Hierarchy) PortAvailable() bool { return h.portsUsed < h.cfg.MemPorts }

// busTransfer reserves the bus for one off-chip transfer starting no
// earlier than earliest and returns when the transfer completes.
func (h *Hierarchy) busTransfer(earliest int64) int64 {
	start := earliest
	if h.busFreeAt > start {
		start = h.busFreeAt
	}
	h.busFreeAt = start + int64(h.cfg.BusOccupancy)
	return start + int64(h.cfg.MemLat)
}

// dataAccess runs the common load/store timing path. It returns the cycle
// the access completes and whether it was accepted; a false return means a
// structural hazard (no port or no MSHR) and the caller must retry.
func (h *Hierarchy) dataAccess(now int64, addr uint64, write bool) (readyAt int64, ok bool) {
	if !h.PortAvailable() {
		h.portRejects++
		return 0, false
	}
	line := h.l1d.LineAddr(addr)

	// An in-flight miss to this line? Merge into it.
	if res, merged, found := h.mshr.merge(line); found {
		if res == MSHRFull { // target slots exhausted
			h.mshrRejects++
			return 0, false
		}
		h.portsUsed++
		return merged, true
	}

	if h.l1d.Lookup(addr, write) {
		h.portsUsed++
		return now + int64(h.cfg.L1HitLat), true
	}

	// L1 miss: time the fill, then try to allocate an MSHR for it.
	var fillReady int64
	if h.l2.Lookup(addr, false) {
		if h.pf != nil && h.pf.tracked[line] {
			h.pf.useful++
			delete(h.pf.tracked, line)
		}
		fillReady = now + int64(h.cfg.L2HitLat)
	} else {
		fillReady = h.busTransfer(now + int64(h.cfg.L2HitLat))
		if _, dirtyEvict := h.l2.Fill(addr, false); dirtyEvict {
			// Dirty L2 victim writeback occupies the bus.
			h.busTransfer(fillReady)
		}
	}
	res, ready := h.mshr.allocate(line, fillReady)
	if res == MSHRFull {
		h.mshrRejects++
		return 0, false
	}
	h.portsUsed++
	h.l1d.Fill(addr, write)
	return ready, true
}

// Load starts a load access to addr at cycle now.
func (h *Hierarchy) Load(now int64, addr uint64) (readyAt int64, ok bool) {
	readyAt, ok = h.dataAccess(now, addr, false)
	if ok {
		h.loads++
		h.prefetch(now, addr)
	}
	return readyAt, ok
}

// prefetch feeds the demand stream to the stride prefetcher and installs
// predicted lines into the L2 (a common L2-prefetch design point: it
// avoids polluting the small L1). Prefetch fills use the bus like demand
// misses but do not consume MSHRs or ports — the hardware issues them
// from a separate queue.
func (h *Hierarchy) prefetch(now int64, addr uint64) {
	if h.pf == nil {
		return
	}
	for _, target := range h.pf.observe(h.l1d.LineAddr(addr)) {
		line := h.l1d.LineAddr(target)
		if h.l2.Probe(line) {
			continue
		}
		if _, out := h.mshr.Outstanding(line); out {
			continue
		}
		h.pf.issued++
		if h.pf.tracked != nil {
			h.pf.tracked[line] = true
		}
		h.busTransfer(now + int64(h.cfg.L2HitLat))
		h.l2.Fill(line, false)
	}
}

// PrefetchStats returns issued and useful prefetch counts (zeros when the
// prefetcher is disabled).
func (h *Hierarchy) PrefetchStats() (issued, useful uint64) {
	if h.pf == nil {
		return 0, 0
	}
	return h.pf.Stats()
}

// Store starts a store commit to addr at cycle now (called at retirement;
// the paper's pipeline writes memory in order at commit).
func (h *Hierarchy) Store(now int64, addr uint64) (readyAt int64, ok bool) {
	readyAt, ok = h.dataAccess(now, addr, true)
	if ok {
		h.stores++
		h.prefetch(now, addr)
	}
	return readyAt, ok
}

// IFetch accesses the instruction cache for the fetch block containing pc.
// Instruction fetch has a dedicated port; misses go through the L2 and bus
// like data misses but do not consume data MSHRs (the in-order front end
// sustains only one outstanding fetch miss).
func (h *Hierarchy) IFetch(now int64, pc uint64) (readyAt int64) {
	h.ifetches++
	if h.l1i.Lookup(pc, false) {
		return now + int64(h.cfg.L1HitLat)
	}
	var fillReady int64
	if h.l2.Lookup(pc, false) {
		fillReady = now + int64(h.cfg.L2HitLat)
	} else {
		fillReady = h.busTransfer(now + int64(h.cfg.L2HitLat))
		h.l2.Fill(pc, false)
	}
	h.l1i.Fill(pc, false)
	return fillReady
}

// LineAddr returns addr's line address (for fetch-block grouping).
func (h *Hierarchy) LineAddr(addr uint64) uint64 { return h.l1d.LineAddr(addr) }

// L1I, L1D, and L2 expose the underlying caches for statistics.
func (h *Hierarchy) L1I() *Cache { return h.l1i }

// L1D returns the level-one data cache.
func (h *Hierarchy) L1D() *Cache { return h.l1d }

// L2 returns the unified second-level cache.
func (h *Hierarchy) L2() *Cache { return h.l2 }

// MSHR returns the data-side MSHR file.
func (h *Hierarchy) MSHR() *MSHRFile { return h.mshr }

// NextEvent returns the earliest cycle strictly after now at which the
// memory system changes state on its own: the earliest outstanding MSHR
// fill (which releases a register, unblocking allocation-stalled accesses
// and draining occupancy). Bus and port state schedule no standalone
// events — the bus only queues transfers started by accesses, and ports
// reset every cycle — so the MSHR file is the hierarchy's whole horizon.
// Returns math.MaxInt64 when nothing is outstanding.
func (h *Hierarchy) NextEvent(now int64) int64 { return h.mshr.NextReady(now) }

// AttemptCounters snapshots every counter a *failed* (and therefore
// retried) access attempt can move: L1D/L2 probe counts and the
// structural-rejection tallies. The cycle-skipping engine loop measures
// one stalled cycle's movement as a delta of two snapshots and replays it
// across the skipped span with AddAttempts, so attempt-rate diagnostics
// stay identical to a tick-by-tick simulation. Successful accesses always
// mark their cycle as progress, so no other hierarchy counter can move in
// a skipped cycle.
type AttemptCounters struct {
	L1DAccesses, L1DMisses        uint64
	L2Accesses, L2Misses          uint64
	PortRejects, MSHRRejects      uint64
	MSHRAllocFail, MSHRTargetFail uint64
}

// AttemptCounters returns the current snapshot.
func (h *Hierarchy) AttemptCounters() AttemptCounters {
	var c AttemptCounters
	c.L1DAccesses, c.L1DMisses, _ = h.l1d.Stats()
	c.L2Accesses, c.L2Misses, _ = h.l2.Stats()
	c.PortRejects, c.MSHRRejects = h.portRejects, h.mshrRejects
	_, _, c.MSHRAllocFail, c.MSHRTargetFail = h.mshr.Stats()
	return c
}

// Sub returns the componentwise difference c - o.
func (c AttemptCounters) Sub(o AttemptCounters) AttemptCounters {
	return AttemptCounters{
		L1DAccesses: c.L1DAccesses - o.L1DAccesses, L1DMisses: c.L1DMisses - o.L1DMisses,
		L2Accesses: c.L2Accesses - o.L2Accesses, L2Misses: c.L2Misses - o.L2Misses,
		PortRejects: c.PortRejects - o.PortRejects, MSHRRejects: c.MSHRRejects - o.MSHRRejects,
		MSHRAllocFail: c.MSHRAllocFail - o.MSHRAllocFail, MSHRTargetFail: c.MSHRTargetFail - o.MSHRTargetFail,
	}
}

// AddAttempts adds k repetitions of the per-cycle delta d.
func (h *Hierarchy) AddAttempts(d AttemptCounters, k uint64) {
	h.l1d.addLookups(d.L1DAccesses, d.L1DMisses, k)
	h.l2.addLookups(d.L2Accesses, d.L2Misses, k)
	h.portRejects += d.PortRejects * k
	h.mshrRejects += d.MSHRRejects * k
	h.mshr.addFails(d.MSHRAllocFail, d.MSHRTargetFail, k)
}

// Stats returns load, store, and instruction-fetch access counts plus the
// structural rejections seen by the pipeline.
func (h *Hierarchy) Stats() (loads, stores, ifetches, portRejects, mshrRejects uint64) {
	return h.loads, h.stores, h.ifetches, h.portRejects, h.mshrRejects
}

// ResetStats zeroes all hierarchy counters (cache contents and in-flight
// misses are preserved), so measurements can exclude warmup.
func (h *Hierarchy) ResetStats() {
	h.l1i.ResetStats()
	h.l1d.ResetStats()
	h.l2.ResetStats()
	h.mshr.ResetStats()
	h.loads, h.stores, h.ifetches, h.portRejects, h.mshrRejects = 0, 0, 0, 0, 0
}
