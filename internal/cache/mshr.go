package cache

import "math"

// MSHRFile models the miss status holding registers: each register tracks
// one outstanding line miss and up to TargetsPerMSHR merged requests to
// that line. A primary miss allocates a register; secondary misses to the
// same line merge as targets. When the file (or a register's target list)
// is full, the access must be retried later — the structural hazard the
// paper's modified sim-outorder models.
//
// The file is a fixed array of registers scanned linearly, like the
// hardware. Beyond fidelity, the array keeps the steady-state request path
// allocation-free: the engine's hot loop performs no heap allocation, and
// the conformance suite (internal/core) holds every mode to exactly that.
type MSHRFile struct {
	entries int
	targets int
	slots   []mshrSlot

	// inFlight counts occupied registers, so capacity checks and the
	// per-cycle occupancy accounting skip the scan.
	inFlight int

	// minReady caches the earliest readyAt among occupied registers
	// (math.MaxInt64 when empty), so the per-cycle Expire sweep is a
	// single comparison until a fill actually lands.
	minReady int64

	allocFail  uint64
	targetFail uint64
	primary    uint64
	secondary  uint64
}

type mshrSlot struct {
	line    uint64
	readyAt int64
	targets int
	used    bool
}

// NewMSHRFile builds a file of entries registers with targets merge slots
// each.
func NewMSHRFile(entries, targets int) *MSHRFile {
	if entries <= 0 || targets <= 0 {
		panic("cache: MSHR geometry must be positive")
	}
	return &MSHRFile{
		entries:  entries,
		targets:  targets,
		slots:    make([]mshrSlot, entries),
		minReady: math.MaxInt64,
	}
}

// Result of an MSHR request.
type MSHRResult uint8

const (
	// MSHRAllocated means a new register was allocated (primary miss).
	MSHRAllocated MSHRResult = iota
	// MSHRMerged means the request merged into an outstanding miss.
	MSHRMerged
	// MSHRFull means no register (or no target slot) was available; the
	// requester must retry.
	MSHRFull
)

// Request asks for line lineAddr; if a register is allocated the miss
// will complete at readyAt. For merged requests the returned ready cycle
// is the outstanding miss's completion. The caller supplies readyAt only
// for primary allocations (it is ignored when merging).
func (m *MSHRFile) Request(lineAddr uint64, readyAt int64) (MSHRResult, int64) {
	if res, ready, found := m.merge(lineAddr); found {
		return res, ready
	}
	return m.allocate(lineAddr, readyAt)
}

// merge adds a target to lineAddr's in-flight miss. found reports whether
// one was in flight; if so, res is MSHRMerged with the miss's completion,
// or MSHRFull when its target slots are exhausted.
func (m *MSHRFile) merge(lineAddr uint64) (res MSHRResult, ready int64, found bool) {
	s := m.find(lineAddr)
	if s == nil {
		return 0, 0, false
	}
	if s.targets >= m.targets {
		m.targetFail++
		return MSHRFull, 0, true
	}
	s.targets++
	m.secondary++
	return MSHRMerged, s.readyAt, true
}

// allocate takes the first free register for a primary miss on lineAddr
// completing at readyAt; the caller has ruled out an in-flight miss to
// the line.
func (m *MSHRFile) allocate(lineAddr uint64, readyAt int64) (MSHRResult, int64) {
	for i := range m.slots {
		if s := &m.slots[i]; !s.used {
			*s = mshrSlot{line: lineAddr, readyAt: readyAt, targets: 1, used: true}
			m.inFlight++
			if readyAt < m.minReady {
				m.minReady = readyAt
			}
			m.primary++
			return MSHRAllocated, readyAt
		}
	}
	m.allocFail++
	return MSHRFull, 0
}

// find returns lineAddr's occupied register, or nil when it has no
// in-flight miss.
func (m *MSHRFile) find(lineAddr uint64) *mshrSlot {
	if m.inFlight == 0 {
		return nil
	}
	for i := range m.slots {
		if s := &m.slots[i]; s.used && s.line == lineAddr {
			return s
		}
	}
	return nil
}

// Outstanding reports whether lineAddr has an in-flight miss and when it
// completes.
func (m *MSHRFile) Outstanding(lineAddr uint64) (int64, bool) {
	if s := m.find(lineAddr); s != nil {
		return s.readyAt, true
	}
	return 0, false
}

// Expire releases all registers whose miss completed at or before now. The
// hierarchy calls this once per cycle; the cached minimum makes the common
// no-fill cycle a single comparison instead of a register sweep.
func (m *MSHRFile) Expire(now int64) {
	if now < m.minReady {
		return
	}
	min := int64(math.MaxInt64)
	for i := range m.slots {
		s := &m.slots[i]
		if !s.used {
			continue
		}
		if s.readyAt <= now {
			s.used = false
			m.inFlight--
		} else if s.readyAt < min {
			min = s.readyAt
		}
	}
	m.minReady = min
}

// InFlight returns the number of occupied registers.
func (m *MSHRFile) InFlight() int { return m.inFlight }

// Clone returns a deep copy of the file, including in-flight misses.
func (m *MSHRFile) Clone() *MSHRFile {
	c := *m
	c.slots = append([]mshrSlot(nil), m.slots...)
	return &c
}

// NextReady returns the earliest completion strictly after now among the
// outstanding misses, or math.MaxInt64 when the file is idle. Entries with
// readyAt <= now have either been expired already or will be on the next
// BeginCycle, so they schedule no future event.
func (m *MSHRFile) NextReady(now int64) int64 {
	if m.minReady > now {
		return m.minReady
	}
	// Registers at or before now still occupy slots until the next
	// Expire; scan past them for the earliest genuinely-future fill.
	next := int64(math.MaxInt64)
	for i := range m.slots {
		if s := &m.slots[i]; s.used && s.readyAt > now && s.readyAt < next {
			next = s.readyAt
		}
	}
	return next
}

// addFails adds k repetitions of (allocFail, targetFail) deltas — the
// retries a per-cycle loop would have attempted during skipped idle cycles.
func (m *MSHRFile) addFails(alloc, target, k uint64) {
	m.allocFail += alloc * k
	m.targetFail += target * k
}

// Stats returns primary misses, secondary (merged) misses, allocation
// failures, and target-slot failures.
func (m *MSHRFile) Stats() (primary, secondary, allocFail, targetFail uint64) {
	return m.primary, m.secondary, m.allocFail, m.targetFail
}

// ResetStats zeroes the MSHR counters without touching in-flight state.
func (m *MSHRFile) ResetStats() {
	m.primary, m.secondary, m.allocFail, m.targetFail = 0, 0, 0, 0
}
