package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/fu"
	"repro/internal/isa"
	"repro/internal/rng"
	"repro/internal/trace"
)

// Engine simulates one machine configuration executing one workload.
type Engine struct {
	cfg  config.Machine
	gen  trace.Source
	pred *bpred.Combining
	btb  *bpred.BTB
	pool *fu.Pool
	// checkerPool is the checker's dedicated unit pool in DIVA mode
	// (nil when the checker shares the main pool, as in SHREC).
	checkerPool *fu.Pool
	mem         *cache.Hierarchy
	frng        *rng.RNG // fault injection stream

	now int64

	// w is the struct-of-arrays window holding every in-flight
	// instruction; all queues below store window slots.
	w window

	// Per-thread ROB views. robM and robR share the configured ROB
	// capacity; robR is unused outside SS2.
	robM, robR idxFifo
	// lsq holds correct-path M-thread memory operations from dispatch to
	// retirement; lsqStores counts its stores per granuleBucket.
	lsq       idxFifo
	lsqStores [1 << lsqBucketBits]uint16
	// pendingR holds decoded-but-undispatched R-thread copies (SS2 with
	// stagger). Its length is the current dispatch stagger.
	pendingR idxFifo

	// rename state: last writer of each architectural register, per thread.
	lastWriter [2][isa.NumArchRegs]ref

	// fetch state
	fetchSeq      uint64 // next correct-path sequence number
	fetchResumeAt int64
	lastFetchLine uint64
	haveFetchLine bool
	// fetchBuf is the one-deep decoupling buffer; fetchTmp is scratch
	// storage for the instruction currently moving through fetch, kept on
	// the engine so the hot loop never heap-allocates a fetch record.
	fetchBuf      fetchedInst
	fetchBufValid bool
	fetchTmp      fetchedInst
	replay        []isa.Inst // re-fetch queue after a soft exception
	wpBranch      int32      // unresolved mispredicted correct-path branch slot; -1 = none

	// Checker state: the number of check-issued but unretired entries
	// counted from the ROB head. The oldest unchecked entry is at robM
	// position checkCount. Retirement (which only retires checked
	// entries) decrements it; wrong-path squashes never remove
	// check-issued entries (the checker cannot pass an unresolved
	// branch), so squashes leave it unchanged. Multi-context SHREC claims
	// entries beyond the prefix too; advanceCheckPrefix re-establishes
	// the prefix meaning each cycle. SHREC, DIVA and FLEX share it through
	// checkerIssueCtx, and MEEK through its retirement log.
	checkCount int

	// MEEK checker state: the retirement-log FIFO the in-order lanes
	// consume (logical capacity config.MeekLogDepth), and each lane's
	// busy-until cycle. Both are empty/nil outside MEEK mode.
	meekLog  idxFifo
	meekBusy []int64

	// tickLoop disables the cycle-skipping fast path, the
	// store-forwarding memo and slot sleeping, forcing the reference
	// tick-by-tick loop with its plain issue scan, which visits every
	// operand-ready slot each cycle (see Option WithTickLoop). The
	// equivalence suite runs both loops and asserts identical results.
	tickLoop bool
	// progressed records whether the current cycle changed any
	// microarchitectural state beyond the clock: a fetch, dispatch, issue,
	// retirement, or squash. A cycle that did none of these is pure stall
	// time, and the step loop may fast-forward across the stall.
	progressed bool
	// skipped counts simulated cycles that were fast-forwarded rather
	// than executed (a host-cost diagnostic; it does not affect Stats).
	skipped int64
	// events is a min-heap of scheduled completion times (completeAt,
	// complete2At, checkedAt), pushed at issue. It may retain times of
	// squashed instructions; those only make the event horizon
	// conservative (an extra real cycle), never unsound. Unused (empty)
	// under WithTickLoop.
	events []int64
	// lsqNextFree is a lower bound on the next cycle at which the lazy
	// LSQ sweep could free an entry: the earliest completion among
	// issued resident loads, maintained by the sweep itself and at load
	// issue. While now precedes it, a full-LSQ dispatch stall skips the
	// sweep scan entirely. Unused under WithTickLoop.
	lsqNextFree int64

	// retireHook, when non-nil, observes every retiring program
	// instruction (test instrumentation for retired-stream oracles).
	retireHook func(isa.Inst)

	// faultHook, when non-nil, observes every detected fault at the moment
	// of detection (before the soft exception squashes the pipeline); a
	// true return requests that the current run stop with ErrHookStop so
	// the caller can intervene — the recovery runner uses this to roll
	// back to a checkpoint instead of letting the inline replay proceed.
	// nil for every engine outside a recovery run, so the hot path pays
	// one nil check per detection, never per cycle.
	faultHook func(seq uint64, injectAt, detectAt int64) bool
	// stopRequest is latched by a true faultHook return and consumed by
	// RunBudget at the end of the step.
	stopRequest bool

	// retireStop, when non-zero, caps retirement exactly at that total
	// retired count: the retire loop stops before committing instruction
	// retireStop+1 even with budget and completed work remaining. Chunked
	// runs (recovery's checkpoint cadence) need exact boundaries — a free
	// overshoot of up to RetireWidth-1 depends on retirement alignment,
	// which faults perturb, so overshooting chunks would make the ArchSig
	// fold sequence diverge between golden and trial runs.
	retireStop uint64

	// sigLimit bounds the ArchSig fold to the first sigLimit retirements
	// of the current run target (set by RunBudget). The final cycle of a
	// run may retire up to RetireWidth instructions past the target, and
	// how many depends on retirement alignment — which faults perturb —
	// so folding the overshoot would diverge signatures of runs whose
	// first n retirements are identical.
	sigLimit uint64

	stats Stats

	// faultSites counts the injection sites faultEligible accepted
	// (FaultSites). It stays out of Stats, so it never reaches a result.
	faultSites uint64
}

// Option customizes engine construction.
type Option func(*Engine)

// WithTickLoop selects the reference tick-by-tick simulation loop: every
// cycle is executed individually, with no event-horizon fast-forward and
// no store-forwarding memoization. The default loop is results-identical
// (the equivalence suite enforces byte-identical Stats and component
// counters) but skips provably-dead stall cycles; this option exists as
// the oracle for that suite and as an escape hatch for debugging the skip
// logic.
func WithTickLoop() Option {
	return func(e *Engine) { e.tickLoop = true }
}

// fetchedInst is an instruction fetched (and branch-predicted) but not yet
// dispatched, carried across cycles when dispatch stalls structurally.
type fetchedInst struct {
	inst      isa.Inst
	seq       uint64
	wrongPath bool

	predDone   bool
	mispredict bool
	predTaken  bool
	btbBubble  bool
}

// Stats aggregates the run's performance counters.
type Stats struct {
	Cycles  int64
	Retired uint64 // correct-path instructions retired (per program, not per copy)

	Fetched          uint64 // correct-path instructions fetched
	WrongPathFetched uint64

	CondBranches uint64
	Mispredicts  uint64
	BTBBubbles   uint64

	Squashes       uint64
	SoftExceptions uint64

	FaultsInjected    uint64
	FaultsDetected    uint64
	SilentCorruptions uint64
	// FaultDetectLatencySum accumulates cycles from injection to
	// detection over detected faults (divide by FaultsDetected).
	FaultDetectLatencySum uint64
	// FaultsSquashed counts injected faults whose instruction was
	// squashed by an unrelated soft exception before its own compare;
	// the replayed execution is clean, so these are not escapes.
	FaultsSquashed uint64

	IssuedM, IssuedR, IssuedChecker uint64
	LoadForwards                    uint64
	RetireStoreStalls               uint64

	// Occupancy accumulators (divide by Cycles for averages).
	ROBOccSum, ISQOccSum, LSQOccSum, StaggerSum uint64

	// MSHROccSum tracks outstanding data misses per cycle (MLP).
	MSHROccSum uint64

	// LoadIssueWaitSum accumulates dispatch-to-issue latency of M-thread
	// correct-path loads (with LoadCount), diagnosing whether addresses
	// arrive promptly.
	LoadIssueWaitSum uint64
	LoadCount        uint64

	// MEEK observables: retirement-log occupancy per cycle (divide by
	// Cycles), completion-to-verification lag over lane-checked
	// instructions (divide by IssuedChecker), and cycles the full log
	// blocked an otherwise-eligible check-issue (the backpressure path).
	MeekLogOccSum uint64
	MeekLagSum    uint64
	MeekLogStalls uint64

	// CheckerCtxSwitches counts multi-context SHREC scan resumptions past
	// an incomplete instruction — the stalls a spare context absorbed.
	CheckerCtxSwitches uint64

	// FLEX observables: retirements inside checking-enabled regions, and
	// injected faults that landed in checking-disabled regions (campaigns
	// subtract these trials from conditional-coverage accounting).
	FlexOnRetired           uint64
	FaultsInjectedUnchecked uint64

	// ArchSig is a running hash of the architectural effects committed at
	// retirement: each retired program instruction folds its opcode,
	// destination register, memory address, and whether its result was
	// corrupted by an injected fault. Two runs that retire the same
	// instruction stream with the same (un)corrupted results have equal
	// signatures, so comparing a fault-injected run's signature against a
	// fault-free golden run detects silent data corruption end to end —
	// independently of the inline SilentCorruptions counter.
	ArchSig uint64
}

// AvgMeekLag returns the mean completion-to-verification lag of MEEK
// lane-checked instructions.
func (s Stats) AvgMeekLag() float64 {
	if s.IssuedChecker == 0 {
		return 0
	}
	return float64(s.MeekLagSum) / float64(s.IssuedChecker)
}

// AvgMeekLogOcc returns the mean MEEK retirement-log occupancy.
func (s Stats) AvgMeekLogOcc() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.MeekLogOccSum) / float64(s.Cycles)
}

// IPC returns retired instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Retired) / float64(s.Cycles)
}

// CPI returns cycles per retired instruction.
func (s Stats) CPI() float64 {
	if s.Retired == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Retired)
}

// MispredictRate returns mispredictions per conditional branch.
func (s Stats) MispredictRate() float64 {
	if s.CondBranches == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.CondBranches)
}

// AvgROBOcc returns the mean ROB occupancy.
func (s Stats) AvgROBOcc() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.ROBOccSum) / float64(s.Cycles)
}

// AvgFaultDetectLatency returns the mean injection-to-detection latency
// in cycles over detected faults.
func (s Stats) AvgFaultDetectLatency() float64 {
	if s.FaultsDetected == 0 {
		return 0
	}
	return float64(s.FaultDetectLatencySum) / float64(s.FaultsDetected)
}

// AvgStagger returns the mean dispatch stagger (SS2).
func (s Stats) AvgStagger() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.StaggerSum) / float64(s.Cycles)
}

// windowSlack is the window's capacity margin over ROBSize. Live slots
// (robM + robR + pendingR occupants) never exceed the ROB capacity — the
// dispatch guards enforce that — so any positive slack suffices; a few
// spare slots keep the invariant failure mode a panic instead of silent
// corruption.
const windowSlack = 8

// New builds an engine for machine m consuming instructions from source g
// (a synthetic trace.Generator or a replayed trace.Recording).
func New(m config.Machine, g trace.Source, opts ...Option) *Engine {
	if err := m.Validate(); err != nil {
		panic("core: " + err.Error())
	}
	capacity := m.ROBSize + windowSlack
	e := &Engine{
		cfg:      m,
		gen:      g,
		pred:     bpred.NewCombining(m.Bpred),
		btb:      bpred.NewBTB(m.Bpred.BTBSets, m.Bpred.BTBWays),
		pool:     fu.NewPool(m.FU),
		mem:      cache.NewHierarchy(m.Mem),
		frng:     faultRNG(m.FaultSeed),
		w:        newWindow(capacity),
		robM:     newIdxFifo(capacity),
		robR:     newIdxFifo(capacity),
		lsq:      newIdxFifo(capacity),
		pendingR: newIdxFifo(capacity),
		wpBranch: -1,
		events:   make([]int64, 0, 4*capacity),
	}
	for t := range e.lastWriter {
		for r := range e.lastWriter[t] {
			e.lastWriter[t][r] = noRef
		}
	}
	if m.CheckerDedicatedFU {
		e.checkerPool = fu.NewPool(m.FU)
	}
	if m.Mode == config.ModeMEEK {
		e.meekLog = newIdxFifo(capacity)
		e.meekBusy = make([]int64, m.CheckerLanes)
	}
	for _, opt := range opts {
		opt(e)
	}
	e.w.sleeps = !e.tickLoop
	return e
}

// lsqBucketBits sizes lsqStores: 1<<lsqBucketBits buckets.
const lsqBucketBits = 10

// granuleBucket hashes an address's 8-byte granule, the unit of
// store-to-load forwarding, to an lsqStores bucket.
func granuleBucket(addr uint64) uint32 {
	return uint32((addr >> 3) * 0x9e3779b97f4a7c15 >> (64 - lsqBucketBits))
}

// Config returns the engine's machine configuration.
func (e *Engine) Config() config.Machine { return e.cfg }

// Mem exposes the memory hierarchy for statistics.
func (e *Engine) Mem() *cache.Hierarchy { return e.mem }

// Pool exposes the functional unit pool for statistics.
func (e *Engine) Pool() *fu.Pool { return e.pool }

// Pred exposes the direction predictor for statistics.
func (e *Engine) Pred() *bpred.Combining { return e.pred }

// Stats returns the counters accumulated so far.
func (e *Engine) Stats() Stats { return e.stats }

// ResetStats zeroes the performance counters while keeping all
// microarchitectural state (caches, predictors, in-flight instructions)
// warm. Call it after a warmup run so measurements exclude cold-start
// effects, mirroring the paper's use of SimPoint regions from mid-execution.
func (e *Engine) ResetStats() {
	e.stats = Stats{}
	e.mem.ResetStats()
	e.pool.ResetStats()
}

// WarmupContext runs n instructions (RunBudget without a cycle budget)
// and then resets the counters.
func (e *Engine) WarmupContext(ctx context.Context, n uint64) error {
	if _, err := e.RunBudget(ctx, n, 0); err != nil {
		return err
	}
	e.ResetStats()
	return nil
}

// ctxCheckInterval is how many cycles run between cancellation
// checkpoints. Large enough that the ctx poll is invisible in the hot
// loop, small enough that cancellation lands within microseconds.
const ctxCheckInterval = 4096

// ErrHookStop reports that a run stopped because the engine's fault hook
// (SetFaultHook) requested it on a detected fault. The engine state is the
// post-detection state — the soft exception already squashed the pipeline —
// and the accumulated stats are returned alongside, so the caller may roll
// back to a checkpoint or resume the run as it sees fit.
var ErrHookStop = errors.New("fault hook requested stop")

// SetFaultHook installs (or, with nil, removes) the detected-fault
// observer. The hook runs at detection time with the faulting
// instruction's fetch sequence number, its injection cycle, and the
// detection cycle (both on the engine's absolute clock); returning true
// stops the current RunBudget/RunExact call with ErrHookStop after the
// detection's soft exception completes.
func (e *Engine) SetFaultHook(hook func(seq uint64, injectAt, detectAt int64) bool) {
	e.faultHook = hook
	e.stopRequest = false
}

// ErrCycleBudget reports that a budgeted run (RunBudget) exhausted its
// cycle allowance before retiring the requested instructions. Fault
// campaigns use it as the hang watchdog: a trial whose recovery storm
// blows past a multiple of the fault-free run's cycle count is classified
// as hung rather than simulated indefinitely.
var ErrCycleBudget = errors.New("cycle budget exhausted")

// RunBudget simulates until n correct-path instructions have retired and
// returns the statistics. It returns an error if the pipeline deadlocks
// (no retirement progress for a long stretch), which indicates a model
// bug. Every few thousand simulated cycles the step loop polls ctx, so a
// run driven by a server request or a deadline stops promptly when the
// caller goes away; the engine halts between cycles, and the accumulated
// stats are returned with the context error.
//
// With maxCycles > 0 the run also has a hang watchdog: if Stats.Cycles
// (cycles since the last ResetStats) exceeds the budget before n
// instructions retire, the run stops with an error wrapping
// ErrCycleBudget and the stats accumulated so far. The budget is checked
// after every step, so a fast-forward may overshoot it by one skip span.
func (e *Engine) RunBudget(ctx context.Context, n uint64, maxCycles int64) (Stats, error) {
	const stallLimit = 1_000_000
	e.sigLimit = n
	lastRetired := e.stats.Retired
	lastProgress := e.now
	nextCheck := e.now + ctxCheckInterval
	for e.stats.Retired < n {
		e.step()
		if e.stopRequest {
			e.stopRequest = false
			return e.stats, ErrHookStop
		}
		// The budget only fires on an unfinished run: the step that
		// retires the n-th instruction may legitimately carry Cycles past
		// the budget, and that run completed.
		if maxCycles > 0 && e.stats.Cycles > maxCycles && e.stats.Retired < n {
			return e.stats, fmt.Errorf("core: %s retired %d of %d within %d cycles: %w",
				e.cfg.Name, e.stats.Retired, n, maxCycles, ErrCycleBudget)
		}
		if e.stats.Retired != lastRetired {
			lastRetired = e.stats.Retired
			lastProgress = e.now
		} else if e.now-lastProgress > stallLimit {
			if maxCycles > 0 {
				// Under an active hang budget a retirement-free stretch this
				// long IS the hang the watchdog exists to classify — at
				// large budgets (> stallLimit) a fault-induced livelock
				// would otherwise surface as a deadlock error and abort the
				// whole campaign instead of scoring one hung trial.
				return e.stats, fmt.Errorf("core: %s made no retirement progress for %d cycles (budget %d): %w",
					e.cfg.Name, stallLimit, maxCycles, ErrCycleBudget)
			}
			return e.stats, fmt.Errorf("core: %s deadlocked at cycle %d (retired %d of %d)",
				e.cfg.Name, e.now, e.stats.Retired, n)
		}
		if e.now >= nextCheck {
			nextCheck = e.now + ctxCheckInterval
			if err := ctx.Err(); err != nil {
				return e.stats, fmt.Errorf("core: %s interrupted at cycle %d: %w",
					e.cfg.Name, e.now, err)
			}
		}
	}
	return e.stats, nil
}

// RunExact is RunBudget with an exact retirement boundary: the run stops
// having retired exactly n instructions in total (since the last
// ResetStats), never overshooting into the free retirement slots of the
// final cycle. Chunked execution — recovery running checkpoint interval by
// checkpoint interval — needs exact boundaries so the retired instruction
// stream (and therefore the ArchSig fold) is identical to one contiguous
// run's; a plain RunBudget chunk would overshoot by an alignment-dependent
// amount that faults perturb.
func (e *Engine) RunExact(ctx context.Context, n uint64, maxCycles int64) (Stats, error) {
	e.retireStop = n
	stats, err := e.RunBudget(ctx, n, maxCycles)
	e.retireStop = 0
	return stats, err
}

// cycle advances the machine by one clock.
func (e *Engine) cycle() {
	e.now++
	e.stats.Cycles++
	e.progressed = false
	e.pool.BeginCycle(e.now)
	e.mem.BeginCycle(e.now)

	e.resolveBranch()
	e.retire()
	e.dispatch()
	e.issue()

	// Occupancy accounting.
	e.stats.ROBOccSum += uint64(e.robM.len() + e.robR.len())
	e.stats.ISQOccSum += uint64(e.w.isqCount[ThreadM] + e.w.isqCount[ThreadR])
	e.stats.LSQOccSum += uint64(e.lsq.len())
	e.stats.StaggerSum += uint64(e.pendingR.len())
	e.stats.MSHROccSum += uint64(e.mem.MSHR().InFlight())
	e.stats.MeekLogOccSum += uint64(e.meekLog.len())
}

// step advances the machine by at least one clock: one real cycle, plus —
// when that cycle was pure stall time — an analytic fast-forward across
// every following cycle that provably cannot change state either.
//
// The skip is exact, not approximate. A stalled cycle's behavior is a
// pure function of time and static machine state: every gate that could
// open does so at a completion time already scheduled somewhere — an
// in-flight instruction's completeAt/complete2At/checkedAt, a divider's
// busy-until, an MSHR fill, or the fetch-redirect timer — and nextEventAt
// takes the minimum over all of them. Until that horizon the reference
// loop would re-run byte-identical stall cycles, each adding the same
// occupancy sums and the same structural-hazard retry counts; the fast
// path adds those analytically (see fastForward) and resumes real
// execution on the horizon cycle.
func (e *Engine) step() {
	e.cycle()
	if e.progressed || e.tickLoop {
		return
	}
	e.fastForward()
}

// fastForward implements the skip after a stalled cycle. The first
// stalled cycle of an episode can still move timing state (a retried
// store's first attempt may fill the L2 and reserve the bus), so the
// steady-state per-cycle counter movement is measured over a second real
// stall cycle and only then replayed across the remaining span.
func (e *Engine) fastForward() {
	horizon := e.nextEventAt()
	if horizon == notDone || horizon <= e.now+1 {
		// No scheduled event (a deadlocked model steps cycle-by-cycle into
		// RunBudget's stall detector) or the event is next cycle anyway.
		return
	}

	// Measure one steady-state stall cycle: the retry attempts it makes
	// against busy resources move only diagnostic counters, never timing
	// state, and repeat identically until the horizon.
	retireStallsBefore := e.stats.RetireStoreStalls
	meekStallsBefore := e.stats.MeekLogStalls
	ctxSwitchesBefore := e.stats.CheckerCtxSwitches
	poolBefore := e.pool.Refused()
	var checkerBefore [fu.NumClasses]uint64
	if e.checkerPool != nil {
		checkerBefore = e.checkerPool.Refused()
	}
	memBefore := e.mem.AttemptCounters()

	e.cycle()
	if e.progressed {
		return
	}
	skip := horizon - 1 - e.now
	if skip <= 0 {
		return
	}
	k := uint64(skip)

	// Engine stats advance exactly as k more stalled cycles would:
	// occupancy is frozen (nothing enters or leaves any structure, and no
	// MSHR expires before the horizon), and the per-cycle retry counters
	// repeat the measured cycle's movement.
	e.stats.Cycles += skip
	e.stats.RetireStoreStalls += k * (e.stats.RetireStoreStalls - retireStallsBefore)
	e.stats.MeekLogStalls += k * (e.stats.MeekLogStalls - meekStallsBefore)
	e.stats.CheckerCtxSwitches += k * (e.stats.CheckerCtxSwitches - ctxSwitchesBefore)
	e.stats.ROBOccSum += k * uint64(e.robM.len()+e.robR.len())
	e.stats.ISQOccSum += k * uint64(e.w.isqCount[ThreadM]+e.w.isqCount[ThreadR])
	e.stats.LSQOccSum += k * uint64(e.lsq.len())
	e.stats.StaggerSum += k * uint64(e.pendingR.len())
	e.stats.MSHROccSum += k * uint64(e.mem.MSHR().InFlight())
	e.stats.MeekLogOccSum += k * uint64(e.meekLog.len())

	poolAfter := e.pool.Refused()
	for c := range poolAfter {
		poolAfter[c] -= poolBefore[c]
	}
	e.pool.AddRefused(poolAfter, k)
	if e.checkerPool != nil {
		checkerAfter := e.checkerPool.Refused()
		for c := range checkerAfter {
			checkerAfter[c] -= checkerBefore[c]
		}
		e.checkerPool.AddRefused(checkerAfter, k)
	}
	e.mem.AddAttempts(e.mem.AttemptCounters().Sub(memBefore), k)

	e.now += skip
	e.skipped += skip
}

// SkippedCycles reports how many simulated cycles the fast-forward loop
// skipped instead of executing — a host-performance diagnostic (always
// zero under WithTickLoop).
func (e *Engine) SkippedCycles() int64 { return e.skipped }

// schedule records a future completion time in the event heap. Every
// time the machine schedules work — an execution result (which is also
// the release time of any unpipelined unit it holds), a second O3RS
// execution, or a checker verification — flows through here, so the heap
// plus the fetch timer and the MSHR file cover every gate the pipeline
// can wait on.
func (e *Engine) schedule(t int64) {
	// Next-cycle completions can never form a skip horizon: a stalled
	// cycle is always later than the issue cycle, so by the first cycle
	// that could consult them they are already past due. Filtering them
	// here keeps the heap to the long-latency minority (cache misses,
	// divides, FP ops).
	if t <= e.now+1 || e.tickLoop {
		return
	}
	// Retire up to two past-due entries per push so stall-free execution
	// phases (which never reach nextScheduled) cannot grow the heap
	// without bound: draining at twice the push rate keeps the stale
	// population shrinking whenever any exists.
	for i := 0; i < 2 && len(e.events) > 0 && e.events[0] <= e.now; i++ {
		e.popEvent()
	}
	h := append(e.events, t)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	e.events = h
}

// popEvent removes the heap minimum.
func (e *Engine) popEvent() {
	h := e.events
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && h[r] < h[l] {
			l = r
		}
		if h[i] <= h[l] {
			break
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
	e.events = h
}

// nextScheduled pops past-due times and returns the earliest future one,
// or notDone when none is pending.
func (e *Engine) nextScheduled() int64 {
	for len(e.events) > 0 && e.events[0] <= e.now {
		e.popEvent()
	}
	if len(e.events) == 0 {
		return notDone
	}
	return e.events[0]
}

// nextEventAt returns the earliest cycle strictly after now at which any
// scheduled event lands — the event horizon. Between a stalled cycle and
// this horizon no gate in the machine can open: operand readiness, LVQ
// and store-forwarding availability, checker completion, retirement
// eligibility, LSQ/ROB/ISQ drain, MSHR release, unpipelined-unit release,
// and fetch resumption are all driven by the event heap, the
// fetch-redirect timer, and the earliest outstanding MSHR fill. Returns
// notDone when nothing is scheduled.
func (e *Engine) nextEventAt() int64 {
	h := e.nextScheduled()
	if t := e.fetchResumeAt; t > e.now && t < h {
		h = t
	}
	if t := e.mem.NextEvent(e.now); t < h {
		h = t
	}
	// Unpipelined-unit releases are already in the heap (TryIssue's
	// completion time is the release time), but consult the pools
	// directly too so the horizon stays sound if that coupling ever
	// changes.
	if t := e.pool.NextCompletion(e.now); t < h {
		h = t
	}
	if e.checkerPool != nil {
		if t := e.checkerPool.NextCompletion(e.now); t < h {
			h = t
		}
	}
	return h
}

// resolveBranch squashes the wrong path once the active mispredicted branch
// executes, and schedules the fetch redirect.
func (e *Engine) resolveBranch() {
	br := e.wpBranch
	if br < 0 || !e.w.completed(br, e.now) {
		return
	}
	e.wpBranch = -1
	e.progressed = true
	resume := e.w.completeAt[br] + int64(e.cfg.Bpred.MispredictPenalty)
	e.squashWrongPath()
	if resume < e.now {
		resume = e.now
	}
	if resume > e.fetchResumeAt {
		e.fetchResumeAt = resume
	}
	e.haveFetchLine = false
	e.stats.Squashes++
}

// squashWrongPath removes every wrong-path instruction from the pipeline
// and rolls back rename state. Wrong-path instructions are a contiguous
// young suffix of the window ring (everything allocated after the
// mispredicted branch), so the window rewinds its tail; the queues drop
// matching slots in place.
func (e *Engine) squashWrongPath() {
	w := &e.w
	// Roll back rename state youngest-first so lastWriter ends up at the
	// youngest surviving writer. Only robM/robR entries renamed (pendingR
	// copies have not, and never touch lastWriter).
	rollback := func(q *idxFifo) {
		for i := q.len() - 1; i >= 0; i-- {
			s := q.at(i)
			if w.flags[s]&fWrongPath == 0 {
				break
			}
			if dst := w.inst[s].Dest; dst != isa.RegNone {
				e.lastWriter[w.thread(s)][dst] = w.prevWriter[s]
			}
		}
	}
	rollback(&e.robM)
	rollback(&e.robR)

	// The LSQ holds no wrong-path entries: dispatchInst never enters them.
	wp := func(s int32) bool { return w.flags[s]&fWrongPath != 0 }
	e.robM.removeIf(wp, nil)
	e.robR.removeIf(wp, nil)
	e.pendingR.removeIf(wp, nil)
	w.rewindWrongPath()
	if e.fetchBufValid && e.fetchBuf.wrongPath {
		e.fetchBufValid = false
	}
}

// softException squashes the entire pipeline after a detected fault and
// replays from the faulting instruction. All in-flight correct-path
// M-thread instructions (including the faulty one) are queued for re-fetch.
func (e *Engine) softException() {
	e.stats.SoftExceptions++
	e.progressed = true
	w := &e.w

	// Capture correct-path instructions in program order for replay,
	// accounting in-flight faults that this squash wipes (their replays
	// execute cleanly). The capture must go in FRONT of any entries still
	// queued from a previous soft exception: in-flight ROB instructions
	// (and the fetch buffer) are strictly older than a replay remnant,
	// which has not dispatched yet — appending would scramble program
	// order whenever a second fault is detected mid-replay.
	captured := make([]isa.Inst, 0, e.robM.len()+1+len(e.replay))
	for i := 0; i < e.robM.len(); i++ {
		s := e.robM.at(i)
		if w.flags[s]&fWrongPath == 0 {
			captured = append(captured, w.inst[s])
		}
		if w.flags[s]&(fFaulty|fFaulty2) != 0 {
			e.stats.FaultsSquashed++
		}
	}
	for i := 0; i < e.robR.len(); i++ {
		if s := e.robR.at(i); w.flags[s]&(fFaulty|fFaulty2) != 0 {
			e.stats.FaultsSquashed++
		}
	}
	if e.fetchBufValid && !e.fetchBuf.wrongPath {
		captured = append(captured, e.fetchBuf.inst)
	}
	e.fetchBufValid = false
	e.replay = append(captured, e.replay...)

	e.robM.clear(nil)
	e.robR.clear(nil)
	e.pendingR.clear(nil)
	e.lsq.clear(nil)
	clear(e.lsqStores[:])
	e.meekLog.clear(nil)
	w.reset()
	e.checkCount = 0
	e.wpBranch = -1
	for t := range e.lastWriter {
		for r := range e.lastWriter[t] {
			e.lastWriter[t][r] = noRef
		}
	}
	e.fetchResumeAt = e.now + int64(e.cfg.Bpred.MispredictPenalty)
	e.haveFetchLine = false
	e.lsqNextFree = 0
}
