package core

import (
	"repro/internal/config"
	"repro/internal/isa"
)

// issue selects ready instructions from the issue queue(s) in age order, up
// to the configured issue width, gated by functional unit and memory-system
// availability. Priority rules follow the paper:
//
//   - SS1/SHREC: a single M-thread queue; in SHREC the in-order checker
//     gets whatever issue slots and functional units remain.
//   - SS2 lockstep (no stagger): the two threads compete fairly — entries
//     are considered in global age order, interleaving the pairs.
//   - SS2 with stagger: static priority to the M-thread; the R-thread uses
//     the slack.
//
// Candidate selection is bitmap driven: the scan walks (isq AND ready)
// words in ring age order, so entries with unissued producers cost nothing
// until their last producer's issue-time broadcast arms them, and armed
// entries cost nothing until wake moves them into ready at readyAt.
func (e *Engine) issue() {
	e.w.wake(e.now)
	budget := e.cfg.IssueWidth
	switch e.cfg.Mode {
	case config.ModeSS2:
		if e.cfg.MaxStagger > 0 {
			e.issueFrom(ThreadM, &budget, &e.stats.IssuedM)
			e.issueFrom(ThreadR, &budget, &e.stats.IssuedR)
		} else {
			e.issueMerged(&budget)
		}
	case config.ModeSHREC, config.ModeFLEX:
		e.issueFrom(ThreadM, &budget, &e.stats.IssuedM)
		e.checkerIssueCtx(&budget)
	case config.ModeMEEK:
		e.issueFrom(ThreadM, &budget, &e.stats.IssuedM)
		e.meekCheck()
	case config.ModeO3RS:
		e.issueO3RS(&budget)
	default:
		e.issueFrom(ThreadM, &budget, &e.stats.IssuedM)
	}
}

// issueO3RS implements double execution from shared ISQ entries: an entry
// issues its first execution like SS1 and stays resident; the second
// execution (re-reading the same operands, loads re-checking against the
// LVQ) may issue from the same cycle onward, and only then is the entry
// released. Both executions consume issue slots and functional units.
func (e *Engine) issueO3RS(budget *int) {
	w := &e.w
	if *budget == 0 || w.isqCount[ThreadM] == 0 {
		return
	}
	w.forEachCandidate(w.isq[ThreadM], nil, func(s int32) bool {
		if w.flags[s]&fIssued == 0 {
			if e.tryIssueOne(s) {
				e.stats.IssuedM++
				*budget--
			}
		}
		if w.flags[s]&(fIssued|fIssued2) == fIssued && *budget > 0 {
			if e.tryIssueSecond(s) {
				e.stats.IssuedR++
				*budget--
			}
		}
		if w.flags[s]&(fIssued|fIssued2) == fIssued|fIssued2 {
			w.clearISQ(ThreadM, s) // release the entry
		}
		return *budget > 0
	})
}

// tryIssueSecond attempts the O3RS re-execution of an already-issued
// instruction.
func (e *Engine) tryIssueSecond(s int32) bool {
	w := &e.w
	op := w.inst[s].Class
	if w.inst[s].IsLoad() {
		// The re-execution verifies address generation and compares the
		// LVQ value, which requires the first access to have completed.
		if !w.completed(s, e.now) {
			return false
		}
		op = isa.OpLoad // address generation slot, no cache access
	}
	done, ok := e.pool.TryIssue(e.now, op)
	if !ok {
		return false
	}
	w.flags[s] |= fIssued2
	w.complete2At[s] = done
	e.schedule(done)
	e.progressed = true
	if e.faultEligible(s) && e.frng.Bool(e.cfg.FaultRate) {
		if w.flags[s]&fFaulty == 0 {
			w.faultAt[s] = e.now
		}
		w.flags[s] |= fFaulty2
		e.stats.FaultsInjected++
	}
	return true
}

// issueFrom scans one thread's issue queue in age order, issuing every
// ready entry until the budget runs out. Issued entries leave the queue
// mask.
func (e *Engine) issueFrom(t Thread, budget *int, counter *uint64) {
	w := &e.w
	if *budget == 0 || w.isqCount[t] == 0 {
		return
	}
	w.forEachCandidate(w.isq[t], nil, func(s int32) bool {
		if e.tryIssueOne(s) {
			*counter++
			*budget--
			w.clearISQ(t, s)
		}
		return *budget > 0
	})
}

// issueMerged considers both thread queues in global (seq, thread) age
// order — fair competition between the lockstep threads. Each queue is
// walked as a stream in dispatch order and the streams merge by comparing
// head seqs, M winning ties. The comparison is between stream HEADS, not a
// global sort: wrong-path entries carry seq 0, so once the older M entries
// ahead of one drain, it outranks every resident correct-path R copy.
func (e *Engine) issueMerged(budget *int) {
	w := &e.w
	if *budget == 0 || w.isqCount[ThreadM]+w.isqCount[ThreadR] == 0 {
		return
	}
	mc := w.newMaskCursor(w.isq[ThreadM])
	rc := w.newMaskCursor(w.isq[ThreadR])
	m, r := mc.next(), rc.next()
	for (m >= 0 || r >= 0) && *budget > 0 {
		takeM := r < 0 || (m >= 0 && w.seq[m] <= w.seq[r])
		if takeM {
			s := m
			m = mc.next()
			if w.ready[s>>6]&(1<<(uint(s)&63)) != 0 && e.tryIssueOne(s) {
				e.stats.IssuedM++
				*budget--
				w.clearISQ(ThreadM, s)
			}
		} else {
			s := r
			r = rc.next()
			if w.ready[s>>6]&(1<<(uint(s)&63)) != 0 && e.tryIssueOne(s) {
				e.stats.IssuedR++
				*budget--
				w.clearISQ(ThreadR, s)
			}
		}
	}
}

// tryIssueOne attempts to issue one instruction, returning true on success.
// On success the instruction's completion time is scheduled, fault
// injection is applied, and dependent consumers are woken by broadcast.
func (e *Engine) tryIssueOne(s int32) bool {
	w := &e.w
	// Readiness gates. The candidate scan already filters on the ready
	// mask, which outside the tick loop admits only entries with readyAt
	// reached; readyAt covers the one-cycle dispatch-to-issue delay and
	// producers that have issued but not yet completed. The waitCnt check
	// guards against a dynamic producer registered mid-scan.
	if w.waitCnt[s] != 0 || w.readyAt[s] > e.now {
		return false
	}

	in := &w.inst[s]
	var doneAt int64
	switch {
	case in.IsLoad() && w.flags[s]&fThread != 0:
		// SS2 R-thread load: no cache access; the value comes from the
		// load-value queue. The pair dependence registered at dispatch
		// guarantees the M copy's access has completed by now.
		done, ok := e.pool.TryIssue(e.now, isa.OpLoad)
		if !ok {
			return false
		}
		doneAt = done
	case in.IsLoad():
		var ok bool
		doneAt, ok = e.issueLoad(s)
		if !ok {
			return false
		}
	default:
		// Stores perform address generation at issue; data is committed
		// at retirement. Branches resolve on an IALU. FP/integer ops use
		// their unit class.
		done, ok := e.pool.TryIssue(e.now, in.Class)
		if !ok {
			return false
		}
		doneAt = done
	}

	w.flags[s] |= fIssued
	w.completeAt[s] = doneAt
	e.schedule(doneAt)
	if w.flags[s]&fInLSQ != 0 && doneAt < e.lsqNextFree && in.IsLoad() {
		e.lsqNextFree = doneAt
	}
	e.progressed = true
	if in.IsLoad() && w.flags[s]&(fThread|fWrongPath) == 0 {
		e.stats.LoadIssueWaitSum += uint64(e.now - w.dispatchedAt[s])
		e.stats.LoadCount++
	}
	e.injectFault(s)
	w.broadcast(s, doneAt)
	return true
}

// issueLoad handles M-thread (and wrong-path) loads: store-to-load
// forwarding from the LSQ when possible, otherwise a cache access gated by
// memory ports and MSHRs.
func (e *Engine) issueLoad(s int32) (int64, bool) {
	w := &e.w
	if w.flags[s]&fWrongPath == 0 {
		if st, found := e.forwardingStore(s); found {
			if !w.completed(st, e.now) {
				// The producing store has not generated its data yet. The
				// store cannot retire (and so cannot stop matching) before
				// it completes, so it is a dynamic producer of this load:
				// register it and sleep until its issue broadcast (or,
				// when already issued, until its completion time).
				if !e.tickLoop {
					w.clearReady(s)
					if w.flags[st]&fIssued != 0 {
						w.readyAt[s] = w.completeAt[st]
						w.arm(s)
					} else {
						w.waitCnt[s]++
						w.consumers[int(st)*int(w.words)+int(s>>6)] |= 1 << (uint(s) & 63)
					}
				}
				return 0, false
			}
			done, ok := e.pool.TryIssue(e.now, isa.OpLoad)
			if !ok {
				return 0, false
			}
			e.stats.LoadForwards++
			return done + 1, true // one extra cycle for the LSQ bypass
		}
	}
	// Cache path: require an address-generation unit and a memory port
	// before committing the access.
	if !e.pool.Available(e.now, isa.OpLoad) {
		return 0, false
	}
	ready, ok := e.mem.Load(e.now, w.inst[s].Addr)
	if !ok {
		return 0, false
	}
	if _, ok := e.pool.TryIssue(e.now, isa.OpLoad); !ok {
		// Unreachable: Available was checked above and nothing issued in
		// between.
		panic("core: functional unit vanished between Available and TryIssue")
	}
	return ready, true
}

// forwardingStore resolves the load's store-to-load forwarding source,
// memoizing the LSQ scan across retried issue attempts (the fFwdFromStore
// and fFwdNone flag bits).
func (e *Engine) forwardingStore(s int32) (int32, bool) {
	w := &e.w
	if e.tickLoop {
		return e.youngerMatchingStore(s)
	}
	switch {
	case w.flags[s]&fFwdFromStore != 0:
		st := w.fwdStore[s]
		if w.live(st) {
			return st.slot, true
		}
		// The source retired, which in-order retirement only permits
		// after every older store retired too: no match can remain.
		w.flags[s] = w.flags[s]&^fFwdFromStore | fFwdNone
		w.fwdStore[s] = noRef
		return -1, false
	case w.flags[s]&fFwdNone != 0:
		return -1, false
	}
	st, found := e.youngerMatchingStore(s)
	if found {
		w.flags[s] |= fFwdFromStore
		w.fwdStore[s] = ref{slot: st, gen: w.gen[st]}
	} else {
		w.flags[s] |= fFwdNone
	}
	return st, found
}

// youngerMatchingStore returns the youngest older store in the LSQ whose
// address granule matches the load's (perfect disambiguation from trace
// addresses, as in sim-outorder). An empty granule bucket in lsqStores
// proves there is none without the scan.
func (e *Engine) youngerMatchingStore(s int32) (int32, bool) {
	w := &e.w
	if e.lsqStores[granuleBucket(w.inst[s].Addr)] == 0 {
		return -1, false
	}
	granule := w.inst[s].Addr >> 3
	seq := w.seq[s]
	for i := e.lsq.len() - 1; i >= 0; i-- {
		st := e.lsq.at(i)
		if w.seq[st] >= seq || !w.inst[st].IsStore() {
			continue
		}
		if w.inst[st].Addr>>3 == granule {
			return st, true
		}
	}
	return -1, false
}

// checkerIssueCtx is the one in-order checker scan, shared by SHREC,
// DIVA, SHREC with hardware contexts, and FLEX. It walks the ROB from the
// first unclaimed instruction and re-executes completed ones, up to
// CheckerWindow per cycle, stopping at the first that cannot obtain a
// unit. In SHREC the checker competes for the main pipeline's leftover
// issue slots and functional units; in DIVA mode (CheckerDedicatedFU) it
// has its own units and issue bandwidth.
//
// The classic checker (Contexts 0 or 1) stops dead at the first
// incomplete instruction: head-of-line blocking behind every cache miss.
// With K = Contexts hardware contexts a spare context resumes the scan
// past it, up to K-1 switches per cycle. Total check-issue bandwidth is
// unchanged; contexts only hide stalls, exactly like SMT absorbing
// R-stream work. The scan span is bounded to CheckerWindow*K positions so
// a deep ROB cannot make the stage superlinear.
//
// FLEX instructions in checking-disabled regions pass through for free
// once completed: verified the cycle they are reached, with no issue
// slot, functional unit, window slot or scan position.
func (e *Engine) checkerIssueCtx(budget *int) {
	w := &e.w
	pool := e.pool
	if e.checkerPool != nil {
		// DIVA: a dedicated checker pipeline with its own issue
		// bandwidth, sized like the window.
		pool = e.checkerPool
		pool.BeginCycle(e.now)
		dedicated := e.cfg.CheckerWindow
		budget = &dedicated
	}
	flex := e.cfg.Mode == config.ModeFLEX
	contexts := max(e.cfg.Contexts, 1)
	e.advanceCheckPrefix()
	issued, switches := 0, 0
	limit := e.checkCount + e.cfg.CheckerWindow*contexts
	for i := e.checkCount; i < e.robM.len(); i++ {
		s := e.robM.at(i)
		if flex && w.flags[s]&(fCheckIssued|fWrongPath) == 0 && w.completed(s, e.now) && !e.flexOn(w.seq[s]) {
			w.flags[s] |= fCheckIssued
			w.checkedAt[s] = e.now
			e.progressed = true
			limit++
			continue
		}
		if i >= limit || issued >= e.cfg.CheckerWindow || *budget <= 0 {
			break
		}
		if w.flags[s]&fCheckIssued != 0 {
			continue // claimed by an earlier cycle; verification in flight
		}
		if w.flags[s]&fWrongPath != 0 {
			// Skipping incomplete entries can carry the walk past an
			// unresolved mispredicted branch into its wrong-path shadow;
			// never verify (or claim) that work.
			break
		}
		if !w.completed(s, e.now) {
			switches++
			if switches >= contexts {
				break
			}
			e.stats.CheckerCtxSwitches++
			continue
		}
		done, ok := pool.TryIssue(e.now, checkOp(w.inst[s].Class))
		if !ok {
			break
		}
		w.flags[s] |= fCheckIssued
		w.checkedAt[s] = done
		e.schedule(done)
		e.progressed = true
		*budget--
		issued++
		e.stats.IssuedChecker++
	}
	e.advanceCheckPrefix()
}

// advanceCheckPrefix extends checkCount over the contiguous check-issued
// prefix at the ROB head. Multi-context scans claim entries beyond the
// prefix; once the gap entries are claimed too, the prefix absorbs them,
// preserving the retire-time invariant that a retiring (check-issued)
// head is always counted inside the prefix.
func (e *Engine) advanceCheckPrefix() {
	w := &e.w
	for e.checkCount < e.robM.len() && w.flags[e.robM.at(e.checkCount)]&fCheckIssued != 0 {
		e.checkCount++
	}
}

// checkOp maps an instruction class to the operation the checker performs:
// memory operations re-verify address generation (the load value itself is
// compared against the result buffer), branches re-evaluate their
// condition, and computation re-executes on its own unit class.
func checkOp(c isa.OpClass) isa.OpClass {
	switch c {
	case isa.OpLoad, isa.OpStore, isa.OpBranch:
		return isa.OpIALU
	default:
		return c
	}
}

// injectFault corrupts the instruction's result with the configured
// probability. Faults are injected only on correct-path instructions (a
// wrong-path fault is architecturally invisible) inside the configured
// injection window.
func (e *Engine) injectFault(s int32) {
	if !e.faultEligible(s) {
		return
	}
	if e.frng.Bool(e.cfg.FaultRate) {
		e.w.flags[s] |= fFaulty
		e.w.faultAt[s] = e.now
		e.stats.FaultsInjected++
		if e.cfg.Mode == config.ModeFLEX && !e.flexOn(e.w.seq[s]) {
			e.stats.FaultsInjectedUnchecked++
		}
	}
}

// faultEligible reports whether the slot is a legal injection site:
// injection enabled, correct path, and fetch sequence number inside the
// machine's fault window. The window check precedes the rng draw, so a
// windowed machine consumes no fault-stream randomness outside its window
// — its pre-window execution is bit-identical to a fault-free machine's.
// Every site inside the window counts in faultSites; a rate-0 engine with
// an upper window bound counts its sites and reports none eligible, and a
// rate-0 engine without one returns at the first check.
func (e *Engine) faultEligible(s int32) bool {
	w := &e.w
	if e.cfg.FaultRate <= 0 && e.cfg.FaultWindowHi == 0 || w.flags[s]&fWrongPath != 0 {
		return false
	}
	// The bounds apply independently: lo alone gives a half-open window
	// [lo, ∞) — recovery's re-injection guard bumps lo past a rolled-back
	// fault even on machines with no upper bound configured.
	if w.seq[s] < e.cfg.FaultWindowLo {
		return false
	}
	if hi := e.cfg.FaultWindowHi; hi > 0 && w.seq[s] >= hi {
		return false
	}
	e.faultSites++
	return e.cfg.FaultRate > 0
}
