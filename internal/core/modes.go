package core

import (
	"repro/internal/config"
	"repro/internal/isa"
)

// This file holds what the modern detection modes add to the shared
// issue and retire stages: MEEK's checker lanes (config.ModeMEEK) and
// FLEX's region policy (config.ModeFLEX). Both retire through
// retireHead, and FLEX check-issues through the one checker scan in
// issue.go, as SHREC with hardware contexts does.

// meekCheck runs MEEK's heterogeneous checker machinery for one cycle.
// Completed M-stream instructions enter a retirement-log FIFO in program
// order; each of the CheckerLanes narrow in-order lanes consumes the log
// head when free. The lanes never touch the main pipeline's issue slots
// or functional units — the only coupling back into the OoO core is
// backpressure: a full log blocks further check-issue, which blocks
// retirement (retireHead requires verification), which fills the ROB.
func (e *Engine) meekCheck() {
	w := &e.w
	// Enqueue stage: move the completed, in-order ROB prefix into the log.
	// Stopping at the first incomplete entry keeps wrong-path work out —
	// any wrong-path suffix sits behind its unresolved (incomplete)
	// mispredicted branch, and resolveBranch squashes it before issue the
	// cycle that branch completes.
	for e.checkCount < e.robM.len() {
		s := e.robM.at(e.checkCount)
		if !w.completed(s, e.now) {
			break
		}
		if e.meekLog.len() >= config.MeekLogDepth {
			e.stats.MeekLogStalls++
			break
		}
		w.flags[s] |= fCheckIssued
		e.meekLog.push(s)
		e.checkCount++
		e.progressed = true
	}
	// Lane stage: each free lane verifies the oldest logged instruction.
	for l := range e.meekBusy {
		if e.meekBusy[l] > e.now || e.meekLog.empty() {
			continue
		}
		s := e.meekLog.pop()
		done := e.now + meekCheckLatency(w.inst[s].Class)
		e.meekBusy[l] = done
		w.checkedAt[s] = done
		e.schedule(done)
		e.progressed = true
		e.stats.IssuedChecker++
		e.stats.MeekLagSum += uint64(done - w.completeAt[s])
	}
}

// meekCheckLatency is a checker lane's verification latency per
// operation class. The lanes are minimal in-order cores: single-cycle
// simple ops, modestly slower complex arithmetic (they carry no wide
// multiplier or FP pipeline), and single-cycle memory checks (the value
// is compared against the logged result; only address generation is
// redone).
func meekCheckLatency(c isa.OpClass) int64 {
	switch c {
	case isa.OpIMul:
		return 3
	case isa.OpIDiv:
		return 8
	case isa.OpFAdd, isa.OpFMul:
		return 4
	case isa.OpFDiv:
		return 12
	default:
		return 1
	}
}

// flexOn reports whether checking is enabled for the instruction with
// the given fetch sequence number under the machine's region policy.
func (e *Engine) flexOn(seq uint64) bool {
	return seq%e.cfg.FlexPeriod < e.cfg.FlexOn
}
