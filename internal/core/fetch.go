package core

import (
	"repro/internal/config"
	"repro/internal/isa"
)

// dispatch runs the front end for one cycle: fetch (with branch prediction
// and I-cache timing), decode, rename, and allocation of ISQ/ROB/LSQ
// entries. In SS2 mode it also handles duplication into the R-thread,
// either in lockstep (both copies the same cycle) or through the pendingR
// stagger queue with leftover decode slots.
func (e *Engine) dispatch() {
	budget := e.cfg.DecodeWidth
	switch e.cfg.Mode {
	case config.ModeSS2:
		if e.cfg.MaxStagger == 0 {
			e.dispatchLockstep(&budget)
			return
		}
		e.dispatchM(&budget)
		e.dispatchR(&budget)
	default:
		e.dispatchM(&budget)
	}
}

// robFree returns the number of unallocated ROB entries (shared by both
// thread views).
func (e *Engine) robFree() int {
	return e.cfg.ROBSize - e.robM.len() - e.robR.len()
}

// isqFree returns the number of unallocated ISQ entries.
func (e *Engine) isqFree() int {
	return e.cfg.ISQSize - e.w.isqCount[ThreadM] - e.w.isqCount[ThreadR]
}

// lsqSpace reports whether a memory operation can allocate an LSQ entry,
// lazily releasing completed loads first. Loads hold their entry only until
// completion (the load queue is freed once the value returns); stores hold
// theirs until retirement, since they commit to the cache in order.
func (e *Engine) lsqSpace() bool {
	if e.lsq.len() < e.cfg.LSQSize {
		return true
	}
	// The sweep can only free a load once its access completes; until the
	// earliest completion among resident loads the scan is provably
	// fruitless (the bound is maintained here and at load issue).
	if !e.tickLoop && e.now < e.lsqNextFree {
		return false
	}
	w := &e.w
	now := e.now
	next := notDone
	e.lsq.removeIf(func(s int32) bool {
		if w.inst[s].IsLoad() {
			if w.completed(s, now) {
				w.flags[s] &^= fInLSQ
				return true
			}
			if w.flags[s]&fIssued != 0 && w.completeAt[s] < next {
				next = w.completeAt[s]
			}
		}
		return false
	}, nil)
	e.lsqNextFree = next
	return e.lsq.len() < e.cfg.LSQSize
}

// maxTakenPerCycle is the number of taken branches a fetch group may cross
// per cycle. The paper's EV8-derived front end fetches two blocks per
// cycle, so one taken-branch redirect does not end fetch.
const maxTakenPerCycle = 2

// dispatchM fetches and dispatches M-thread (and wrong-path) instructions.
func (e *Engine) dispatchM(budget *int) {
	stagger := e.cfg.Mode == config.ModeSS2 && e.cfg.MaxStagger > 0
	taken := 0
	for *budget > 0 {
		if e.isqFree() < 1 {
			return
		}
		if stagger {
			// Deadlock guard: the M-thread may only run ahead while the
			// ROB retains room for every undispatched R copy plus this
			// instruction's pair.
			if e.robFree() < e.pendingR.len()+2 {
				return
			}
			// Elastic stagger bound.
			if e.pendingR.len() >= e.cfg.MaxStagger {
				return
			}
		} else if e.robFree() < 1 {
			return
		}

		f := e.nextFetch()
		if f == nil {
			return
		}
		if f.inst.Class.IsMem() && !f.wrongPath && !e.lsqSpace() {
			// No LSQ entry: hold the instruction in the fetch buffer.
			e.fetchBuf = *f
			e.fetchBufValid = true
			return
		}
		if !f.predDone {
			e.predictBranch(f)
		}

		d := e.dispatchInst(f, ThreadM)
		*budget--

		if e.cfg.Mode == config.ModeSS2 && stagger {
			r := e.makeRCopy(d)
			e.pendingR.push(r)
		}

		e.postFetch(f, d)
		if f.btbBubble {
			break
		}
		if f.predTaken {
			taken++
			if taken >= maxTakenPerCycle {
				break
			}
		}
	}
}

// dispatchLockstep dispatches M and R copies of each instruction in the
// same cycle, each consuming a decode slot and an ISQ/ROB entry — the plain
// SS2 of Section 2.2.
func (e *Engine) dispatchLockstep(budget *int) {
	taken := 0
	for *budget >= 2 {
		if e.isqFree() < 2 || e.robFree() < 2 {
			return
		}
		f := e.nextFetch()
		if f == nil {
			return
		}
		if f.inst.Class.IsMem() && !f.wrongPath && !e.lsqSpace() {
			e.fetchBuf = *f
			e.fetchBufValid = true
			return
		}
		if !f.predDone {
			e.predictBranch(f)
		}

		d := e.dispatchInst(f, ThreadM)
		r := e.makeRCopy(d)
		e.dispatchRCopy(r)
		*budget -= 2

		e.postFetch(f, d)
		if f.btbBubble {
			break
		}
		if f.predTaken {
			taken++
			if taken >= maxTakenPerCycle {
				break
			}
		}
	}
}

// dispatchR dispatches queued R copies with the cycle's leftover decode
// bandwidth (SS2 stagger mode).
func (e *Engine) dispatchR(budget *int) {
	for *budget > 0 && !e.pendingR.empty() {
		if e.isqFree() < 1 || e.robFree() < 1 {
			return
		}
		r := e.pendingR.pop()
		e.dispatchRCopy(r)
		*budget--
	}
}

// postFetch applies post-dispatch fetch redirection: entering wrong-path
// mode after a mispredicted branch and charging the BTB-miss bubble.
func (e *Engine) postFetch(f *fetchedInst, d int32) {
	if f.mispredict && !f.wrongPath {
		e.w.flags[d] |= fMispredict
		e.wpBranch = d
	}
	if f.btbBubble {
		resume := e.now + int64(e.cfg.BTBMissPenalty)
		if resume > e.fetchResumeAt {
			e.fetchResumeAt = resume
		}
	}
}

// nextFetch returns the next instruction to dispatch, accounting for the
// fetch-redirect timer, the replay queue, wrong-path mode, and I-cache
// timing. A nil return means no instruction is available this cycle. The
// returned pointer aliases e.fetchTmp — engine-owned scratch, valid until
// the next nextFetch call — so the hot path heap-allocates nothing.
func (e *Engine) nextFetch() *fetchedInst {
	if e.fetchBufValid {
		e.fetchTmp = e.fetchBuf
		e.fetchBufValid = false
		return &e.fetchTmp
	}
	if e.now < e.fetchResumeAt {
		return nil
	}

	f := &e.fetchTmp
	*f = fetchedInst{}
	switch {
	case e.wpBranch >= 0:
		f.inst = e.gen.NextWrongPath()
		f.wrongPath = true
		e.stats.WrongPathFetched++
	case len(e.replay) > 0:
		f.inst = e.replay[0]
		copy(e.replay, e.replay[1:])
		e.replay = e.replay[:len(e.replay)-1]
		f.seq = e.fetchSeq
		e.fetchSeq++
		e.stats.Fetched++
	default:
		f.inst = e.gen.Next()
		f.seq = e.fetchSeq
		e.fetchSeq++
		e.stats.Fetched++
	}
	// Pulling a new instruction from the trace (or replay queue) advances
	// front-end state even when the instruction then parks on an I-cache
	// miss, so the cycle cannot be treated as repeatable dead time.
	e.progressed = true

	// I-cache: one access per new fetch line; a miss stalls fetch until
	// the fill arrives, with the instruction parked in the fetch buffer.
	line := e.mem.LineAddr(f.inst.PC)
	if !e.haveFetchLine || line != e.lastFetchLine {
		ready := e.mem.IFetch(e.now, f.inst.PC)
		e.lastFetchLine = line
		e.haveFetchLine = true
		if ready > e.now+int64(e.cfg.Mem.L1HitLat) {
			e.fetchResumeAt = ready
			e.fetchBuf = *f
			e.fetchBufValid = true
			return nil
		}
	}
	return f
}

// predictBranch consults the direction predictor and BTB exactly once per
// fetched instruction and records the outcome on the fetch record.
func (e *Engine) predictBranch(f *fetchedInst) {
	f.predDone = true
	in := &f.inst
	if !in.IsBranch() {
		return
	}
	if f.wrongPath {
		// Wrong-path branches are followed along their own synthetic
		// stream; they neither query nor train the predictor.
		f.predTaken = in.Taken
		return
	}
	switch in.BranchKind {
	case isa.BranchCond:
		e.stats.CondBranches++
		f.predTaken = e.pred.Predict(in.PC)
		if f.predTaken != in.Taken {
			f.mispredict = true
			e.stats.Mispredicts++
		} else if f.predTaken {
			// Correct taken prediction still needs the target from the
			// BTB; a miss (or stale target) costs a fetch bubble while
			// decode computes the direct target.
			if tgt, hit := e.btb.Lookup(in.PC); !hit || tgt != in.Target {
				f.btbBubble = true
				e.stats.BTBBubbles++
			}
		}
		// Train immediately: hardware updates the history registers
		// speculatively at prediction time (repairing on squash), and by
		// the time a loop body drains from the ROB-sized window every
		// iteration of its branch has already been fetched — retire-time
		// history updates would make periodic patterns unlearnable.
		e.pred.Update(in.PC, in.Taken)
	case isa.BranchUncond:
		f.predTaken = true
		if tgt, hit := e.btb.Lookup(in.PC); !hit || tgt != in.Target {
			f.btbBubble = true
			e.stats.BTBBubbles++
		}
	case isa.BranchIndirect:
		f.predTaken = true
		// Indirect targets come only from the BTB; a miss or a changed
		// target is a full misprediction resolved at execute.
		if tgt, hit := e.btb.Lookup(in.PC); !hit || tgt != in.Target {
			f.mispredict = true
			e.stats.Mispredicts++
		}
	}
	if in.Taken {
		e.btb.Insert(in.PC, in.Target)
	}
}

// dispatchInst renames and allocates one instruction into the back-end
// structures.
func (e *Engine) dispatchInst(f *fetchedInst, t Thread) int32 {
	w := &e.w
	s := w.alloc(f.seq, f.inst, t, f.wrongPath, e.now)
	e.progressed = true
	e.rename(s)
	if w.waitCnt[s] == 0 {
		w.arm(s)
	}
	e.robM.push(s)
	w.setISQ(ThreadM, s)
	if f.inst.Class.IsMem() && !f.wrongPath {
		w.flags[s] |= fInLSQ
		e.lsq.push(s)
		if f.inst.IsStore() {
			e.lsqStores[granuleBucket(f.inst.Addr)]++
		}
	}
	return s
}

// makeRCopy allocates the redundant copy of a just-dispatched M
// instruction and links the pair. The copy is renamed when it dispatches;
// allocating it immediately after its M copy keeps ring order equal to
// global (seq, M-before-R) age order.
func (e *Engine) makeRCopy(m int32) int32 {
	w := &e.w
	r := w.alloc(w.seq[m], w.inst[m], ThreadR, w.flags[m]&fWrongPath != 0, e.now)
	w.pair[r] = ref{slot: m, gen: w.gen[m]}
	w.pair[m] = ref{slot: r, gen: w.gen[r]}
	return r
}

// dispatchRCopy renames and allocates a pending R copy.
func (e *Engine) dispatchRCopy(r int32) {
	w := &e.w
	w.dispatchedAt[r], w.readyAt[r] = e.now, e.now+1
	e.progressed = true
	e.rename(r)
	if w.inst[r].IsLoad() {
		// The R copy reads its value from the LVQ, available once the M
		// copy's access completes: register the pair as a producer.
		w.addDep(r, w.pair[r])
	}
	if w.waitCnt[r] == 0 {
		w.arm(r)
	}
	e.robR.push(r)
	w.setISQ(ThreadR, r)
}

// rename captures producer links for the instruction's sources, registers
// the consumer with each live unissued producer (issued producers fold
// their completion time instead), and claims the destination register in
// the thread's map.
func (e *Engine) rename(s int32) {
	w := &e.w
	lw := &e.lastWriter[w.thread(s)]
	in := &w.inst[s]
	if in.Src1 != isa.RegNone {
		r := lw[in.Src1]
		w.dep1[s] = r
		w.addDep(s, r)
	}
	if in.Src2 != isa.RegNone {
		r := lw[in.Src2]
		w.dep2[s] = r
		// A shared producer registers once: one broadcast must balance
		// exactly one waitCnt increment.
		if r != w.dep1[s] {
			w.addDep(s, r)
		}
	}
	if in.Dest != isa.RegNone {
		w.prevWriter[s] = lw[in.Dest]
		lw[in.Dest] = ref{slot: s, gen: w.gen[s]}
	}
}
