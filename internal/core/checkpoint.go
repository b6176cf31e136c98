package core

import (
	"errors"

	"repro/internal/isa"
	"repro/internal/rng"
	"repro/internal/trace"
)

// ErrNoCloneSource is returned by Checkpoint when the engine's instruction
// source cannot snapshot its stream position.
var ErrNoCloneSource = errors.New("core: instruction source does not implement trace.CloneSource")

// Checkpoint is a frozen deep copy of an engine mid-run: architectural and
// stream position (trace source, fetch sequence), predictor and BTB tables,
// cache contents and in-flight misses, functional-unit occupancy, and the
// whole pipeline window. A checkpoint is inert — it never advances — and a
// single checkpoint can seed any number of engines via NewEngine, which is
// what makes warmup sharing across fault-campaign trials and checkpoint
// recovery sound: every engine spawned from the same checkpoint replays the
// identical future.
type Checkpoint struct {
	e *Engine
}

// Checkpoint captures the engine's complete state. It fails with
// ErrNoCloneSource when the instruction source cannot be cloned (a custom
// Source not implementing trace.CloneSource).
func (e *Engine) Checkpoint() (*Checkpoint, error) {
	if _, ok := e.gen.(trace.CloneSource); !ok {
		return nil, ErrNoCloneSource
	}
	return &Checkpoint{e: e.deepClone()}, nil
}

// FetchSeq returns the next correct-path fetch sequence number at the
// checkpoint — the boundary before which the checkpointed execution already
// fetched. Fault campaigns use it to decide whether a cached warmup
// checkpoint is reusable: injection windows starting at or after FetchSeq
// cannot have consumed fault randomness before the capture.
func (cp *Checkpoint) FetchSeq() uint64 { return cp.e.fetchSeq }

// Stats returns the statistics accumulated up to the checkpoint.
func (cp *Checkpoint) Stats() Stats { return cp.e.stats }

// NewEngine returns a fresh engine continuing from the checkpoint. Each
// call yields an independent engine; running one never perturbs the
// checkpoint or its siblings.
func (cp *Checkpoint) NewEngine() *Engine { return cp.e.deepClone() }

// Restore rewinds e to the checkpointed state in place. All of e's prior
// state, including any retire hook, is replaced by the checkpoint's.
func (e *Engine) Restore(cp *Checkpoint) { *e = *cp.e.deepClone() }

// SetFaultConfig reconfigures fault injection on a (typically
// checkpoint-spawned) engine: per-instruction rate, injector seed, and the
// [lo, hi) correct-path fetch-sequence window (hi == 0 disables only the
// upper bound; lo always applies, which is how recovery's re-injection
// guard advances past a rolled-back fault). The injector RNG restarts from
// the seed. Because faultEligible
// checks the rate and window before drawing randomness, a pre-checkpoint
// execution with injection disabled is bit-identical to one that never
// faults, so enabling injection after restoring a warmup checkpoint is
// exactly equivalent to having run the whole trial from cold start —
// provided the window does not reach back before the capture point (see
// Checkpoint.FetchSeq).
//
// A rate-0 engine given a window (SetFaultConfig(0, seed, lo, hi) with
// hi > 0) draws nothing, so its run stays bit-identical to a fault-free one,
// but it counts the injection sites it evaluates inside the window
// (FaultSites). A twin engine injecting at rate draws once at each of
// those sites until its first hit, so FirstFaultSite decides from the seed
// alone whether the twin would inject at all.
func (e *Engine) SetFaultConfig(rate float64, seed uint64, lo, hi uint64) {
	e.cfg.FaultRate = rate
	e.cfg.FaultSeed = seed
	e.cfg.FaultWindowLo, e.cfg.FaultWindowHi = lo, hi
	e.frng = faultRNG(seed)
}

// FaultSites returns how many injection sites the engine has evaluated
// inside its fault window: correct-path issues in the window, each of
// which draws once from the injector when the rate is positive. An engine
// whose window has no upper bound and whose rate is 0 does not count.
// Checkpoints and Restore carry the count; ResetStats does not clear it.
func (e *Engine) FaultSites() uint64 { return e.faultSites }

// FirstFaultSite returns the index of the first of n injection sites at
// which an engine configured by SetFaultConfig(rate, seed, ...) injects,
// or n when it injects at none of them. It replays the injector's draws
// (one rng.Bool per site, none when rate >= 1 or rate <= 0), so it costs
// at most n draws and no simulation.
func FirstFaultSite(rate float64, seed, n uint64) uint64 {
	r := faultRNG(seed)
	for k := uint64(0); k < n; k++ {
		if r.Bool(rate) {
			return k
		}
	}
	return n
}

// faultRNG returns the fault injector's stream for seed.
func faultRNG(seed uint64) *rng.RNG { return rng.New(seed ^ 0xfa117_5eed) }

// deepClone returns a fully independent copy of the engine.
func (e *Engine) deepClone() *Engine {
	c := *e
	c.gen = e.gen.(trace.CloneSource).CloneSource()
	c.pred = e.pred.Clone()
	c.btb = e.btb.Clone()
	c.pool = e.pool.Clone()
	if e.checkerPool != nil {
		c.checkerPool = e.checkerPool.Clone()
	}
	c.mem = e.mem.Clone()
	c.frng = e.frng.Clone()
	c.w = e.w.clone()
	c.robM = e.robM.clone()
	c.robR = e.robR.clone()
	c.lsq = e.lsq.clone()
	c.pendingR = e.pendingR.clone()
	c.meekLog = e.meekLog.clone()
	c.meekBusy = append([]int64(nil), e.meekBusy...)
	c.replay = append([]isa.Inst(nil), e.replay...)
	// Preserve the event heap's preallocated capacity so the clone stays
	// allocation-free in steady state.
	c.events = make([]int64, len(e.events), cap(e.events))
	copy(c.events, e.events)
	return &c
}

// clone returns a deep copy of the window.
func (w *window) clone() window {
	c := *w
	c.gen = append([]uint32(nil), w.gen...)
	c.seq = append([]uint64(nil), w.seq...)
	c.inst = append([]isa.Inst(nil), w.inst...)
	c.flags = append([]uint16(nil), w.flags...)
	c.dispatchedAt = append([]int64(nil), w.dispatchedAt...)
	c.completeAt = append([]int64(nil), w.completeAt...)
	c.complete2At = append([]int64(nil), w.complete2At...)
	c.checkedAt = append([]int64(nil), w.checkedAt...)
	c.faultAt = append([]int64(nil), w.faultAt...)
	c.dep1 = append([]ref(nil), w.dep1...)
	c.dep2 = append([]ref(nil), w.dep2...)
	c.pair = append([]ref(nil), w.pair...)
	c.prevWriter = append([]ref(nil), w.prevWriter...)
	c.fwdStore = append([]ref(nil), w.fwdStore...)
	c.waitCnt = append([]uint8(nil), w.waitCnt...)
	c.readyAt = append([]int64(nil), w.readyAt...)
	c.consumers = append([]uint64(nil), w.consumers...)
	c.ready = append([]uint64(nil), w.ready...)
	c.sleep = append([]uint64(nil), w.sleep...)
	c.isq[0] = append([]uint64(nil), w.isq[0]...)
	c.isq[1] = append([]uint64(nil), w.isq[1]...)
	return c
}

// clone returns a deep copy of the fifo.
func (q *idxFifo) clone() idxFifo {
	c := *q
	c.buf = append([]int32(nil), q.buf...)
	return c
}
