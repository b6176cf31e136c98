package core

import (
	"fmt"
	"math/bits"
	"testing"

	"repro/internal/config"
	"repro/internal/trace"
)

// audit checks the engine's structural invariants between steps. The
// conformance and fast/tick equivalence suites call it after every step
// (see runAudited); the production step loop never does. The MSHR file's
// line-bucket filter is the cache package's own and is checked there
// (TestMSHRLineFilterExact).
func (e *Engine) audit() error {
	w := &e.w
	slot := func(wi int, word uint64) int32 { return int32(wi)<<6 + int32(bits.TrailingZeros64(word)) }
	// liveWord returns word wi's share of the live ring [head, head+n),
	// whose part past the last slot wraps to slot 0.
	liveWord := func(wi int) uint64 {
		lo := int32(wi) << 6
		var m uint64
		for _, off := range [2]int32{0, w.capacity} {
			a, b := max(w.head-off, lo), min(w.head+w.n-off, lo+64, w.capacity)
			if a < b {
				m |= ^uint64(0) >> (64 - uint(b-a)) << uint(a-lo)
			}
		}
		return m
	}

	for t := range w.isq {
		count := 0
		for wi, word := range w.isq[t] {
			count += bits.OnesCount64(word)
			if dead := word &^ liveWord(wi); dead != 0 {
				return fmt.Errorf("isq[%v] holds dead slot %d", Thread(t), slot(wi, dead))
			}
			for m := word; m != 0; m &= m - 1 {
				s := slot(wi, m)
				f := w.flags[s]
				secondIssue := e.cfg.Mode == config.ModeO3RS && f&fIssued2 == 0
				if f&fIssued != 0 && !secondIssue {
					return fmt.Errorf("issued slot %d (seq %d) still in isq[%v]", s, w.seq[s], Thread(t))
				}
			}
		}
		if count != w.isqCount[t] {
			return fmt.Errorf("isqCount[%v] = %d, but the mask holds %d slots", Thread(t), w.isqCount[t], count)
		}
	}

	// An unissued slot is always queued, so the per-slot checks visit only
	// queued slots; issued ones keep their ready bit until they leave.
	for wi := range w.ready {
		ready, sleep := w.ready[wi], w.sleep[wi]
		queued := w.isq[ThreadM][wi] | w.isq[ThreadR][wi]
		switch {
		case ready&sleep != 0:
			return fmt.Errorf("slot %d is both ready and asleep", slot(wi, ready&sleep))
		case (ready|sleep)&^liveWord(wi) != 0:
			return fmt.Errorf("dead slot %d is ready or asleep", slot(wi, (ready|sleep)&^liveWord(wi)))
		case sleep&^queued != 0:
			return fmt.Errorf("slot %d sleeps outside the issue queues", slot(wi, sleep&^queued))
		case sleep != 0 && !w.sleeps:
			return fmt.Errorf("slot %d sleeps under the tick loop", slot(wi, sleep))
		}
		for m := (ready | sleep) & queued; m != 0; m &= m - 1 {
			s := slot(wi, m)
			switch {
			case w.waitCnt[s] != 0:
				return fmt.Errorf("slot %d is armed with %d unissued producers", s, w.waitCnt[s])
			case sleep&(m&-m) != 0 && w.readyAt[s] < w.wakeAt:
				return fmt.Errorf("sleeper %d wakes at %d, before wakeAt %d", s, w.readyAt[s], w.wakeAt)
			case sleep&(m&-m) == 0 && w.sleeps && w.flags[s]&fIssued == 0 && w.readyAt[s] > e.now:
				return fmt.Errorf("ready slot %d cannot issue before %d (now %d)", s, w.readyAt[s], e.now)
			}
		}
	}

	// SS2 pair links are symmetric: a live slot's live partner points back
	// at it and carries the same program-order index.
	for i := int32(0); i < w.n; i++ {
		s := w.ringSlot(i)
		r := w.pair[s]
		if !w.live(r) {
			continue
		}
		if back := w.pair[r.slot]; back.slot != s || back.gen != w.gen[s] {
			return fmt.Errorf("slot %d pairs with %d, which pairs with %d", s, r.slot, back.slot)
		}
		if w.seq[r.slot] != w.seq[s] {
			return fmt.Errorf("paired slots %d and %d hold seq %d and %d", s, r.slot, w.seq[s], w.seq[r.slot])
		}
	}

	if n := e.robM.len() + e.robR.len() + e.pendingR.len(); n != int(w.n) {
		return fmt.Errorf("robM, robR and pendingR hold %d slots, the ring %d", n, w.n)
	}
	// The recount goes into a reused array and is undone afterwards:
	// zeroing a fresh one every step would dominate the audit.
	buckets := auditScratch.buckets[:0]
	for i := 0; i < e.lsq.len(); i++ {
		s := e.lsq.at(i)
		if w.flags[s]&(fWrongPath|fInLSQ) != fInLSQ {
			return fmt.Errorf("LSQ member %d is wrong-path or lacks fInLSQ (flags %#x)", s, w.flags[s])
		}
		if w.inst[s].IsStore() {
			b := granuleBucket(w.inst[s].Addr)
			auditScratch.stores[b]++
			buckets = append(buckets, b)
		}
	}
	same := auditScratch.stores == e.lsqStores
	for _, b := range buckets {
		auditScratch.stores[b]--
	}
	auditScratch.buckets = buckets
	if !same {
		return fmt.Errorf("lsqStores differ from a recount of the LSQ's %d entries", e.lsq.len())
	}
	// Under the fast loop lsqSpace skips its sweep while now precedes
	// lsqNextFree, so the bound may not pass any issued resident load:
	// not one still in flight, nor one completed but not yet swept.
	if !e.tickLoop {
		for i := 0; i < e.lsq.len(); i++ {
			s := e.lsq.at(i)
			if w.inst[s].IsLoad() && w.flags[s]&fIssued != 0 && w.completeAt[s] < e.lsqNextFree {
				return fmt.Errorf("lsqNextFree %d passes load %d, which completes at %d", e.lsqNextFree, s, w.completeAt[s])
			}
		}
	}
	return nil
}

// auditScratch is audit's LSQ recount scratch: per-bucket store counts,
// all zero between audits, and the buckets counted.
var auditScratch struct {
	stores  [1 << lsqBucketBits]uint16
	buckets []uint32
}

// auditSkipped turns runAudited's audit off; race builds set it (see
// race_test.go).
var auditSkipped bool

// runAudited is RunBudget, or with exact RunExact, without cancellation or
// a cycle budget, auditing the engine after every step. A broken invariant
// or a deadlock fails the test.
func runAudited(t testing.TB, e *Engine, n uint64, exact bool) Stats {
	t.Helper()
	if exact {
		e.retireStop = n
		defer func() { e.retireStop = 0 }()
	}
	e.sigLimit = n
	last, lastAt := e.stats.Retired, e.now
	for e.stats.Retired < n {
		e.step()
		if !auditSkipped {
			if err := e.audit(); err != nil {
				t.Fatalf("%s at cycle %d: %v", e.cfg.Name, e.now, err)
			}
		}
		if e.stats.Retired != last {
			last, lastAt = e.stats.Retired, e.now
		} else if e.now-lastAt > 1_000_000 {
			t.Fatalf("%s deadlocked at cycle %d (retired %d of %d)", e.cfg.Name, e.now, e.stats.Retired, n)
		}
	}
	return e.stats
}

// warmAudited is WarmupContext under runAudited.
func warmAudited(t testing.TB, e *Engine, n uint64) {
	t.Helper()
	runAudited(t, e, n, false)
	e.ResetStats()
}

// The auditor must notice each kind of corruption it guards against.
func TestAuditDetectsCorruption(t *testing.T) {
	ss2 := config.SS2(config.Factors{S: true})
	for name, c := range map[string]struct {
		m       config.Machine
		corrupt func(e *Engine)
	}{
		"isqCount":        {config.SS1(), func(e *Engine) { e.w.isqCount[ThreadM]++ }},
		"lsqStores":       {config.SS1(), func(e *Engine) { e.lsqStores[0]++ }},
		"dead ready slot": {config.SS1(), func(e *Engine) { e.w.setReady(e.w.tail) }},
		"ready and asleep": {config.SS1(), func(e *Engine) {
			s := e.w.ringSlot(0)
			e.w.ready[s>>6] |= 1 << (uint(s) & 63)
			e.w.sleep[s>>6] |= 1 << (uint(s) & 63)
		}},
		"lsqNextFree": {config.SS1(), func(e *Engine) {
			for {
				for i := 0; i < e.lsq.len(); i++ {
					if s := e.lsq.at(i); e.w.inst[s].IsLoad() && e.w.flags[s]&fIssued != 0 {
						e.lsqNextFree = e.w.completeAt[s] + 1
						return
					}
				}
				e.step()
			}
		}},
		"one-sided pair": {ss2, func(e *Engine) {
			for i := int32(0); i < e.w.n; i++ {
				if s := e.w.ringSlot(i); e.w.live(e.w.pair[s]) {
					e.w.pair[e.w.pair[s].slot] = noRef
					return
				}
			}
		}},
	} {
		t.Run(name, func(t *testing.T) {
			e := New(c.m, trace.New(memWorkload(3)))
			runAudited(t, e, 2000, false)
			c.corrupt(e)
			if e.audit() == nil {
				t.Fatal("audit passed a corrupted engine")
			}
		})
	}
}
