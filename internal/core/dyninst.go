// Package core implements the paper's cycle-level out-of-order pipeline in
// its three execution models: SS1 (conventional single-threaded), SS2
// (symmetric redundant execution with an optional elastic stagger), and
// SHREC (asymmetric redundant execution with an in-order checker sharing
// the functional units).
//
// The model is trace driven and structurally accurate in the same sense as
// the modified sim-outorder the paper used: it tracks per-cycle issue
// bandwidth, functional unit occupancy (including unpipelined divides),
// ISQ/ROB/LSQ capacity, memory ports, MSHRs, bus contention, branch
// prediction with wrong-path resource consumption, and in-order retirement
// with pairwise result checking.
//
// In-flight instructions live in a struct-of-arrays window (see window): a
// ring arena of parallel field arrays indexed by slot, so the steady-state
// simulation loop allocates nothing and dependency wakeup is tracked with
// per-producer consumer bitmasks instead of pointer walks.
package core

import (
	"math"
	"math/bits"

	"repro/internal/isa"
)

// Thread identifies the main (leading) or redundant (trailing) copy of an
// instruction in redundant execution modes.
type Thread uint8

const (
	// ThreadM is the main thread: it performs memory accesses and, in
	// SHREC, runs on the out-of-order pipeline.
	ThreadM Thread = iota
	// ThreadR is the redundant copy: in SS2 it executes independently but
	// reads load values from the LVQ; in SHREC it is replaced by the
	// in-order checker.
	ThreadR
)

// String returns "M" or "R".
func (t Thread) String() string {
	if t == ThreadM {
		return "M"
	}
	return "R"
}

// notDone marks a completion time that has not been scheduled yet.
const notDone = int64(math.MaxInt64)

// ref names one in-flight instruction: a window slot plus the generation
// the slot held when the reference was captured. The generation tag guards
// against slot recycling after retirement or squash: a mismatched
// generation means the referent has long since left the window.
type ref struct {
	slot int32 // -1 = no referent
	gen  uint32
}

// noRef is the empty reference.
var noRef = ref{slot: -1}

// Per-slot flag bits (window.flags).
const (
	// fThread set marks the R (redundant) copy.
	fThread uint16 = 1 << iota
	// fWrongPath marks instructions fetched past an unresolved mispredicted
	// branch; they consume resources but are squashed at resolution.
	fWrongPath
	fIssued
	// fIssued2 marks the second O3RS execution as issued.
	fIssued2
	// fCheckIssued drives the SHREC checker (M-thread entries).
	fCheckIssued
	// fMispredict marks a correct-path branch whose prediction was wrong
	// (direction or indirect target); resolution triggers a squash.
	fMispredict
	// fFaulty marks an injected transient error in this copy's result;
	// fFaulty2 marks one in the second O3RS execution.
	fFaulty
	fFaulty2
	// fInLSQ marks M-thread memory ops occupying an LSQ entry.
	fInLSQ
	// fFwdFromStore/fFwdNone memoize the load's store-to-load forwarding
	// source (see Engine.forwardingStore): neither bit set means unknown.
	fFwdFromStore
	fFwdNone
)

// window is the struct-of-arrays storage for in-flight instructions. Slots
// are allocated from a ring ([head, head+n) modulo capacity), so slot order
// is age order: retirement frees at the head, wrong-path squashes rewind a
// contiguous tail, and a soft exception resets the whole ring. Capacity is
// ROBSize plus slack — every in-flight copy (robM, robR, pendingR) counts
// against the shared ROB capacity, which the dispatch guards enforce.
//
// Dependency wakeup is bitmap based. Each slot carries waitCnt, the number
// of its distinct unissued producers, and readyAt, the earliest issue
// cycle: one past dispatch, folded with every issued producer's completion
// time. A producer's consumers row records which slots wait on it; when
// the producer issues, the row is broadcast: each consumer's waitCnt
// drops, its readyAt folds in the completion time, and at zero the
// consumer arms. An armed slot sleeps in the sleep mask until the issue
// stage's wake moves it, at readyAt, into the ready mask. The issue stage
// scans (isq AND ready) words in ring age order with trailing-zeros bit
// iteration, so neither stalled dependence chains nor slots waiting on
// their operands' completion cost anything per cycle.
type window struct {
	capacity int32
	words    int32 // uint64 words per bitmask = ceil(capacity/64)

	head, tail, n int32

	gen   []uint32
	seq   []uint64 // program-order index (shared by both copies of a pair)
	inst  []isa.Inst
	flags []uint16

	dispatchedAt []int64
	completeAt   []int64 // result availability; notDone until issued
	complete2At  []int64 // second O3RS execution
	checkedAt    []int64 // SHREC checker verification
	faultAt      []int64 // injection cycle for detection-latency stats

	// pair links the two copies of an SS2 instruction; prevWriter supports
	// rename rollback on squash; dep1/dep2 retain the rename-time producer
	// links (for unregistration on squash); fwdStore memoizes the load's
	// forwarding source.
	dep1, dep2, pair, prevWriter, fwdStore []ref

	// waitCnt counts distinct unissued producers; readyAt lower-bounds the
	// issue cycle (see the wakeup description above).
	waitCnt []uint8
	readyAt []int64

	// consumers is capacity rows of words each: bit c of row p marks slot c
	// as waiting on producer p's issue.
	consumers []uint64

	// An armed (waitCnt zero) live slot sits in exactly one of ready, where
	// it may issue this cycle (readyAt <= now), and sleep, until readyAt;
	// wakeAt lower-bounds the sleepers' readyAt. With sleeps off (the tick
	// loop) armed slots go straight to ready and issue checks readyAt. isq
	// tracks issue-queue residency per thread; isqCount its popcounts.
	ready    []uint64
	sleep    []uint64
	wakeAt   int64
	sleeps   bool
	isq      [2][]uint64
	isqCount [2]int
}

func newWindow(capacity int) window {
	c := int32(capacity)
	words := (c + 63) / 64
	w := window{
		capacity:     c,
		words:        words,
		gen:          make([]uint32, c),
		seq:          make([]uint64, c),
		inst:         make([]isa.Inst, c),
		flags:        make([]uint16, c),
		dispatchedAt: make([]int64, c),
		completeAt:   make([]int64, c),
		complete2At:  make([]int64, c),
		checkedAt:    make([]int64, c),
		faultAt:      make([]int64, c),
		dep1:         make([]ref, c),
		dep2:         make([]ref, c),
		pair:         make([]ref, c),
		prevWriter:   make([]ref, c),
		fwdStore:     make([]ref, c),
		waitCnt:      make([]uint8, c),
		readyAt:      make([]int64, c),
		consumers:    make([]uint64, int(c)*int(words)),
		ready:        make([]uint64, words),
		sleep:        make([]uint64, words),
		wakeAt:       notDone,
	}
	w.isq[0] = make([]uint64, words)
	w.isq[1] = make([]uint64, words)
	return w
}

// live reports whether r still names the instruction it was captured from.
func (w *window) live(r ref) bool {
	return r.slot >= 0 && w.gen[r.slot] == r.gen
}

// thread returns the slot's thread copy.
func (w *window) thread(s int32) Thread {
	if w.flags[s]&fThread != 0 {
		return ThreadR
	}
	return ThreadM
}

// completed reports whether the slot's result is available.
func (w *window) completed(s int32, now int64) bool {
	return w.flags[s]&fIssued != 0 && w.completeAt[s] <= now
}

// checked reports whether verification finished (SHREC).
func (w *window) checked(s int32, now int64) bool {
	return w.checkedAt[s] <= now
}

// alloc claims the next ring slot and resets its fields. The caller fills
// seq via the arguments and owns all further field writes; dispatch guards
// must have ensured space (overflow is a model bug). Dispatch-to-issue
// takes at least one cycle, so readyAt starts one past now.
func (w *window) alloc(seq uint64, in isa.Inst, t Thread, wrongPath bool, now int64) int32 {
	if w.n == w.capacity {
		panic("core: window overflow")
	}
	s := w.tail
	w.tail++
	if w.tail == w.capacity {
		w.tail = 0
	}
	w.n++
	w.seq[s] = seq
	w.inst[s] = in
	var f uint16
	if t == ThreadR {
		f |= fThread
	}
	if wrongPath {
		f |= fWrongPath
	}
	w.flags[s] = f
	w.dispatchedAt[s] = now
	w.completeAt[s] = notDone
	w.complete2At[s] = notDone
	w.checkedAt[s] = notDone
	w.faultAt[s] = 0
	w.dep1[s] = noRef
	w.dep2[s] = noRef
	w.pair[s] = noRef
	w.prevWriter[s] = noRef
	w.fwdStore[s] = noRef
	w.waitCnt[s] = 0
	w.readyAt[s] = now + 1
	return s
}

// releaseSlot invalidates one slot: outstanding producer links are
// unregistered, the slot leaves every mask, its consumers row is cleared,
// and the generation bumps so stale refs recognize the recycling. Ring
// bookkeeping (head/tail/n) belongs to the caller.
func (w *window) releaseSlot(s int32) {
	w.unregisterDeps(s)
	wi, bit := s>>6, uint64(1)<<(uint(s)&63)
	for t := range w.isq {
		if w.isq[t][wi]&bit != 0 {
			w.isq[t][wi] &^= bit
			w.isqCount[t]--
		}
	}
	w.ready[wi] &^= bit
	w.sleep[wi] &^= bit
	clear(w.consumers[int(s)*int(w.words) : (int(s)+1)*int(w.words)])
	w.gen[s]++
}

// unregisterDeps clears this slot's consumer bit from every still-live,
// still-unissued producer it registered with (issued producers broadcast
// and cleared the bit already). Safe ordering holds on squash because
// consumers are younger than their producers and the tail rewind frees
// youngest-first.
func (w *window) unregisterDeps(s int32) {
	if w.waitCnt[s] == 0 {
		return
	}
	for _, r := range [4]ref{w.dep1[s], w.dep2[s], w.pair[s], w.fwdStore[s]} {
		if w.live(r) && w.flags[r.slot]&fIssued == 0 {
			w.consumers[int(r.slot)*int(w.words)+int(s>>6)] &^= 1 << (uint(s) & 63)
		}
	}
	w.waitCnt[s] = 0
}

// addDep registers r as a producer of consumer s. A dead reference (the
// producer already retired) contributes nothing; an issued producer folds
// its completion time into the consumer's readiness bound; a live unissued
// producer adds a wait and a consumer bit, balanced by its issue-time
// broadcast.
func (w *window) addDep(s int32, r ref) {
	if !w.live(r) {
		return
	}
	p := r.slot
	if w.flags[p]&fIssued != 0 {
		if w.completeAt[p] > w.readyAt[s] {
			w.readyAt[s] = w.completeAt[p]
		}
		return
	}
	w.waitCnt[s]++
	w.consumers[int(p)*int(w.words)+int(s>>6)] |= 1 << (uint(s) & 63)
}

// broadcast wakes a just-issued producer's consumers: each drops one wait
// count, folds doneAt into its operand-readiness bound, and arms when its
// last producer has issued. The producer's consumer row is consumed by the
// broadcast (each waiter is woken exactly once).
func (w *window) broadcast(p int32, doneAt int64) {
	row := w.consumers[int(p)*int(w.words) : (int(p)+1)*int(w.words)]
	for wi, word := range row {
		if word == 0 {
			continue
		}
		row[wi] = 0
		base := int32(wi) << 6
		for word != 0 {
			c := base + int32(bits.TrailingZeros64(word))
			word &= word - 1
			if doneAt > w.readyAt[c] {
				w.readyAt[c] = doneAt
			}
			if w.waitCnt[c]--; w.waitCnt[c] == 0 {
				w.arm(c)
			}
		}
	}
}

// freeHead releases the oldest slot (retirement order).
func (w *window) freeHead(s int32) {
	if s != w.head {
		panic("core: out-of-order window free")
	}
	w.releaseSlot(s)
	w.head++
	if w.head == w.capacity {
		w.head = 0
	}
	w.n--
}

// rewindWrongPath frees the contiguous wrong-path tail of the ring (the
// only shape a wrong-path squash can have: everything allocated after the
// mispredicted branch is wrong path).
func (w *window) rewindWrongPath() {
	for w.n > 0 {
		t := w.tail - 1
		if t < 0 {
			t += w.capacity
		}
		if w.flags[t]&fWrongPath == 0 {
			break
		}
		w.releaseSlot(t)
		w.tail = t
		w.n--
	}
}

// reset empties the window (soft exception), bumping live generations and
// clearing every mask.
func (w *window) reset() {
	for i := int32(0); i < w.n; i++ {
		s := w.head + i
		if s >= w.capacity {
			s -= w.capacity
		}
		w.gen[s]++
	}
	w.head, w.tail, w.n = 0, 0, 0
	clear(w.ready)
	clear(w.sleep)
	w.wakeAt = notDone
	for t := range w.isq {
		clear(w.isq[t])
		w.isqCount[t] = 0
	}
	clear(w.consumers)
}

// ringSlot returns the i-th oldest live slot (test/debug helper).
func (w *window) ringSlot(i int32) int32 {
	s := w.head + i
	if s >= w.capacity {
		s -= w.capacity
	}
	return s
}

// setReady marks the slot issueable.
func (w *window) setReady(s int32) {
	w.ready[s>>6] |= 1 << (uint(s) & 63)
}

// clearReady removes the slot from the ready mask (a dynamic producer was
// discovered, e.g. an incomplete forwarding store).
func (w *window) clearReady(s int32) {
	w.ready[s>>6] &^= 1 << (uint(s) & 63)
}

// arm enters a slot whose last producer has issued into the issue
// candidates. Every arming leaves readyAt past now: dispatch sets it one
// past the dispatch cycle, and a broadcast, or a load's incomplete
// forwarding store, folds in a completion time that is still ahead. So
// with sleeps on, an armed slot always sleeps first.
func (w *window) arm(s int32) {
	if !w.sleeps {
		w.setReady(s)
		return
	}
	w.sleep[s>>6] |= 1 << (uint(s) & 63)
	w.wakeAt = min(w.wakeAt, w.readyAt[s])
}

// wake moves every sleeper whose readyAt has come into the ready mask and
// recomputes wakeAt over the rest. The issue stage calls it before its
// scans, so they visit only slots that may issue this cycle.
func (w *window) wake(now int64) {
	if now < w.wakeAt {
		return
	}
	next := notDone
	for wi, word := range w.sleep {
		var due uint64
		for m := word; m != 0; m &= m - 1 {
			tz := bits.TrailingZeros64(m)
			if at := w.readyAt[int32(wi)<<6+int32(tz)]; at > now {
				next = min(next, at)
			} else {
				due |= 1 << tz
			}
		}
		w.sleep[wi] = word &^ due
		w.ready[wi] |= due
	}
	w.wakeAt = next
}

// setISQ inserts the slot into thread t's issue queue.
func (w *window) setISQ(t Thread, s int32) {
	w.isq[t][s>>6] |= 1 << (uint(s) & 63)
	w.isqCount[t]++
}

// clearISQ removes the slot from thread t's issue queue (at issue). A slot
// that is not queued means the issue stage visited it twice, which would
// leave isqCount out of step with the mask.
func (w *window) clearISQ(t Thread, s int32) {
	if !w.inISQ(t, s) {
		panic("core: issue-queue clear of an unqueued slot")
	}
	w.isq[t][s>>6] &^= 1 << (uint(s) & 63)
	w.isqCount[t]--
}

// inISQ reports issue-queue residency.
func (w *window) inISQ(t Thread, s int32) bool {
	return w.isq[t][s>>6]&(1<<(uint(s)&63)) != 0
}

// forEachCandidate visits every slot set in (mask OR mask2) AND ready, in
// ring age order (oldest first), calling visit for each; visit returning
// false stops the scan. mask2 may be nil. Bits that change state during
// the scan are deliberately not re-read within the current word: a
// newly-issued producer completes no earlier than the next cycle, so a
// same-cycle wakeup cannot make a skipped entry issueable, and the only
// bit a visit clears is its own.
func (w *window) forEachCandidate(mask, mask2 []uint64, visit func(int32) bool) {
	if w.n == 0 {
		return
	}
	if w.head < w.tail {
		w.scanSeg(w.head, w.tail, mask, mask2, visit)
		return
	}
	if w.scanSeg(w.head, w.capacity, mask, mask2, visit) {
		w.scanSeg(0, w.tail, mask, mask2, visit)
	}
}

// scanSeg scans candidate bits in [lo, hi); it returns false when visit
// stopped the scan.
func (w *window) scanSeg(lo, hi int32, mask, mask2 []uint64, visit func(int32) bool) bool {
	wlo, whi := lo>>6, (hi-1)>>6
	for wi := wlo; wi <= whi; wi++ {
		word := mask[wi]
		if mask2 != nil {
			word |= mask2[wi]
		}
		word &= w.ready[wi]
		if wi == wlo {
			word &^= 1<<(uint(lo)&63) - 1
		}
		if wi == whi {
			if r := uint(hi) & 63; r != 0 {
				word &= 1<<r - 1
			}
		}
		for word != 0 {
			s := wi<<6 + int32(bits.TrailingZeros64(word))
			word &= word - 1
			if !visit(s) {
				return false
			}
		}
	}
	return true
}

// maskCursor iterates the set bits of one queue mask in ring age order,
// pull-style, so two queues can be merged by comparing their heads (the
// lockstep issue scan). Words are snapshotted as the cursor reaches them —
// the same staleness contract as forEachCandidate: the only bit a consumer
// clears mid-scan is that of a slot the cursor has already returned.
type maskCursor struct {
	mask []uint64
	segs [2][2]int32 // ring segments [lo, hi), oldest first
	nseg int
	si   int
	wi   int32
	word uint64
	open bool
}

func (w *window) newMaskCursor(mask []uint64) maskCursor {
	c := maskCursor{mask: mask}
	if w.n == 0 {
		return c
	}
	if w.head < w.tail {
		c.segs[0] = [2]int32{w.head, w.tail}
		c.nseg = 1
	} else {
		c.segs[0] = [2]int32{w.head, w.capacity}
		c.segs[1] = [2]int32{0, w.tail}
		c.nseg = 2
		if w.tail == 0 {
			// [0, 0) is empty, and maskedWord cannot clip it (its last
			// word index is -1), so it would rescan word 0.
			c.nseg = 1
		}
	}
	return c
}

// maskedWord loads word wi of the mask, clipped to the segment [lo, hi).
func (c *maskCursor) maskedWord(wi, lo, hi int32) uint64 {
	word := c.mask[wi]
	if wi == lo>>6 {
		word &^= 1<<(uint(lo)&63) - 1
	}
	if wi == (hi-1)>>6 {
		if r := uint(hi) & 63; r != 0 {
			word &= 1<<r - 1
		}
	}
	return word
}

// next returns the next set slot in ring age order, or -1 when exhausted.
func (c *maskCursor) next() int32 {
	for {
		if c.word != 0 {
			s := c.wi<<6 + int32(bits.TrailingZeros64(c.word))
			c.word &= c.word - 1
			return s
		}
		if c.open && c.wi < (c.segs[c.si][1]-1)>>6 {
			c.wi++
			c.word = c.maskedWord(c.wi, c.segs[c.si][0], c.segs[c.si][1])
			continue
		}
		if c.open {
			c.si++
			c.open = false
		}
		if c.si >= c.nseg {
			return -1
		}
		c.open = true
		lo := c.segs[c.si][0]
		c.wi = lo >> 6
		c.word = c.maskedWord(c.wi, lo, c.segs[c.si][1])
	}
}

// idxFifo is a fixed-capacity ring FIFO of window slots (the per-thread
// ROB views, the LSQ, and the pendingR stagger queue). Capacity equals the
// window's, so pushes can never overflow and steady state allocates
// nothing.
type idxFifo struct {
	buf  []int32
	head int32
	n    int32
}

func newIdxFifo(capacity int) idxFifo {
	return idxFifo{buf: make([]int32, capacity)}
}

func (q *idxFifo) push(s int32) {
	if int(q.n) == len(q.buf) {
		panic("core: fifo overflow")
	}
	i := q.head + q.n
	if int(i) >= len(q.buf) {
		i -= int32(len(q.buf))
	}
	q.buf[i] = s
	q.n++
}

func (q *idxFifo) len() int { return int(q.n) }

func (q *idxFifo) empty() bool { return q.n == 0 }

// front returns the oldest entry; it panics on an empty queue.
func (q *idxFifo) front() int32 { return q.buf[q.head] }

// at returns the i-th oldest entry.
func (q *idxFifo) at(i int) int32 {
	j := q.head + int32(i)
	if int(j) >= len(q.buf) {
		j -= int32(len(q.buf))
	}
	return q.buf[j]
}

// pop removes and returns the oldest entry.
func (q *idxFifo) pop() int32 {
	s := q.buf[q.head]
	q.head++
	if int(q.head) == len(q.buf) {
		q.head = 0
	}
	q.n--
	return s
}

// clear drops all entries, invoking f on each (oldest first) when non-nil.
func (q *idxFifo) clear(f func(int32)) {
	if f != nil {
		for i := 0; i < q.len(); i++ {
			f(q.at(i))
		}
	}
	q.head, q.n = 0, 0
}

// removeIf deletes entries matching pred, preserving order, and calls f on
// each removed entry when non-nil.
func (q *idxFifo) removeIf(pred func(int32) bool, f func(int32)) {
	w := int32(0)
	for i := int32(0); i < q.n; i++ {
		s := q.at(int(i))
		if pred(s) {
			if f != nil {
				f(s)
			}
			continue
		}
		j := q.head + w
		if int(j) >= len(q.buf) {
			j -= int32(len(q.buf))
		}
		q.buf[j] = s
		w++
	}
	q.n = w
}
