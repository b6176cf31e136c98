package core

import (
	"context"
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/workload"
)

// A ring whose tail has wrapped to slot 0 has one live segment,
// [head, capacity). The cursor must not add an empty [0, 0) segment that
// rescans word 0: lockstep SS2 would then issue a slot twice and drive
// isqCount negative.
func TestMaskCursorTailZero(t *testing.T) {
	for _, tc := range []struct{ capacity, head int }{{40, 5}, {130, 10}, {64, 0}, {130, 0}} {
		w := newWindow(tc.capacity)
		for i := 0; i < tc.capacity; i++ {
			w.alloc(uint64(i), isa.Inst{}, ThreadM, false, 0)
		}
		for i := 0; i < tc.head; i++ {
			w.freeHead(int32(i))
		}
		if w.tail != 0 || w.head != int32(tc.head) {
			t.Fatalf("setup: head %d tail %d", w.head, w.tail)
		}
		for i := int32(0); i < w.n; i++ {
			w.setISQ(ThreadM, w.ringSlot(i))
		}
		c := w.newMaskCursor(w.isq[ThreadM])
		var got []int32
		for s := c.next(); s >= 0; s = c.next() {
			got = append(got, s)
		}
		if len(got) != int(w.n) {
			t.Fatalf("capacity %d head %d: cursor returned %d slots, want %d", tc.capacity, tc.head, len(got), w.n)
		}
		for i, s := range got {
			if want := w.ringSlot(int32(i)); s != want {
				t.Fatalf("capacity %d head %d: slot %d is %d, want %d (ring age order, each once)", tc.capacity, tc.head, i, s, want)
			}
		}
	}
}

// Lockstep SS2 on these re-seeded crafty traces reached a ring with
// tail == 0 while its issue queues were non-empty, issued a slot twice
// and deadlocked with the R copy of the ROB-head load unissued: seeds 1,
// 4 and 14 in the measured region and seed 20 in the warmup.
func TestSS2LockstepSeeds(t *testing.T) {
	base, err := workload.ByName("crafty")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []uint64{1, 4, 14, 20} {
		p := base
		p.Seed = k*0x9e3779b97f4a7c15 + 3
		e := New(config.SS2(config.Factors{}), trace.New(p))
		if err := e.WarmupContext(context.Background(), 20_000); err != nil {
			t.Fatalf("seed %d warmup: %v", k, err)
		}
		if _, err := e.RunBudget(context.Background(), 80_000, 0); err != nil {
			t.Fatalf("seed %d: %v", k, err)
		}
	}
}

// Clearing a slot that is not in the issue queue means the issue stage
// visited it twice; it must fail loudly instead of driving isqCount
// below the mask's popcount.
func TestClearISQUnqueuedPanics(t *testing.T) {
	w := newWindow(8)
	s := w.alloc(0, isa.Inst{}, ThreadM, false, 0)
	w.setISQ(ThreadM, s)
	w.clearISQ(ThreadM, s)
	defer func() {
		if recover() == nil {
			t.Fatal("second clearISQ of the same slot did not panic")
		}
		if w.isqCount[ThreadM] != 0 {
			t.Fatalf("isqCount = %d after the refused clear", w.isqCount[ThreadM])
		}
	}()
	w.clearISQ(ThreadM, s)
}
