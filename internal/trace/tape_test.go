package trace

import (
	"context"
	"errors"
	"testing"
)

// A tape stores about eight bytes per instruction: the head and register
// bytes plus an address per memory operation and a target per branch.
func TestTapeIsCompact(t *testing.T) {
	const n = 100_000
	tape, err := BuildTape(context.Background(), testProfile(), n)
	if err != nil {
		t.Fatal(err)
	}
	perInst := float64(tape.columnBytes()) / n
	// testProfile is 37% memory operations with 6-instruction blocks:
	// 4 + 8*(0.37*5/6 + 1/6) = 7.8 bytes.
	if perInst < 4 || perInst > 8.5 {
		t.Fatalf("tape costs %.2f bytes per instruction, want about 7.8", perInst)
	}
	explicit := 0
	for _, h := range tape.ops {
		if h&headExplicitPC != 0 {
			explicit++
		}
	}
	if explicit != 1 {
		t.Fatalf("%d explicit PCs, want only the first instruction's", explicit)
	}
}

// Reading a tape allocates nothing; only the first read past its end
// clones the generator saved there.
func TestCursorAllocations(t *testing.T) {
	const n = 4096
	tape, err := BuildTape(context.Background(), testProfile(), n)
	if err != nil {
		t.Fatal(err)
	}
	c := tape.Cursor()
	if a := testing.AllocsPerRun(n/4-1, func() { c.Next() }); a != 0 {
		t.Fatalf("reading the tape allocates %.2f per instruction", a)
	}
	// Cursors parked at the tape's end, one per AllocsPerRun call (it
	// makes one warm-up call before the counted ones).
	const runs = 8
	atEnd := make([]*Cursor, runs+1)
	for k := range atEnd {
		atEnd[k] = tape.Cursor()
		for atEnd[k].i < n {
			atEnd[k].Next()
		}
	}
	k := 0
	a := testing.AllocsPerRun(runs, func() {
		c := atEnd[k]
		k++
		for i := 0; i < 2000; i++ {
			c.Next()
			c.NextWrongPath()
		}
	})
	// One generator clone: its struct, RNG and loop counters.
	if a > 3 {
		t.Fatalf("crossing the tape's end and reading on allocates %.1f times, want one generator clone (3)", a)
	}
}

func TestBuildTapeCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BuildTape(ctx, testProfile(), 2*tapeCheckEvery); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled build returned %v", err)
	}
}

// FuzzTapeCursor: for a random profile seed and tape length, a cursor
// read past the tape's end, cloned at random points and interleaved with
// wrong-path reads yields exactly a plain generator's streams. Each clone
// is taken from both sides, the originals run on and are dropped, and the
// clones continue, so a clone that shared state with its original fails.
func FuzzTapeCursor(f *testing.F) {
	f.Add(uint64(12345), uint16(0), []byte{0, 1, 2, 0, 3})
	f.Add(uint64(1), uint16(1), []byte{2, 2, 0x40, 1, 0xff})
	f.Add(uint64(7), uint16(700), []byte{0xfc, 0xfc, 0xfc, 2, 0xfc, 5, 0xfc})
	f.Add(uint64(3), uint16(100), []byte{0x0a, 0x01, 0x0b, 0x0a, 0x01})
	f.Add(uint64(0x9e3779b97f4a7c15), uint16(2), []byte{0x05, 0x03, 0x41, 0x80})
	f.Fuzz(func(t *testing.T, seed uint64, length uint16, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		p := testProfile()
		p.Seed = seed
		n := int(length % 2048)
		tape, err := BuildTape(context.Background(), p, n)
		if err != nil {
			t.Fatal(err)
		}
		var c, g Source = tape.Cursor(), New(p)
		read := 0
		step := func(k int) {
			for j := 0; j < k; j++ {
				if got, want := c.Next(), g.Next(); got != want {
					t.Fatalf("instruction %d (tape %d): got %v, want %v", read, n, got, want)
				}
				read++
			}
		}
		for _, op := range ops {
			k := int(op>>2) * 4
			switch op & 3 {
			case 0:
				step(k + 1)
			case 1:
				for j := 0; j <= k/8; j++ {
					if got, want := c.NextWrongPath(), g.NextWrongPath(); got != want {
						t.Fatalf("wrong path after %d: got %v, want %v", read, got, want)
					}
				}
			case 2:
				cc := c.(CloneSource).CloneSource()
				gc := g.(CloneSource).CloneSource()
				step(k)
				for j := 0; j < k/4; j++ {
					c.NextWrongPath()
					g.NextWrongPath()
				}
				c, g = cc, gc
				read -= k
			case 3:
				// Jump past the tape's end.
				if read <= n {
					step(n - read + 1)
				}
			}
		}
		step(64)
	})
}

// traceBenchTape bounds the tapes BenchmarkTrace builds, so a long
// benchtime replays one tape several times instead of growing it.
const traceBenchTape = 1 << 20

// BenchmarkTrace is the trace layer's rung: one op is one correct-path
// instruction, so ns/op is ns per instruction. Next generates it, TapeBuild
// generates and stores it (reporting the tape's column bytes per
// instruction), and CursorNext replays it from a tape.
func BenchmarkTrace(b *testing.B) {
	p := testProfile()
	b.Run("Next", func(b *testing.B) {
		g := New(p)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.Next()
		}
	})
	b.Run("TapeBuild", func(b *testing.B) {
		b.ReportAllocs()
		var bytes, n int
		for left := b.N; left > 0; left -= traceBenchTape {
			tape, err := BuildTape(context.Background(), p, min(left, traceBenchTape))
			if err != nil {
				b.Fatal(err)
			}
			bytes += tape.columnBytes()
			n += tape.Len()
		}
		b.ReportMetric(float64(bytes)/float64(n), "B/instr")
	})
	b.Run("CursorNext", func(b *testing.B) {
		tape, err := BuildTape(context.Background(), p, min(b.N, traceBenchTape))
		if err != nil {
			b.Fatal(err)
		}
		c := tape.Cursor()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if c.i == tape.Len() {
				c = tape.Cursor()
			}
			c.Next()
		}
	})
}
