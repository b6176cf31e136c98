package trace

import (
	"context"
	"slices"
	"unsafe"

	"repro/internal/isa"
)

// Tape is an immutable prefix of a profile's correct-path stream, stored
// column by column so that every machine simulating the profile can replay
// it instead of regenerating it. One head byte and three register bytes
// describe each instruction; loads and stores add an address, branches a
// target, and an instruction whose PC does not follow from its predecessor
// (the next word after a non-branch, the target after a branch) adds its
// PC. Those words share one column in stream order: an explicit PC comes
// before its instruction's address or target. The tape also keeps the
// profile's untouched wrong-path generator and the correct-path generator
// as it stood after the last instruction, so a Cursor continues exactly
// past the tape and any tape serves any run length.
type Tape struct {
	ops   []uint32 // per instruction: head | Dest<<8 | Src1<<16 | Src2<<24
	words []uint64 // explicit PCs, addresses and targets, in stream order

	end *Generator // the correct-path stream just past the last instruction
	wp  *Generator // the wrong-path stream, never advanced
}

// Head byte layout (the low byte of an ops entry).
const (
	headClass      = 0x0f
	headKindShift  = 4
	headKind       = 0x30
	headTaken      = 0x40
	headExplicitPC = 0x80
)

// tapeCheckEvery is how many instructions BuildTape generates between
// cancellation checks. The words column is sized from the share of words
// in the first tapeCheckEvery instructions.
const tapeCheckEvery = 1 << 12

// BuildTape generates the first n correct-path instructions of p's stream
// into a tape. It checks ctx every tapeCheckEvery instructions and returns
// ctx's error when it is done. It panics on an invalid profile, as New
// does.
func BuildTape(ctx context.Context, p Profile, n int) (*Tape, error) {
	g := New(p)
	t := &Tape{ops: make([]uint32, 0, n), end: g, wp: g.wp}
	g.wp = nil
	var next uint64 // the PC implied for the next instruction
	for i := 0; i < n; i++ {
		if i%tapeCheckEvery == 0 && i > 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if i == tapeCheckEvery {
				// Size the column for the rest of the tape, with 1/16 to
				// spare so phases with more words rarely regrow it.
				want := len(t.words) * n / i
				t.words = slices.Grow(t.words, want+want/16-len(t.words))
			}
		}
		next = t.push(t.end.Next(), next)
	}
	// A tape lives as long as the suite retains it: trim a column that
	// grew or was sized more than 1/8 past its length.
	if cap(t.words)-len(t.words) > len(t.words)/8 {
		t.words = slices.Clone(t.words)
	}
	return t, nil
}

// push appends in to the tape's columns. next is the PC implied for in;
// push returns the PC implied for the instruction after it.
func (t *Tape) push(in isa.Inst, next uint64) uint64 {
	h := uint32(in.Class) | uint32(in.BranchKind)<<headKindShift
	if in.Taken {
		h |= headTaken
	}
	if len(t.ops) == 0 || in.PC != next {
		h |= headExplicitPC
		t.words = append(t.words, in.PC)
	}
	t.ops = append(t.ops, h|uint32(uint8(in.Dest))<<8|uint32(uint8(in.Src1))<<16|uint32(uint8(in.Src2))<<24)
	switch in.Class {
	case isa.OpLoad, isa.OpStore:
		t.words = append(t.words, in.Addr)
	case isa.OpBranch:
		t.words = append(t.words, in.Target)
		return in.Target
	}
	return in.PC + instrBytes
}

// Len returns the number of instructions on the tape.
func (t *Tape) Len() int { return len(t.ops) }

// Profile returns the profile whose stream the tape holds.
func (t *Tape) Profile() Profile { return t.end.p }

// Bytes returns the memory the tape holds: its columns and the two
// generators it continues from, whose block layouts grow with the
// profile's code footprint (from about 0.1 MB for 24 KB of code to 10 MB
// for 1.5 MB).
func (t *Tape) Bytes() int {
	return t.columnBytes() + t.end.size() + t.wp.size()
}

// columnBytes is the size of the tape's columns.
func (t *Tape) columnBytes() int { return 4*len(t.ops) + 8*len(t.words) }

// size is the memory of a generator's block layout and loop counters.
func (g *Generator) size() int {
	n := len(g.blocks)*int(unsafe.Sizeof(block{})) + 8*len(g.loopLeft)
	for i := range g.blocks {
		n += 8 * len(g.blocks[i].indirect)
	}
	return n
}

// Cursor returns a source that replays the tape from its first
// instruction, then continues the generator's stream past its end. Its
// wrong-path stream is its own copy of the profile's, so cursors over one
// tape are independent and may run concurrently.
func (t *Tape) Cursor() *Cursor { return &Cursor{t: t, wp: t.wp.cloneStream()} }

// Cursor replays a Tape as a trace.CloneSource: it yields exactly the
// streams a Generator for the tape's profile would. Reading the tape
// allocates nothing; the first read past its end clones the generator
// saved there.
type Cursor struct {
	t    *Tape
	i    int    // next instruction on the tape
	w    int    // next entry of its words column
	pc   uint64 // the next instruction's PC, unless explicit
	past *Generator
	wp   *Generator
}

// Next implements Source.
func (c *Cursor) Next() isa.Inst {
	t := c.t
	if c.i == len(t.ops) {
		if c.past == nil {
			c.past = t.end.cloneStream()
		}
		return c.past.Next()
	}
	h := t.ops[c.i]
	in := isa.Inst{
		PC:         c.pc,
		Class:      isa.OpClass(h & headClass),
		Dest:       int8(h >> 8),
		Src1:       int8(h >> 16),
		Src2:       int8(h >> 24),
		Taken:      h&headTaken != 0,
		BranchKind: isa.BranchKind(h & headKind >> headKindShift),
	}
	c.i++
	if h&headExplicitPC != 0 {
		in.PC = t.words[c.w]
		c.w++
	}
	c.pc = in.PC + instrBytes
	switch in.Class {
	case isa.OpLoad, isa.OpStore:
		in.Addr = t.words[c.w]
		c.w++
	case isa.OpBranch:
		in.Target = t.words[c.w]
		c.w++
		c.pc = in.Target
	}
	return in
}

// NextWrongPath implements Source.
func (c *Cursor) NextWrongPath() isa.Inst { return c.wp.Next() }

// CloneSource implements CloneSource: the copy continues both streams
// from the cursor's positions and shares the tape.
func (c *Cursor) CloneSource() Source {
	d := *c
	d.wp = c.wp.cloneStream()
	if c.past != nil {
		d.past = c.past.cloneStream()
	}
	return &d
}
