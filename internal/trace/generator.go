package trace

import (
	"repro/internal/isa"
	"repro/internal/rng"
)

// maxDepDistance bounds register dependency distances. The generator
// rotates destination registers through regRotation architectural names, so
// a producer at distance < regRotation is guaranteed not to have been
// overwritten.
const (
	regRotation    = 112
	regBase        = 8 // registers 0-7 are never written (always-ready)
	maxDepDistance = regRotation - 8
	instrBytes     = 4
	codeBase       = 0x0040_0000 // text segment base
	hotBase        = 0x0800_0000 // hot-region base (stack-like)
	dataBase       = 0x1000_0000 // data segment base
)

// block is one basic block in the synthetic code layout.
type block struct {
	start  uint64 // first instruction PC
	n      int    // instructions including the terminating branch
	kind   isa.BranchKind
	isLoop bool
	// loopIters is the block's fixed trip count (loops exit after
	// loopIters iterations, every visit).
	loopIters int
	bias      float64 // taken probability for plain conditional branches
	target    int     // taken-target block index (loops target themselves)
	// indirect branch targets; index 0 is the favorite.
	indirect []int
}

// Generator emits the deterministic dynamic instruction stream for a
// Profile. It is not safe for concurrent use; create one per simulation.
type Generator struct {
	p      Profile
	r      *rng.RNG
	blocks []block

	cur     int // current block
	off     int // instruction offset within the block
	seq     uint64
	destSeq uint64 // count of register-writing instructions emitted
	phase   int
	phaseN  int // instructions emitted in the current phase

	// loopLeft tracks remaining taken iterations for the current visit to
	// each loop block.
	loopLeft []int

	memPos      uint64 // strided-walk position
	lastLoadSeq uint64
	haveLoad    bool
	// chaseSeq is the dest-sequence of the most recent pointer-chase
	// load. Chased loads link to the previous chain member (a real
	// linked-list traversal), not merely to the previous load — otherwise
	// any interleaved independent load would break the chain and no
	// serialization would occur.
	chaseSeq  uint64
	haveChase bool

	// aluRing tracks the dest-sequence numbers of recent integer ALU
	// instructions. Memory addresses are based on these (induction
	// variables, pointer arithmetic) rather than on arbitrary recent
	// producers — otherwise ~a quarter of addresses would depend on load
	// results, turning every workload into an accidental pointer chase.
	aluRing [8]uint64
	aluN    int

	// wrong-path sub-stream state (forked RNG, separate block walk).
	wp *Generator
}

// New builds a generator for p. It panics if the profile fails validation,
// because profiles are compiled into the binary and a bad one is a bug.
func New(p Profile) *Generator {
	if err := p.Validate(); err != nil {
		panic("trace: " + err.Error())
	}
	r := rng.New(p.Seed)
	g := &Generator{p: p, r: r}
	g.buildBlocks()
	g.loopLeft = make([]int, len(g.blocks))
	wpProfile := p
	wpProfile.Seed = p.Seed ^ 0x9e3779b97f4a7c15
	wp := &Generator{p: wpProfile, r: rng.New(wpProfile.Seed)}
	wp.buildBlocks()
	wp.loopLeft = make([]int, len(wp.blocks))
	g.wp = wp
	return g
}

// buildBlocks lays out the synthetic code: contiguous basic blocks whose
// lengths are geometric around AvgBlockLen, each ending in a branch with a
// fixed behavior.
func (g *Generator) buildBlocks() {
	p := &g.p
	// First pass: lay out block boundaries and kinds until the code
	// footprint is exhausted. Target indices need the final block count,
	// so they are assigned in a second pass.
	limit := uint64(codeBase) + p.CodeFootprint
	pc := uint64(codeBase)
	for pc < limit || len(g.blocks) < 4 {
		n := g.r.Geometric(p.AvgBlockLen, 4*int(p.AvgBlockLen)+8)
		if n < 2 {
			n = 2
		}
		if rem := int((limit - pc) / instrBytes); pc < limit && n > rem && len(g.blocks) >= 4 {
			n = rem
			if n < 2 {
				n = 2
			}
		}
		b := block{start: pc, n: n}
		kindDraw := g.r.Float64()
		switch {
		case kindDraw < p.LoopFrac:
			b.kind = isa.BranchCond
			b.isLoop = true
			b.loopIters = g.r.Geometric(p.LoopMean, 10*int(p.LoopMean)+10)
			if b.loopIters < 2 {
				b.loopIters = 2
			}
		case kindDraw < p.LoopFrac+p.UncondFrac:
			b.kind = isa.BranchUncond
		case kindDraw < p.LoopFrac+p.UncondFrac+p.IndirectFrac:
			b.kind = isa.BranchIndirect
		default:
			b.kind = isa.BranchCond
			if g.r.Bool(p.PredictableFrac) {
				// Strongly biased branch: almost always or almost never
				// taken.
				if g.r.Bool(0.5) {
					b.bias = 0.02 + 0.03*g.r.Float64()
				} else {
					b.bias = 0.95 + 0.03*g.r.Float64()
				}
			} else {
				b.bias = 0.2 + 0.6*g.r.Float64()
			}
		}
		g.blocks = append(g.blocks, b)
		pc += uint64(n) * instrBytes
	}
	// Second pass: assign branch targets now that the block count is
	// known. Targets are biased toward the hot-code prefix per
	// CodeHotFrac, reproducing instruction-cache locality.
	nBlocks := len(g.blocks)
	hotBlocks := nBlocks
	if p.CodeHotFrac > 0 {
		hotBytes := p.CodeHotBytes
		if hotBytes == 0 {
			hotBytes = 32 * 1024
		}
		hotBlocks = 0
		limit := uint64(codeBase) + hotBytes
		for hotBlocks < nBlocks && g.blocks[hotBlocks].start < limit {
			hotBlocks++
		}
		if hotBlocks < 1 {
			hotBlocks = 1
		}
	}
	pickTarget := func() int {
		if p.CodeHotFrac > 0 && g.r.Bool(p.CodeHotFrac) {
			return g.r.Intn(hotBlocks)
		}
		return g.r.Intn(nBlocks)
	}
	for i := range g.blocks {
		b := &g.blocks[i]
		switch {
		case b.isLoop:
			b.target = i // self loop
		case b.kind == isa.BranchIndirect:
			b.indirect = make([]int, p.IndirectTargets)
			for t := range b.indirect {
				b.indirect[t] = pickTarget()
			}
		default:
			b.target = pickTarget()
		}
	}
}

// Seq returns the number of correct-path instructions emitted so far.
func (g *Generator) Seq() uint64 { return g.seq }

// CloneSource returns a generator that continues both the correct-path and
// wrong-path streams from their current positions. The block layout is
// immutable after construction and is shared; all mutable stream state (RNG,
// loop trip counts, block cursor, dependency rings) is copied.
func (g *Generator) CloneSource() Source { return g.clone() }

func (g *Generator) clone() *Generator {
	c := g.cloneStream()
	if g.wp != nil {
		c.wp = g.wp.cloneStream()
	}
	return c
}

// cloneStream copies one stream's mutable state without its wrong-path
// side stream.
func (g *Generator) cloneStream() *Generator {
	c := *g
	c.r = g.r.Clone()
	c.loopLeft = append([]int(nil), g.loopLeft...)
	c.wp = nil
	return &c
}

// curPhase returns the active phase and advances phase bookkeeping by one
// instruction.
func (g *Generator) stepPhase() *Phase {
	ph := &g.p.Phases[g.phase]
	g.phaseN++
	if g.phaseN >= ph.Len {
		g.phaseN = 0
		g.phase = (g.phase + 1) % len(g.p.Phases)
	}
	return ph
}

// rotReg maps a destination-sequence number to its register. Rotating over
// register-writing instructions only makes the "producer not yet
// overwritten" guarantee exact: a source at dest-distance d < regRotation
// always reads the instruction that wrote it d register-writes ago.
func rotReg(destSeq uint64) int8 { return int8(regBase + destSeq%regRotation) }

// srcFor draws a register source at a dependency distance (in register
// writes) behind the current instruction, or RegNone when no producer is in
// range.
func (g *Generator) srcFor(ph *Phase) int8 {
	var dist uint64
	if g.r.Bool(ph.ChainFrac) {
		dist = 1
	} else {
		dist = uint64(g.r.Geometric(ph.DepMean, ph.DepMax))
	}
	if dist > g.destSeq {
		return isa.RegNone
	}
	return rotReg(g.destSeq - dist)
}

// ringSrc draws a source from the ALU spine ring, or RegNone when no spine
// value is within the rotation window (always-ready constant/immediate).
func (g *Generator) ringSrc() int8 {
	if g.aluN > 0 {
		tries := g.aluN
		if tries > len(g.aluRing) {
			tries = len(g.aluRing)
		}
		pick := g.aluRing[g.r.Intn(tries)]
		dist := g.destSeq - pick
		if dist >= 1 && dist < regRotation {
			return rotReg(pick)
		}
	}
	return isa.RegNone
}

// addrSrc draws the register source for an address computation: a recent
// spine result still within the rotation window, falling back to the
// general dependency draw.
func (g *Generator) addrSrc(ph *Phase) int8 {
	if s := g.ringSrc(); s != isa.RegNone {
		return s
	}
	return g.srcFor(ph)
}

// chaseAddr draws the address of a pointer-chase link: within the hot
// region (cheap, cache-resident traversal) unless ChaseColdFrac sends it
// into the cold footprint, or no hot region exists.
func (g *Generator) chaseAddr(ph *Phase) uint64 {
	if ph.HotFrac > 0 && !g.r.Bool(ph.ChaseColdFrac) {
		hot := ph.HotBytes
		if hot == 0 {
			hot = 32 * 1024
		}
		return hotBase + uint64(g.r.Intn(int(hot)))&^7
	}
	fp := ph.DataFootprint
	return dataBase + uint64(g.r.Intn(int(fp)))&^7
}

// dataAddr draws a memory address from the phase's address model: a hot
// region (stack, hot structures) with probability HotFrac, otherwise the
// strided/random mixture over the full footprint. The hot region lives
// below the footprint so cold sweeps do not alias it.
func (g *Generator) dataAddr(ph *Phase) uint64 {
	if ph.HotFrac > 0 && g.r.Bool(ph.HotFrac) {
		hot := ph.HotBytes
		if hot == 0 {
			hot = 32 * 1024
		}
		return hotBase + uint64(g.r.Intn(int(hot)))&^7
	}
	fp := ph.DataFootprint
	if g.r.Bool(ph.StrideFrac) {
		stride := ph.StrideBytes
		if stride == 0 {
			stride = 8
		}
		g.memPos = (g.memPos + stride) % fp
		return dataBase + g.memPos
	}
	return dataBase + uint64(g.r.Intn(int(fp)))&^7
}

// Next emits the next correct-path instruction.
func (g *Generator) Next() isa.Inst {
	b := &g.blocks[g.cur]
	pc := b.start + uint64(g.off)*instrBytes
	var in isa.Inst
	if g.off == b.n-1 {
		var next int
		in, next = g.branchInst(b, pc)
		g.cur, g.off = next, 0
	} else {
		ph := g.stepPhase()
		in = g.bodyInst(ph, pc)
		g.off++
	}
	g.seq++
	return in
}

// bodyInst synthesizes one non-branch instruction.
func (g *Generator) bodyInst(ph *Phase, pc uint64) isa.Inst {
	cls := isa.OpClass(g.r.Pick(ph.Mix[:]))
	in := isa.Inst{PC: pc, Class: cls, Dest: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone}
	switch {
	case cls == isa.OpLoad:
		if g.r.Bool(ph.PointerChaseFrac) {
			// Chain member: the address depends on the previous chain
			// member's result (falling back to the last load, then the
			// spine, when the chain head left the rotation window).
			src := isa.RegNone
			if g.haveChase && g.destSeq-g.chaseSeq < regRotation {
				src = rotReg(g.chaseSeq)
			} else if g.haveLoad && g.destSeq-g.lastLoadSeq < regRotation {
				src = rotReg(g.lastLoadSeq)
			}
			if src == isa.RegNone {
				src = g.addrSrc(ph)
			}
			in.Src1 = src
			g.chaseSeq = g.destSeq
			g.haveChase = true
			in.Addr = g.chaseAddr(ph)
		} else {
			in.Src1 = g.addrSrc(ph)
			in.Addr = g.dataAddr(ph)
		}
		in.Dest = rotReg(g.destSeq)
		g.lastLoadSeq = g.destSeq
		g.haveLoad = true
		g.destSeq++
	case cls == isa.OpStore:
		in.Src1 = g.addrSrc(ph) // address base
		in.Src2 = g.srcFor(ph)  // data
		in.Addr = g.dataAddr(ph)
	case cls == isa.OpIALU:
		// A fraction of integer ALU work is induction variables and
		// pointer arithmetic: a spine that consumes only other spine
		// results and therefore runs ahead of outstanding misses. Spine
		// membership is all-or-nothing — one source drawn from a load or
		// FP result would stall the spine (and every address computed
		// from it) behind the most recent cache miss, eliminating all
		// memory-level parallelism. The remaining ALU ops are consumers
		// (comparisons, reductions) that read anything but never enter
		// the ring that addresses are drawn from.
		if g.r.Bool(aluSpineFrac) {
			in.Src1 = g.ringSrc()
			if g.r.Bool(ph.SrcTwoProb) {
				in.Src2 = g.ringSrc()
			}
			in.Dest = rotReg(g.destSeq)
			g.aluRing[g.aluN%len(g.aluRing)] = g.destSeq
			g.aluN++
		} else {
			in.Src1 = g.srcFor(ph)
			if g.r.Bool(ph.SrcTwoProb) {
				in.Src2 = g.srcFor(ph)
			}
			in.Dest = rotReg(g.destSeq)
		}
		g.destSeq++
	default:
		in.Src1 = g.srcFor(ph)
		if g.r.Bool(ph.SrcTwoProb) {
			in.Src2 = g.srcFor(ph)
		}
		in.Dest = rotReg(g.destSeq)
		g.destSeq++
	}
	return in
}

// aluSpineFrac is the fraction of integer ALU instructions that belong to
// the pure address spine (induction variables, pointer arithmetic).
const aluSpineFrac = 0.6

// branchInst synthesizes a block's terminating branch, resolves its actual
// outcome, and returns the successor block index.
func (g *Generator) branchInst(b *block, pc uint64) (isa.Inst, int) {
	ph := g.stepPhase()
	in := isa.Inst{
		PC: pc, Class: isa.OpBranch, BranchKind: b.kind,
		Dest: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone,
	}
	fallIdx := (g.cur + 1) % len(g.blocks)
	next := fallIdx
	switch b.kind {
	case isa.BranchCond:
		// Loop conditions resolve from the quickly-available spine; other
		// conditions split between spine and arbitrary data per profile.
		if b.isLoop || g.r.Bool(ph.BranchSpineFrac) {
			in.Src1 = g.ringSrc()
		} else {
			in.Src1 = g.srcFor(ph)
		}
		if b.isLoop {
			if g.loopLeft[g.cur] == 0 {
				// Fresh entry: arm the block's fixed trip count.
				g.loopLeft[g.cur] = b.loopIters
			}
			g.loopLeft[g.cur]--
			in.Taken = g.loopLeft[g.cur] > 0
		} else {
			in.Taken = g.r.Bool(b.bias)
		}
		if in.Taken {
			next = b.target
		}
	case isa.BranchUncond:
		in.Taken = true
		next = b.target
	case isa.BranchIndirect:
		in.Src1 = g.srcFor(ph)
		in.Taken = true
		ti := 0
		if !g.r.Bool(0.7) && len(b.indirect) > 1 {
			ti = 1 + g.r.Intn(len(b.indirect)-1)
		}
		next = b.indirect[ti]
	}
	if in.Taken {
		in.Target = g.blocks[next].start
	} else {
		in.Target = g.blocks[fallIdx].start
	}
	return in, next
}

// NextWrongPath emits one instruction from the wrong-path side stream.
// Wrong-path instructions consume pipeline resources but never retire; the
// side stream is deterministic and independent of the correct path, so the
// correct-path trace is identical across machine configurations.
func (g *Generator) NextWrongPath() isa.Inst {
	in := g.wp.Next()
	return in
}
