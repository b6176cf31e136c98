// Package isa defines the abstract instruction set used by the simulator.
//
// The simulator is trace driven: workloads are streams of dynamic
// instruction records rather than encoded machine instructions. Each record
// carries everything the timing model needs — an operation class (which
// selects a functional unit and latency), architectural register operands
// (which establish data dependencies at rename), and, for memory and
// control operations, the effective address or branch outcome.
//
// The operation classes mirror the Alpha-flavored mix the paper's Table 1
// provisions functional units for: integer ALU, integer multiply/divide,
// floating-point add, floating-point multiply/divide, loads, stores, and
// branches.
package isa

import "fmt"

// OpClass identifies the kind of operation an instruction performs. It
// determines which functional unit class executes it and with what latency.
type OpClass uint8

const (
	// OpIALU is a single-cycle integer operation (add, logical, shift,
	// compare). Branch condition evaluation and address generation also
	// use this class of unit.
	OpIALU OpClass = iota
	// OpIMul is a pipelined integer multiply.
	OpIMul
	// OpIDiv is an unpipelined integer divide.
	OpIDiv
	// OpFAdd is a pipelined floating-point add/subtract/convert/compare.
	OpFAdd
	// OpFMul is a pipelined floating-point multiply.
	OpFMul
	// OpFDiv is an unpipelined floating-point divide or square root.
	OpFDiv
	// OpLoad reads memory. Address generation occupies an issue slot and a
	// memory port; the access then proceeds through the cache hierarchy.
	OpLoad
	// OpStore writes memory. The address is generated at issue; the data
	// is committed to the cache at retirement.
	OpStore
	// OpBranch is a conditional or unconditional control transfer.
	OpBranch
	// NumOpClasses is the number of operation classes.
	NumOpClasses = int(OpBranch) + 1
)

var opNames = [NumOpClasses]string{
	"ialu", "imul", "idiv", "fadd", "fmul", "fdiv", "load", "store", "branch",
}

// String returns the lower-case mnemonic for the class.
func (c OpClass) String() string {
	if int(c) < len(opNames) {
		return opNames[c]
	}
	return fmt.Sprintf("opclass(%d)", uint8(c))
}

// IsMem reports whether the class accesses memory.
func (c OpClass) IsMem() bool { return c == OpLoad || c == OpStore }

// IsFP reports whether the class executes on a floating-point unit.
func (c OpClass) IsFP() bool { return c == OpFAdd || c == OpFMul || c == OpFDiv }

// IsLongLatency reports whether the class is unpipelined in the baseline
// machine (divides block their functional unit for the full latency).
func (c OpClass) IsLongLatency() bool { return c == OpIDiv || c == OpFDiv }

// NumArchRegs is the size of the architectural register name space visible
// to the dependency model. Integer and floating-point names share one flat
// space for simplicity (the Alpha ISA the paper simulates has 32 integer
// plus 32 floating-point registers; exposing the combined 64-wide space —
// plus headroom the generator uses to express long dependency distances —
// keeps rename pressure realistic without modeling two register files).
const NumArchRegs = 128

// RegNone marks an absent register operand.
const RegNone int8 = -1

// Inst is one dynamic instruction in a workload trace.
//
// Register fields name architectural registers in [0, NumArchRegs) or
// RegNone. The rename stage converts them into producer links, so the
// timing model never consults register values — only availability times.
type Inst struct {
	// PC is the instruction's address, used for I-cache accesses and as
	// the branch predictor index.
	PC uint64
	// Class selects the functional unit and latency.
	Class OpClass
	// Dest is the destination register, or RegNone (stores, branches).
	Dest int8
	// Src1, Src2 are source registers, or RegNone.
	Src1, Src2 int8
	// Addr is the effective address for loads and stores.
	Addr uint64
	// Taken is the actual outcome for branches.
	Taken bool
	// Target is the actual target address for taken branches (the
	// fall-through address otherwise).
	Target uint64
	// BranchKind distinguishes branch flavors for the predictor model.
	BranchKind BranchKind
}

// BranchKind classifies control transfers.
type BranchKind uint8

const (
	// BranchNone marks non-branch instructions.
	BranchNone BranchKind = iota
	// BranchCond is a conditional direct branch.
	BranchCond
	// BranchUncond is an unconditional direct branch or call.
	BranchUncond
	// BranchIndirect is an indirect jump, call, or return.
	BranchIndirect
)

// String returns a short name for the branch kind.
func (k BranchKind) String() string {
	switch k {
	case BranchNone:
		return "none"
	case BranchCond:
		return "cond"
	case BranchUncond:
		return "uncond"
	case BranchIndirect:
		return "indirect"
	}
	return fmt.Sprintf("branchkind(%d)", uint8(k))
}

// IsBranch reports whether the instruction is a control transfer.
func (in Inst) IsBranch() bool { return in.Class == OpBranch }

// IsLoad reports whether the instruction reads memory.
func (in Inst) IsLoad() bool { return in.Class == OpLoad }

// IsStore reports whether the instruction writes memory.
func (in Inst) IsStore() bool { return in.Class == OpStore }

// String formats the instruction for debugging.
func (in Inst) String() string {
	switch {
	case in.IsBranch():
		dir := "nt"
		if in.Taken {
			dir = "t"
		}
		return fmt.Sprintf("%#x: %s/%s %s -> %#x", in.PC, in.Class, in.BranchKind, dir, in.Target)
	case in.Class.IsMem():
		return fmt.Sprintf("%#x: %s r%d, r%d, [%#x]", in.PC, in.Class, in.Dest, in.Src1, in.Addr)
	default:
		return fmt.Sprintf("%#x: %s r%d <- r%d, r%d", in.PC, in.Class, in.Dest, in.Src1, in.Src2)
	}
}

// Validate checks structural well-formedness of a trace record and returns
// a descriptive error for generator bugs. It is used by tests and by the
// trace generator's self-checks, not on the simulator fast path.
func (in Inst) Validate() error {
	if int(in.Class) >= NumOpClasses {
		return fmt.Errorf("invalid op class %d", in.Class)
	}
	checkReg := func(name string, r int8) error {
		if r != RegNone && (r < 0 || int(r) >= NumArchRegs) {
			return fmt.Errorf("%s register %d out of range", name, r)
		}
		return nil
	}
	if err := checkReg("dest", in.Dest); err != nil {
		return err
	}
	if err := checkReg("src1", in.Src1); err != nil {
		return err
	}
	if err := checkReg("src2", in.Src2); err != nil {
		return err
	}
	if in.BranchKind > BranchIndirect {
		return fmt.Errorf("invalid branch kind %d", in.BranchKind)
	}
	if in.IsBranch() != (in.BranchKind != BranchNone) {
		return fmt.Errorf("branch kind %s inconsistent with class %s", in.BranchKind, in.Class)
	}
	if in.IsBranch() && in.Dest != RegNone {
		return fmt.Errorf("branch with destination register r%d", in.Dest)
	}
	if in.IsStore() && in.Dest != RegNone {
		return fmt.Errorf("store with destination register r%d", in.Dest)
	}
	return nil
}
