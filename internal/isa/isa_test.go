package isa

import (
	"strings"
	"testing"
)

func TestOpClassString(t *testing.T) {
	cases := map[OpClass]string{
		OpIALU:   "ialu",
		OpIMul:   "imul",
		OpIDiv:   "idiv",
		OpFAdd:   "fadd",
		OpFMul:   "fmul",
		OpFDiv:   "fdiv",
		OpLoad:   "load",
		OpStore:  "store",
		OpBranch: "branch",
	}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", c, got, want)
		}
	}
	if got := OpClass(200).String(); !strings.Contains(got, "200") {
		t.Errorf("unknown class string = %q", got)
	}
}

func TestClassPredicates(t *testing.T) {
	if !OpLoad.IsMem() || !OpStore.IsMem() {
		t.Error("load/store must be memory ops")
	}
	if OpIALU.IsMem() || OpBranch.IsMem() {
		t.Error("ialu/branch must not be memory ops")
	}
	for _, c := range []OpClass{OpFAdd, OpFMul, OpFDiv} {
		if !c.IsFP() {
			t.Errorf("%s should be FP", c)
		}
	}
	for _, c := range []OpClass{OpIALU, OpIMul, OpIDiv, OpLoad, OpStore, OpBranch} {
		if c.IsFP() {
			t.Errorf("%s should not be FP", c)
		}
	}
	if !OpIDiv.IsLongLatency() || !OpFDiv.IsLongLatency() {
		t.Error("divides are long latency")
	}
	if OpIMul.IsLongLatency() || OpFMul.IsLongLatency() {
		t.Error("multiplies are pipelined")
	}
}

func TestInstPredicates(t *testing.T) {
	br := Inst{Class: OpBranch, BranchKind: BranchCond, Dest: RegNone}
	if !br.IsBranch() || br.IsLoad() || br.IsStore() {
		t.Error("branch predicates wrong")
	}
	ld := Inst{Class: OpLoad, Dest: 3}
	if !ld.IsLoad() || ld.IsBranch() {
		t.Error("load predicates wrong")
	}
	st := Inst{Class: OpStore, Dest: RegNone}
	if !st.IsStore() {
		t.Error("store predicate wrong")
	}
}

func TestBranchKindString(t *testing.T) {
	for k, want := range map[BranchKind]string{
		BranchNone:     "none",
		BranchCond:     "cond",
		BranchUncond:   "uncond",
		BranchIndirect: "indirect",
	} {
		if got := k.String(); got != want {
			t.Errorf("%d = %q, want %q", k, got, want)
		}
	}
	if got := BranchKind(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown kind string = %q", got)
	}
}

func TestValidateAcceptsWellFormed(t *testing.T) {
	good := []Inst{
		{Class: OpIALU, Dest: 1, Src1: 2, Src2: 3},
		{Class: OpIALU, Dest: 1, Src1: RegNone, Src2: RegNone},
		{Class: OpLoad, Dest: 5, Src1: 6, Src2: RegNone, Addr: 0x1000},
		{Class: OpStore, Dest: RegNone, Src1: 6, Src2: 7, Addr: 0x1000},
		{Class: OpBranch, BranchKind: BranchCond, Dest: RegNone, Src1: 4, Src2: RegNone},
		{Class: OpFDiv, Dest: 32, Src1: 33, Src2: 34},
	}
	for i, in := range good {
		if err := in.Validate(); err != nil {
			t.Errorf("case %d: unexpected error %v", i, err)
		}
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	bad := []Inst{
		{Class: OpClass(42)},
		{Class: OpIALU, Dest: Inst{}.Dest + 127 + 1},
		{Class: OpIALU, Dest: 1, Src1: -2},
		{Class: OpIALU, Dest: 1, Src2: 127 - 127 - 2},               // -2: negative but not RegNone
		{Class: OpBranch, BranchKind: BranchNone, Dest: RegNone},    // branch without kind
		{Class: OpIALU, BranchKind: BranchCond, Dest: 1},            // kind without branch
		{Class: OpBranch, BranchKind: BranchCond, Dest: 2},          // branch writing a register
		{Class: OpStore, Dest: 2, Src1: 1, Src2: 3},                 // store writing a register
		{Class: OpBranch, BranchKind: BranchKind(9), Dest: RegNone}, // no such branch kind
	}
	for i, in := range bad {
		if err := in.Validate(); err == nil {
			t.Errorf("case %d: expected validation error for %+v", i, in)
		}
	}
}

func TestInstString(t *testing.T) {
	br := Inst{PC: 0x400, Class: OpBranch, BranchKind: BranchCond, Dest: RegNone, Taken: true, Target: 0x500}
	if s := br.String(); !strings.Contains(s, "branch") || !strings.Contains(s, "0x500") {
		t.Errorf("branch string = %q", s)
	}
	ld := Inst{PC: 0x404, Class: OpLoad, Dest: 3, Src1: 4, Addr: 0xbeef}
	if s := ld.String(); !strings.Contains(s, "load") || !strings.Contains(s, "0xbeef") {
		t.Errorf("load string = %q", s)
	}
	alu := Inst{PC: 0x408, Class: OpIALU, Dest: 3, Src1: 4, Src2: 5}
	if s := alu.String(); !strings.Contains(s, "ialu") {
		t.Errorf("alu string = %q", s)
	}
}
