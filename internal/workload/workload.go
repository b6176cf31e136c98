// Package workload defines the 25 synthetic benchmark profiles standing in
// for the paper's SPEC2K SimPoint workloads: 11 integer benchmarks (mcf is
// excluded, as in the paper) and 14 floating-point benchmarks.
//
// Each profile's parameters — instruction mix, dependency distances, branch
// population, code and data footprints, hot-region locality — are tuned so
// that its single-thread (SS1) IPC and its sensitivities to the paper's
// X/C/B/S factors land in the band the paper reports for the benchmark of
// the same name. The tuning targets are the SS1 IPCs read off the paper's
// Figure 2 and the per-class factor effects of Table 3. See
// docs/EXPERIMENTS.md for the experiment catalog that reports the
// measured values.
package workload

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/isa"
	"repro/internal/trace"
)

const (
	kb = 1024
	mb = 1024 * 1024
)

// mix builds a mix array from per-class weights (branch weight stays zero;
// branches come from the block structure).
func mix(ialu, imul, idiv, fadd, fmul, fdiv, load, store float64) [isa.NumOpClasses]float64 {
	var m [isa.NumOpClasses]float64
	m[isa.OpIALU] = ialu
	m[isa.OpIMul] = imul
	m[isa.OpIDiv] = idiv
	m[isa.OpFAdd] = fadd
	m[isa.OpFMul] = fmul
	m[isa.OpFDiv] = fdiv
	m[isa.OpLoad] = load
	m[isa.OpStore] = store
	return m
}

// seedFor derives a stable per-benchmark seed from its name (FNV-1a).
func seedFor(name string) uint64 {
	var h uint64 = 0xcbf29ce484222325
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 0x100000001b3
	}
	return h
}

// intProfile fills the common fields of an integer benchmark.
func intProfile(name string, high bool, p trace.Profile) trace.Profile {
	p.Name = name
	p.Class = trace.IntClass
	p.HighIPC = high
	p.Seed = seedFor(name)
	return p
}

// fpProfile fills the common fields of a floating-point benchmark.
func fpProfile(name string, high bool, p trace.Profile) trace.Profile {
	p.Name = name
	p.Class = trace.FPClass
	p.HighIPC = high
	p.Seed = seedFor(name)
	return p
}

// phase1 wraps a single phase.
func phase1(ph trace.Phase) []trace.Phase {
	if ph.Len == 0 {
		ph.Len = 1 << 20
	}
	return []trace.Phase{ph}
}

// Integer returns the 11 SPECint2K-like profiles in ascending SS1-IPC
// order, matching the paper's Figure 2(a).
func Integer() []trace.Profile {
	return []trace.Profile{
		// gap: group theory interpreter. Modest ILP, mediocre branch
		// predictability, pointer-heavy heap traffic.
		intProfile("gap", false, trace.Profile{
			CodeFootprint: 192 * kb, AvgBlockLen: 6,
			CodeHotFrac: 0.9, CodeHotBytes: 32 * kb,
			LoopFrac: 0.10, UncondFrac: 0.12, IndirectFrac: 0.04,
			LoopMean: 12, PredictableFrac: 0.80, IndirectTargets: 6,
			Phases: phase1(trace.Phase{
				Mix:     mix(0.52, 0.03, 0.004, 0, 0, 0, 0.30, 0.15),
				DepMean: 4, DepMax: 24, ChainFrac: 0.40, SrcTwoProb: 0.35,
				DataFootprint: 24 * mb, StrideFrac: 0.25, StrideBytes: 16,
				PointerChaseFrac: 0.34, ChaseColdFrac: 0.05, HotFrac: 0.82, HotBytes: 48 * kb,
				BranchSpineFrac: 0.45,
			}),
		}),
		// vpr-route: maze routing over large graphs; pointer chasing and
		// poorly predictable comparisons.
		intProfile("vpr-route", false, trace.Profile{
			CodeFootprint: 96 * kb, AvgBlockLen: 5,
			CodeHotFrac: 0.9, CodeHotBytes: 32 * kb,
			LoopFrac: 0.12, UncondFrac: 0.08, IndirectFrac: 0.01,
			LoopMean: 10, PredictableFrac: 0.76, IndirectTargets: 4,
			Phases: phase1(trace.Phase{
				Mix:     mix(0.50, 0.02, 0.003, 0.04, 0.03, 0.003, 0.27, 0.11),
				DepMean: 4, DepMax: 24, ChainFrac: 0.40, SrcTwoProb: 0.4,
				DataFootprint: 16 * mb, StrideFrac: 0.25, StrideBytes: 16,
				PointerChaseFrac: 0.32, ChaseColdFrac: 0.055, HotFrac: 0.82, HotBytes: 48 * kb,
				BranchSpineFrac: 0.40,
			}),
		}),
		// parser: dictionary word parsing; heavy pointer chasing, short
		// blocks, data-dependent branches.
		intProfile("parser", false, trace.Profile{
			CodeFootprint: 128 * kb, AvgBlockLen: 5,
			CodeHotFrac: 0.9, CodeHotBytes: 32 * kb,
			LoopFrac: 0.10, UncondFrac: 0.10, IndirectFrac: 0.02,
			LoopMean: 8, PredictableFrac: 0.80, IndirectTargets: 4,
			Phases: phase1(trace.Phase{
				Mix:     mix(0.55, 0.01, 0.002, 0, 0, 0, 0.28, 0.12),
				DepMean: 4, DepMax: 20, ChainFrac: 0.40, SrcTwoProb: 0.35,
				DataFootprint: 12 * mb, StrideFrac: 0.20, StrideBytes: 8,
				PointerChaseFrac: 0.36, ChaseColdFrac: 0.03, HotFrac: 0.86, HotBytes: 40 * kb,
				BranchSpineFrac: 0.45,
			}),
		}),
		// twolf: placement/routing simulated annealing; pointer heavy
		// with mispredict-prone comparisons.
		intProfile("twolf", false, trace.Profile{
			CodeFootprint: 96 * kb, AvgBlockLen: 5,
			CodeHotFrac: 0.9, CodeHotBytes: 32 * kb,
			LoopFrac: 0.12, UncondFrac: 0.08, IndirectFrac: 0.01,
			LoopMean: 10, PredictableFrac: 0.80, IndirectTargets: 4,
			Phases: phase1(trace.Phase{
				Mix:     mix(0.50, 0.04, 0.004, 0.03, 0.02, 0.002, 0.27, 0.12),
				DepMean: 5, DepMax: 24, ChainFrac: 0.36, SrcTwoProb: 0.4,
				DataFootprint: 8 * mb, StrideFrac: 0.25, StrideBytes: 16,
				PointerChaseFrac: 0.28, ChaseColdFrac: 0.03, HotFrac: 0.85, HotBytes: 48 * kb,
				BranchSpineFrac: 0.45,
			}),
		}),
		// bzip2-source: block-sorting compression; loopy with moderate
		// predictability, working set with strided sweeps.
		intProfile("bzip2-source", false, trace.Profile{
			CodeFootprint: 64 * kb, AvgBlockLen: 7,
			CodeHotFrac: 0.9, CodeHotBytes: 32 * kb,
			LoopFrac: 0.12, UncondFrac: 0.07, IndirectFrac: 0.0,
			LoopMean: 18, PredictableFrac: 0.72, IndirectTargets: 1,
			Phases: phase1(trace.Phase{
				Mix:     mix(0.56, 0.02, 0.001, 0, 0, 0, 0.27, 0.14),
				DepMean: 6, DepMax: 28, ChainFrac: 0.30, SrcTwoProb: 0.4,
				DataFootprint: 6 * mb, StrideFrac: 0.60, StrideBytes: 8,
				PointerChaseFrac: 0.10, HotFrac: 0.80, HotBytes: 48 * kb,
				BranchSpineFrac: 0.55,
			}),
		}),
		// perlbmk-diff: interpreter with big code, indirect dispatch.
		intProfile("perlbmk-diff", false, trace.Profile{
			CodeFootprint: 512 * kb, AvgBlockLen: 6,
			CodeHotFrac: 0.9, CodeHotBytes: 32 * kb,
			LoopFrac: 0.10, UncondFrac: 0.14, IndirectFrac: 0.05,
			LoopMean: 10, PredictableFrac: 0.88, IndirectTargets: 8,
			Phases: phase1(trace.Phase{
				Mix:     mix(0.55, 0.02, 0.002, 0, 0, 0, 0.28, 0.14),
				DepMean: 6, DepMax: 28, ChainFrac: 0.30, SrcTwoProb: 0.4,
				DataFootprint: 4 * mb, StrideFrac: 0.40, StrideBytes: 16,
				PointerChaseFrac: 0.14, HotFrac: 0.90, HotBytes: 48 * kb,
				BranchSpineFrac: 0.55,
			}),
		}),
		// gzip-graphic: LZ77 compression of image data; predictable
		// loops, small working set.
		intProfile("gzip-graphic", false, trace.Profile{
			CodeFootprint: 48 * kb, AvgBlockLen: 7,
			CodeHotFrac: 0.9, CodeHotBytes: 32 * kb,
			LoopFrac: 0.22, UncondFrac: 0.06, IndirectFrac: 0.0,
			LoopMean: 16, PredictableFrac: 0.88, IndirectTargets: 1,
			Phases: phase1(trace.Phase{
				Mix:     mix(0.58, 0.01, 0.001, 0, 0, 0, 0.27, 0.14),
				DepMean: 7, DepMax: 28, ChainFrac: 0.26, SrcTwoProb: 0.45,
				DataFootprint: 1536 * kb, StrideFrac: 0.70, StrideBytes: 8,
				PointerChaseFrac: 0.06, HotFrac: 0.85, HotBytes: 48 * kb,
				BranchSpineFrac: 0.60,
			}),
		}),
		// gcc-166: compiler; very large code footprint stresses the L1I,
		// branchy but reasonably predictable.
		intProfile("gcc-166", true, trace.Profile{
			CodeFootprint: 1536 * kb, AvgBlockLen: 6,
			CodeHotFrac: 0.88, CodeHotBytes: 64 * kb,
			LoopFrac: 0.10, UncondFrac: 0.14, IndirectFrac: 0.03,
			LoopMean: 10, PredictableFrac: 0.90, IndirectTargets: 6,
			Phases: phase1(trace.Phase{
				Mix:     mix(0.57, 0.02, 0.002, 0, 0, 0, 0.27, 0.13),
				DepMean: 12, DepMax: 44, ChainFrac: 0.18, SrcTwoProb: 0.4,
				DataFootprint: 160 * kb, StrideFrac: 0.70, StrideBytes: 16,
				PointerChaseFrac: 0.42, HotFrac: 0.91, HotBytes: 48 * kb,
				BranchSpineFrac: 0.60,
			}),
		}),
		// crafty: chess search; high ILP bit-board operations, highly
		// predictable control, cache-resident tables.
		intProfile("crafty", true, trace.Profile{
			CodeFootprint: 256 * kb, AvgBlockLen: 8,
			CodeHotFrac: 0.9, CodeHotBytes: 32 * kb,
			LoopFrac: 0.14, UncondFrac: 0.10, IndirectFrac: 0.01,
			LoopMean: 12, PredictableFrac: 0.92, IndirectTargets: 4,
			Phases: phase1(trace.Phase{
				Mix:     mix(0.62, 0.03, 0.002, 0, 0, 0, 0.24, 0.10),
				DepMean: 11, DepMax: 40, ChainFrac: 0.16, SrcTwoProb: 0.45,
				DataFootprint: 128 * kb, StrideFrac: 0.75, StrideBytes: 16,
				PointerChaseFrac: 0.52, HotFrac: 0.92, HotBytes: 48 * kb,
				BranchSpineFrac: 0.65,
			}),
		}),
		// eon-rushmeier: C++ ray tracer; high ILP, predictable, small
		// working set, a little FP.
		intProfile("eon-rushmeier", true, trace.Profile{
			CodeFootprint: 192 * kb, AvgBlockLen: 9,
			CodeHotFrac: 0.9, CodeHotBytes: 32 * kb,
			LoopFrac: 0.16, UncondFrac: 0.10, IndirectFrac: 0.02,
			LoopMean: 14, PredictableFrac: 0.94, IndirectTargets: 4,
			Phases: phase1(trace.Phase{
				Mix:     mix(0.50, 0.03, 0.002, 0.08, 0.06, 0.004, 0.22, 0.10),
				DepMean: 13, DepMax: 48, ChainFrac: 0.13, SrcTwoProb: 0.5,
				DataFootprint: 96 * kb, StrideFrac: 0.75, StrideBytes: 16,
				PointerChaseFrac: 0.50, HotFrac: 0.93, HotBytes: 48 * kb,
				BranchSpineFrac: 0.70,
			}),
		}),
		// vortex-one: object database; large code, very predictable
		// control, high ILP.
		intProfile("vortex-one", true, trace.Profile{
			CodeFootprint: 768 * kb, AvgBlockLen: 9,
			CodeHotFrac: 0.9, CodeHotBytes: 32 * kb,
			LoopFrac: 0.12, UncondFrac: 0.12, IndirectFrac: 0.02,
			LoopMean: 12, PredictableFrac: 0.97, IndirectTargets: 4,
			Phases: phase1(trace.Phase{
				Mix:     mix(0.60, 0.02, 0.001, 0, 0, 0, 0.25, 0.12),
				DepMean: 17, DepMax: 64, ChainFrac: 0.10, SrcTwoProb: 0.45,
				DataFootprint: 96 * kb, StrideFrac: 0.75, StrideBytes: 16,
				PointerChaseFrac: 0.38, HotFrac: 0.94, HotBytes: 48 * kb,
				BranchSpineFrac: 0.75,
			}),
		}),
	}
}

// FloatingPoint returns the 14 SPECfp2K-like profiles in ascending SS1-IPC
// order, matching the paper's Figure 2(b).
func FloatingPoint() []trace.Profile {
	return []trace.Profile{
		// equake: sparse matrix earthquake simulation; irregular memory
		// with a working set far beyond the L2.
		fpProfile("equake", false, trace.Profile{
			CodeFootprint: 48 * kb, AvgBlockLen: 8,
			CodeHotFrac: 0.9, CodeHotBytes: 32 * kb,
			LoopFrac: 0.22, UncondFrac: 0.05, IndirectFrac: 0.0,
			LoopMean: 14, PredictableFrac: 0.92, IndirectTargets: 1,
			Phases: phase1(trace.Phase{
				Mix:     mix(0.28, 0.01, 0.001, 0.22, 0.14, 0.004, 0.26, 0.09),
				DepMean: 6, DepMax: 28, ChainFrac: 0.32, SrcTwoProb: 0.55,
				DataFootprint: 48 * mb, StrideFrac: 0.30, StrideBytes: 8,
				PointerChaseFrac: 0.05, ChaseColdFrac: 0.75, HotFrac: 0.28, HotBytes: 32 * kb,
				BranchSpineFrac: 0.85,
			}),
		}),
		// fma3d: crash simulation; big code, memory bound with mixed
		// access patterns.
		fpProfile("fma3d", false, trace.Profile{
			CodeFootprint: 1024 * kb, AvgBlockLen: 8,
			CodeHotFrac: 0.9, CodeHotBytes: 32 * kb,
			LoopFrac: 0.20, UncondFrac: 0.08, IndirectFrac: 0.0,
			LoopMean: 12, PredictableFrac: 0.92, IndirectTargets: 1,
			Phases: phase1(trace.Phase{
				Mix:     mix(0.30, 0.02, 0.001, 0.22, 0.14, 0.006, 0.23, 0.09),
				DepMean: 7, DepMax: 32, ChainFrac: 0.28, SrcTwoProb: 0.55,
				DataFootprint: 32 * mb, StrideFrac: 0.50, StrideBytes: 24,
				PointerChaseFrac: 0.05, ChaseColdFrac: 0.55, HotFrac: 0.30, HotBytes: 32 * kb,
				BranchSpineFrac: 0.85,
			}),
		}),
		// lucas: Lucas-Lehmer primality FFTs; long strided sweeps over a
		// huge array.
		fpProfile("lucas", false, trace.Profile{
			CodeFootprint: 32 * kb, AvgBlockLen: 10,
			CodeHotFrac: 0.9, CodeHotBytes: 32 * kb,
			LoopFrac: 0.26, UncondFrac: 0.04, IndirectFrac: 0.0,
			LoopMean: 18, PredictableFrac: 0.96, IndirectTargets: 1,
			Phases: phase1(trace.Phase{
				Mix:     mix(0.24, 0.02, 0.001, 0.26, 0.18, 0.004, 0.21, 0.09),
				DepMean: 8, DepMax: 36, ChainFrac: 0.24, SrcTwoProb: 0.6,
				DataFootprint: 40 * mb, StrideFrac: 0.75, StrideBytes: 64,
				HotFrac: 0.20, HotBytes: 32 * kb,
				BranchSpineFrac: 0.9,
			}),
		}),
		// facerec: face recognition; alternating compute and memory
		// sweep phases.
		fpProfile("facerec", false, trace.Profile{
			CodeFootprint: 64 * kb, AvgBlockLen: 9,
			CodeHotFrac: 0.9, CodeHotBytes: 32 * kb,
			LoopFrac: 0.24, UncondFrac: 0.05, IndirectFrac: 0.0,
			LoopMean: 16, PredictableFrac: 0.94, IndirectTargets: 1,
			Phases: []trace.Phase{
				{
					Len:     22000,
					Mix:     mix(0.26, 0.01, 0.001, 0.27, 0.19, 0.003, 0.19, 0.08),
					DepMean: 8, DepMax: 36, ChainFrac: 0.17, SrcTwoProb: 0.6,
					DataFootprint: 256 * kb, StrideFrac: 0.80, StrideBytes: 8,
					HotFrac: 0.45, HotBytes: 32 * kb, BranchSpineFrac: 0.9,
				},
				{
					Len:     70000,
					Mix:     mix(0.30, 0.01, 0.001, 0.20, 0.12, 0.002, 0.27, 0.10),
					DepMean: 7, DepMax: 32, ChainFrac: 0.26, SrcTwoProb: 0.5,
					DataFootprint: 24 * mb, StrideFrac: 0.30, StrideBytes: 32,
					HotFrac: 0.15, HotBytes: 32 * kb, BranchSpineFrac: 0.9,
				},
			},
		}),
		// swim: shallow water stencil; pure streaming over arrays far
		// beyond the L2, the classic MLP-bound code.
		fpProfile("swim", false, trace.Profile{
			CodeFootprint: 24 * kb, AvgBlockLen: 12,
			CodeHotFrac: 0.9, CodeHotBytes: 32 * kb,
			LoopFrac: 0.30, UncondFrac: 0.03, IndirectFrac: 0.0,
			LoopMean: 26, PredictableFrac: 0.97, IndirectTargets: 1,
			Phases: phase1(trace.Phase{
				Mix:     mix(0.22, 0.01, 0.0, 0.27, 0.18, 0.002, 0.22, 0.10),
				DepMean: 12, DepMax: 48, ChainFrac: 0.15, SrcTwoProb: 0.6,
				DataFootprint: 64 * mb, StrideFrac: 0.88, StrideBytes: 16,
				HotFrac: 0.30, HotBytes: 32 * kb,
				BranchSpineFrac: 0.92,
			}),
		}),
		// mgrid: multigrid stencil; streaming with some reuse.
		fpProfile("mgrid", false, trace.Profile{
			CodeFootprint: 24 * kb, AvgBlockLen: 12,
			CodeHotFrac: 0.9, CodeHotBytes: 32 * kb,
			LoopFrac: 0.30, UncondFrac: 0.03, IndirectFrac: 0.0,
			LoopMean: 22, PredictableFrac: 0.97, IndirectTargets: 1,
			Phases: phase1(trace.Phase{
				Mix:     mix(0.22, 0.01, 0.0, 0.28, 0.20, 0.002, 0.20, 0.09),
				DepMean: 13, DepMax: 48, ChainFrac: 0.14, SrcTwoProb: 0.65,
				DataFootprint: 12 * mb, StrideFrac: 0.82, StrideBytes: 16,
				HotFrac: 0.55, HotBytes: 32 * kb,
				BranchSpineFrac: 0.92,
			}),
		}),
		// applu: SSOR PDE solver; streaming plus longer FP chains.
		fpProfile("applu", false, trace.Profile{
			CodeFootprint: 48 * kb, AvgBlockLen: 11,
			CodeHotFrac: 0.9, CodeHotBytes: 32 * kb,
			LoopFrac: 0.28, UncondFrac: 0.04, IndirectFrac: 0.0,
			LoopMean: 20, PredictableFrac: 0.96, IndirectTargets: 1,
			Phases: phase1(trace.Phase{
				Mix:     mix(0.22, 0.01, 0.001, 0.27, 0.19, 0.006, 0.21, 0.09),
				DepMean: 14, DepMax: 56, ChainFrac: 0.14, SrcTwoProb: 0.6,
				DataFootprint: 8 * mb, StrideFrac: 0.78, StrideBytes: 24,
				HotFrac: 0.62, HotBytes: 32 * kb,
				BranchSpineFrac: 0.92,
			}),
		}),
		// art-110: neural network image recognition; hot arrays with
		// heavy FP multiply pressure and periodic sweep misses.
		fpProfile("art-110", false, trace.Profile{
			CodeFootprint: 24 * kb, AvgBlockLen: 10,
			CodeHotFrac: 0.9, CodeHotBytes: 32 * kb,
			LoopFrac: 0.28, UncondFrac: 0.04, IndirectFrac: 0.0,
			LoopMean: 22, PredictableFrac: 0.95, IndirectTargets: 1,
			Phases: phase1(trace.Phase{
				Mix:     mix(0.20, 0.01, 0.0, 0.24, 0.28, 0.002, 0.19, 0.08),
				DepMean: 10, DepMax: 40, ChainFrac: 0.17, SrcTwoProb: 0.65,
				DataFootprint: 2 * mb, StrideFrac: 0.78, StrideBytes: 8,
				HotFrac: 0.72, HotBytes: 96 * kb,
				BranchSpineFrac: 0.9,
			}),
		}),
		// ammp: molecular dynamics; neighbor lists with pointer chasing
		// between compute bursts.
		fpProfile("ammp", false, trace.Profile{
			CodeFootprint: 96 * kb, AvgBlockLen: 9,
			CodeHotFrac: 0.9, CodeHotBytes: 32 * kb,
			LoopFrac: 0.24, UncondFrac: 0.06, IndirectFrac: 0.0,
			LoopMean: 14, PredictableFrac: 0.94, IndirectTargets: 1,
			Phases: []trace.Phase{
				{
					Len:     85000,
					Mix:     mix(0.24, 0.01, 0.001, 0.26, 0.20, 0.01, 0.19, 0.08),
					DepMean: 11, DepMax: 44, ChainFrac: 0.17, SrcTwoProb: 0.6,
					DataFootprint: 256 * kb, StrideFrac: 0.70, StrideBytes: 16,
					HotFrac: 0.90, HotBytes: 48 * kb, BranchSpineFrac: 0.9,
				},
				{
					Len:     15000,
					Mix:     mix(0.32, 0.01, 0.001, 0.16, 0.10, 0.002, 0.29, 0.10),
					DepMean: 6, DepMax: 28, ChainFrac: 0.30, SrcTwoProb: 0.5,
					DataFootprint: 16 * mb, StrideFrac: 0.25, StrideBytes: 8,
					PointerChaseFrac: 0.10, ChaseColdFrac: 0.4, HotFrac: 0.40, HotBytes: 48 * kb,
					BranchSpineFrac: 0.8,
				},
			},
		}),
		// wupwise: lattice QCD; dense linear algebra with good locality.
		fpProfile("wupwise", false, trace.Profile{
			CodeFootprint: 48 * kb, AvgBlockLen: 11,
			CodeHotFrac: 0.9, CodeHotBytes: 32 * kb,
			LoopFrac: 0.26, UncondFrac: 0.05, IndirectFrac: 0.0,
			LoopMean: 20, PredictableFrac: 0.96, IndirectTargets: 1,
			Phases: phase1(trace.Phase{
				Mix:     mix(0.24, 0.02, 0.001, 0.26, 0.21, 0.004, 0.18, 0.09),
				DepMean: 18, DepMax: 64, ChainFrac: 0.12, SrcTwoProb: 0.65,
				DataFootprint: 768 * kb, StrideFrac: 0.80, StrideBytes: 16,
				HotFrac: 0.82, HotBytes: 48 * kb,
				BranchSpineFrac: 0.92,
			}),
		}),
		// galgel: fluid dynamics eigenproblem; cache resident with very
		// high FP ILP.
		fpProfile("galgel", true, trace.Profile{
			CodeFootprint: 48 * kb, AvgBlockLen: 12,
			CodeHotFrac: 0.9, CodeHotBytes: 32 * kb,
			LoopFrac: 0.28, UncondFrac: 0.04, IndirectFrac: 0.0,
			LoopMean: 24, PredictableFrac: 0.97, IndirectTargets: 1,
			Phases: phase1(trace.Phase{
				Mix:     mix(0.20, 0.01, 0.0, 0.29, 0.23, 0.028, 0.17, 0.08),
				DepMean: 10, DepMax: 20, ChainFrac: 0.15, SrcTwoProb: 0.65,
				DataFootprint: 96 * kb, StrideFrac: 0.85, StrideBytes: 16,
				HotFrac: 0.85, HotBytes: 48 * kb,
				BranchSpineFrac: 0.94,
			}),
		}),
		// sixtrack: particle tracking; FP-unit saturated, tiny working
		// set.
		fpProfile("sixtrack", true, trace.Profile{
			CodeFootprint: 96 * kb, AvgBlockLen: 13,
			CodeHotFrac: 0.9, CodeHotBytes: 32 * kb,
			LoopFrac: 0.26, UncondFrac: 0.05, IndirectFrac: 0.0,
			LoopMean: 26, PredictableFrac: 0.97, IndirectTargets: 1,
			Phases: phase1(trace.Phase{
				Mix:     mix(0.22, 0.01, 0.0, 0.28, 0.25, 0.014, 0.15, 0.07),
				DepMean: 9, DepMax: 18, ChainFrac: 0.14, SrcTwoProb: 0.7,
				DataFootprint: 96 * kb, StrideFrac: 0.85, StrideBytes: 16,
				HotFrac: 0.90, HotBytes: 48 * kb,
				BranchSpineFrac: 0.95,
			}),
		}),
		// mesa: software 3D rasterizer; int/FP blend with extreme ILP
		// and near-perfect prediction.
		fpProfile("mesa", true, trace.Profile{
			CodeFootprint: 128 * kb, AvgBlockLen: 12,
			CodeHotFrac: 0.9, CodeHotBytes: 32 * kb,
			LoopFrac: 0.24, UncondFrac: 0.07, IndirectFrac: 0.01,
			LoopMean: 22, PredictableFrac: 0.92, IndirectTargets: 4,
			Phases: phase1(trace.Phase{
				Mix:     mix(0.28, 0.03, 0.001, 0.24, 0.17, 0.006, 0.17, 0.10),
				DepMean: 14, DepMax: 28, ChainFrac: 0.10, SrcTwoProb: 0.6,
				DataFootprint: 96 * kb, StrideFrac: 0.82, StrideBytes: 16,
				PointerChaseFrac: 0.02, HotFrac: 0.92, HotBytes: 48 * kb,
				BranchSpineFrac: 0.95,
			}),
		}),
		// apsi: mesoscale weather; the highest-IPC FP code with dense
		// loops and strong locality.
		fpProfile("apsi", true, trace.Profile{
			CodeFootprint: 96 * kb, AvgBlockLen: 15,
			CodeHotFrac: 0.9, CodeHotBytes: 32 * kb,
			LoopFrac: 0.26, UncondFrac: 0.05, IndirectFrac: 0.0,
			LoopMean: 34, PredictableFrac: 0.97, IndirectTargets: 1,
			Phases: phase1(trace.Phase{
				Mix:     mix(0.30, 0.02, 0.0, 0.25, 0.19, 0.001, 0.16, 0.08),
				DepMean: 36, DepMax: 104, ChainFrac: 0.06, SrcTwoProb: 0.42,
				DataFootprint: 96 * kb, StrideFrac: 0.85, StrideBytes: 16,
				HotFrac: 0.92, HotBytes: 48 * kb,
				BranchSpineFrac: 0.96,
			}),
		}),
	}
}

// table holds every profile in presentation order, built once. It is
// never handed out: callers get copies whose Phases they own.
var table = append(Integer(), FloatingPoint()...)

// clone copies p with its own Phases slice (Phase holds no references).
func clone(p trace.Profile) trace.Profile {
	p.Phases = slices.Clone(p.Phases)
	return p
}

// All returns fresh copies of every profile: integer benchmarks first,
// then floating point, each in ascending SS1-IPC order.
func All() []trace.Profile {
	all := make([]trace.Profile, len(table))
	for i, p := range table {
		all[i] = clone(p)
	}
	return all
}

// ByName returns a copy of the profile with the given name.
func ByName(name string) (trace.Profile, error) {
	for _, p := range table {
		if p.Name == name {
			return clone(p), nil
		}
	}
	return trace.Profile{}, fmt.Errorf("workload: unknown benchmark %q", name)
}

// Names returns all benchmark names in presentation order.
func Names() []string {
	names := make([]string, len(table))
	for i, p := range table {
		names[i] = p.Name
	}
	return names
}

// SortedNames returns all names alphabetically (for lookup tables).
func SortedNames() []string {
	names := Names()
	sort.Strings(names)
	return names
}
