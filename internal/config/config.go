// Package config defines machine configurations: the SS1 baseline of the
// paper's Table 1, the SS2 symmetric redundant machine with the X/S/C/B
// factor combinations of Table 2, and the SHREC machine of Section 4.
package config

import (
	"fmt"
	"strings"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/fu"
)

// Mode selects the execution model.
type Mode uint8

const (
	// ModeSS1 is conventional single-threaded execution (no redundancy).
	ModeSS1 Mode = iota
	// ModeSS2 is symmetric redundant execution: every instruction is
	// duplicated at decode into M- and R-thread copies that each occupy
	// pipeline resources; results are compared pairwise at retirement.
	ModeSS2
	// ModeSHREC is asymmetric redundant execution: the M-thread runs on
	// the out-of-order pipeline and an in-order checker re-executes
	// completed instructions with leftover issue slots and functional
	// units before retirement.
	ModeSHREC
	// ModeO3RS is the Mendelson & Suri design the paper compares against:
	// each instruction occupies a single ISQ and ROB entry but issues
	// twice (in rapid succession) before the entry is released; the two
	// results are compared at retirement. It relieves the C and B
	// factors by construction but cannot stagger. The paper approximates
	// it as SS2+C+B; this mode implements the real mechanism.
	ModeO3RS
	// ModeMEEK is MEEK-style heterogeneous detection (arXiv 2504.01347):
	// the out-of-order M-stream is checked by a small number of narrow
	// in-order checker lanes that consume completed instructions from a
	// retirement-log FIFO. The OoO core never shares issue bandwidth or
	// functional units with the checkers; backpressure appears only when
	// the retirement log fills.
	ModeMEEK
	// ModeFLEX is FlexStep-style per-region detection (arXiv 2503.13848):
	// a SHREC-shaped shared checker that is enabled only inside selected
	// instruction windows (FlexOn out of every FlexPeriod fetched
	// instructions). Faults in checking-disabled regions escape to
	// retirement; campaigns account them against conditional, not global,
	// coverage.
	ModeFLEX
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeSS1:
		return "SS1"
	case ModeSS2:
		return "SS2"
	case ModeSHREC:
		return "SHREC"
	case ModeO3RS:
		return "O3RS"
	case ModeMEEK:
		return "MEEK"
	case ModeFLEX:
		return "FLEX"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// Factors are the four knobs of the paper's factorial design (Section 3).
// X, C, and B double the corresponding resources of an SS2 machine; S
// enables an elastic stagger between the redundant threads with static
// issue priority to the M-thread.
type Factors struct {
	X bool // double issue width and functional units
	S bool // allow elastic stagger (default 256 instructions)
	C bool // double ISQ and ROB capacity
	B bool // double decode and retirement bandwidth
}

// String renders the enabled factors like the paper's Table 2 rows
// ("X S C B", "- S - -", ...).
func (f Factors) String() string {
	mark := func(on bool, s string) string {
		if on {
			return s
		}
		return "-"
	}
	return strings.Join([]string{
		mark(f.X, "X"), mark(f.S, "S"), mark(f.C, "C"), mark(f.B, "B"),
	}, " ")
}

// AllFactorCombinations enumerates the sixteen Table 2 configurations in
// the paper's row order (B varies fastest, then C, S, X).
func AllFactorCombinations() []Factors {
	out := make([]Factors, 0, 16)
	for _, x := range []bool{false, true} {
		for _, s := range []bool{false, true} {
			for _, c := range []bool{false, true} {
				for _, b := range []bool{false, true} {
					out = append(out, Factors{X: x, S: s, C: c, B: b})
				}
			}
		}
	}
	return out
}

// DefaultStagger is the elastic stagger bound the paper uses for the
// S-factor (up to 256 instructions).
const DefaultStagger = 256

// Machine is a complete machine configuration.
type Machine struct {
	// Name identifies the configuration in reports.
	Name string
	// Mode selects single-threaded, symmetric redundant, or SHREC
	// execution.
	Mode Mode

	// DecodeWidth, IssueWidth, and RetireWidth are per-cycle bandwidths.
	DecodeWidth, IssueWidth, RetireWidth int
	// ISQSize, ROBSize, and LSQSize are structure capacities. In SS2 both
	// thread copies share these structures.
	ISQSize, ROBSize, LSQSize int

	// FU configures the functional unit pool.
	FU fu.Config
	// Mem configures the cache hierarchy.
	Mem cache.Config
	// Bpred configures the branch predictor complex.
	Bpred bpred.Config

	// BTBMissPenalty is the fetch bubble when a predicted-taken branch
	// misses in the BTB.
	BTBMissPenalty int

	// MaxStagger bounds how far the M-thread's dispatch may lead the
	// R-thread's in SS2 (0 = lockstep duplication at decode). Ignored in
	// other modes; SHREC staggers naturally up to the ROB size.
	MaxStagger int

	// CheckerWindow is the SHREC in-order issue window (Section 4.2:
	// eight entries, with the ISQ reduced commensurately).
	CheckerWindow int

	// CheckerDedicatedFU gives the in-order checker its own functional
	// unit pool and issue bandwidth instead of sharing the main
	// pipeline's — the DIVA design of Section 4.1, which buys back the
	// contention at a significant hardware cost (the paper notes the
	// EV8's functional units occupy area comparable to 1MB of L2).
	CheckerDedicatedFU bool

	// CheckerLanes is the number of narrow in-order checker lanes in MEEK
	// mode (1..MaxCheckerLanes); zero everywhere else.
	CheckerLanes int

	// Contexts, when 2 or more, gives the SHREC checker that many
	// hardware contexts: a scan stalled on an incomplete instruction
	// switches to the next completed region instead of idling, up to
	// Contexts-1 switches per cycle. Zero (or one) is the classic
	// single-context checker. SHREC mode only.
	Contexts int

	// FlexPeriod and FlexOn define FLEX mode's region policy: checking is
	// enabled for instructions whose fetch sequence number satisfies
	// seq%FlexPeriod < FlexOn. Both zero outside FLEX mode.
	FlexPeriod, FlexOn uint64

	// FaultRate is the per-instruction probability of injecting a
	// transient result corruption (0 disables injection). Used by the
	// fault campaign engine, explorations with a fault-rate axis, and
	// recovery tests.
	FaultRate float64
	// FaultSeed seeds the fault injector. Campaigns derive a distinct
	// seed per trial, so trials sample independent fault sites.
	FaultSeed uint64
	// FaultWindowLo and FaultWindowHi bound injection to correct-path
	// instructions whose fetch sequence number lies in [Lo, Hi); both
	// zero means unbounded. Fault campaigns confine injection to the
	// measured region this way, so the warmup phase stays bit-identical
	// to the fault-free golden run it is compared against.
	FaultWindowLo, FaultWindowHi uint64

	// CkptInterval, when positive, wraps the measured phase in periodic
	// architectural checkpoints: one capture every CkptInterval retired
	// instructions, giving detected faults a rollback target (see
	// internal/recovery). Zero disables checkpointing entirely — the
	// engine's zero-allocation fast path is untouched.
	CkptInterval uint64
	// CkptDepth is how many checkpoints are retained for rollback
	// (0 = the recovery default of 1 when CkptInterval is set). Deeper
	// retention recovers faults whose detection latency crosses a
	// checkpoint boundary, at proportional capture-memory cost.
	CkptDepth int
}

// SS1 returns the paper's Table 1 baseline: an 8-wide out-of-order
// superscalar with a 128-entry ISQ, 512-entry ROB, and 64-entry LSQ.
func SS1() Machine {
	return Machine{
		Name:           "SS1",
		Mode:           ModeSS1,
		DecodeWidth:    8,
		IssueWidth:     8,
		RetireWidth:    8,
		ISQSize:        128,
		ROBSize:        512,
		LSQSize:        64,
		FU:             fu.DefaultConfig(),
		Mem:            cache.DefaultConfig(),
		Bpred:          bpred.DefaultConfig(),
		BTBMissPenalty: 2,
	}
}

// SS2 returns the symmetric redundant machine with the given factors
// applied, as enumerated in Table 2. With no factors it is the plain SS2
// of Section 2.2 (same resources as SS1, doubled workload).
func SS2(f Factors) Machine {
	m := SS1()
	m.Mode = ModeSS2
	m.Name = "SS2"
	if f != (Factors{}) {
		m.Name = "SS2+" + strings.ReplaceAll(strings.ReplaceAll(f.String(), " ", ""), "-", "")
	}
	if f.X {
		m.IssueWidth *= 2
		m.FU = m.FU.Double()
		// sim-outorder treats cache ports as functional-unit resources, so
		// the paper's X-factor (issue + FU bandwidth) scales them too.
		m.Mem.MemPorts *= 2
	}
	if f.C {
		m.ISQSize *= 2
		m.ROBSize *= 2
	}
	if f.B {
		m.DecodeWidth *= 2
		m.RetireWidth *= 2
	}
	if f.S {
		m.MaxStagger = DefaultStagger
	}
	return m
}

// SHREC returns the SHREC machine of Section 4: SS1 resources with the ISQ
// reduced to 120 entries and an 8-entry in-order checker window sharing the
// issue bandwidth and functional units.
func SHREC() Machine {
	m := SS1()
	m.Mode = ModeSHREC
	m.Name = "SHREC"
	m.CheckerWindow = 8
	m.ISQSize = 128 - 8
	return m
}

// O3RS returns the out-of-order reliable superscalar of Mendelson & Suri:
// SS1 resources with double execution from shared ISQ/ROB entries. The
// paper's Table 2 approximates this design as SS2+C+B.
func O3RS() Machine {
	m := SS1()
	m.Mode = ModeO3RS
	m.Name = "O3RS"
	return m
}

// DIVA returns the DIVA-style machine of Section 4.1: asymmetric
// re-execution like SHREC, but the in-order checker owns a dedicated set
// of functional units and issue bandwidth, so it never competes with the
// out-of-order pipeline. The ISQ keeps its full 128 entries (the checker
// is a physically separate pipeline). The paper expects DIVA to track SS1
// closely.
func DIVA() Machine {
	m := SS1()
	m.Mode = ModeSHREC
	m.Name = "DIVA"
	m.CheckerWindow = 8
	m.CheckerDedicatedFU = true
	return m
}

// Bounds on the modern-mode structural knobs, enforced by Validate and
// the spec parser. MeekLogDepth is the retirement-log FIFO capacity every
// MEEK machine shares: deep enough to ride out checker-lane latency
// bursts, small enough that a sustained checker shortfall backpressures
// retirement instead of hiding it.
const (
	MaxCheckerLanes     = 8
	MaxContexts         = 8
	DefaultCheckerLanes = 2
	MeekLogDepth        = 64
	DefaultFlexPeriod   = 64 * 1024
	DefaultFlexOn       = 16 * 1024
)

// MEEK returns a MEEK-style heterogeneous machine: the SS1 out-of-order
// core checked by n narrow in-order lanes consuming a retirement-log
// FIFO. Unlike SHREC, the checker never competes for the main pipeline's
// issue slots or functional units; unlike DIVA, each lane is a minimal
// in-order core rather than a mirrored FU pool.
func MEEK(n int) Machine {
	m := SS1()
	m.Mode = ModeMEEK
	m.Name = fmt.Sprintf("MEEK@%d", n)
	m.CheckerLanes = n
	return m
}

// FLEX returns the default FlexStep-style machine: SHREC's shared
// checker, enabled for the first 16k of every 64k fetched instructions
// ("FLEX@64k:on16k"). FlexMachine builds other region policies.
func FLEX() Machine {
	return FlexMachine(DefaultFlexPeriod, DefaultFlexOn)
}

// FlexMachine returns a FLEX machine with the given region policy:
// checking enabled for instructions with seq%period < on.
func FlexMachine(period, on uint64) Machine {
	m := SHREC()
	m.Mode = ModeFLEX
	m.Name = "FLEX@" + kmString(period) + ":on" + kmString(on)
	m.FlexPeriod, m.FlexOn = period, on
	return m
}

// WithXScale returns the machine with issue width, functional unit
// counts, and memory ports scaled by f (Figure 8's 0.5X-2X sweep), each
// rounded to the nearest integer with a floor of one. The result is named
// with the canonical "@x" spec modifier ("SHREC@x1.5"), so ByName parses
// it back.
func (m Machine) WithXScale(f float64) Machine {
	out := m.xScaled(f)
	out.Name = specName(m.Name, out, modXScale, f, true)
	return out
}

// xScaled applies the X-scaling field changes without renaming.
func (m Machine) xScaled(f float64) Machine {
	out := m
	w := int(float64(m.IssueWidth)*f + 0.5)
	if w < 1 {
		w = 1
	}
	out.IssueWidth = w
	out.FU = m.FU.Scale(f)
	p := int(float64(m.Mem.MemPorts)*f + 0.5)
	if p < 1 {
		p = 1
	}
	out.Mem.MemPorts = p
	return out
}

// WithStagger returns the machine with the given maximum stagger (Figure
// 5's sweep), named with the canonical "+stagger" spec modifier.
func (m Machine) WithStagger(n int) Machine {
	out := m
	out.MaxStagger = n
	out.Name = specName(m.Name, out, modStagger, float64(n), false)
	return out
}

// WithFUScale returns the machine with the functional unit pool alone
// scaled by f (issue width and memory ports untouched, unlike WithXScale),
// named with the canonical "+fux" spec modifier. The explorer uses it to
// separate FU-pool pressure from issue bandwidth.
func (m Machine) WithFUScale(f float64) Machine {
	out := m
	out.FU = m.FU.Scale(f)
	out.Name = specName(m.Name, out, modFUScale, f, true)
	return out
}

// modified applies one modifier's field changes without renaming; apply
// composes these, so the grammar's semantics live in exactly one place
// per kind (shared with the With* helpers where the change is one line).
func (m Machine) modified(k modKind, v float64) Machine {
	out := m
	switch k {
	case modXScale:
		out = m.xScaled(v)
	case modStagger:
		out.MaxStagger = int(v)
	case modFUScale:
		out.FU = m.FU.Scale(v)
	case modMSHR:
		out.Mem.MSHREntries = int(v)
	case modPorts:
		out.Mem.MemPorts = int(v)
	case modRate:
		out.FaultRate = v
	case modCkpt:
		out.CkptInterval = uint64(v)
	case modDepth:
		out.CkptDepth = int(v)
	case modCtx:
		out.Contexts = int(v)
	}
	return out
}

// WithContexts returns the SHREC machine with n hardware checker
// contexts, named with the canonical "+ctx" spec modifier
// ("SHREC+ctx4"). The spec parser rejects the modifier on non-SHREC
// bases.
func (m Machine) WithContexts(n int) Machine {
	out := m
	out.Contexts = n
	out.Name = specName(m.Name, out, modCtx, float64(n), false)
	return out
}

// WithCheckerLanes returns the MEEK machine with n checker lanes. The
// lane count lives in the base token ("MEEK@4"), not in a modifier, so
// the name is recomputed by re-basing rather than by specName.
func (m Machine) WithCheckerLanes(n int) Machine {
	out := m
	out.CheckerLanes = n
	out.Name = rebaseName(m.Name, out, fmt.Sprintf("meek@%d", n))
	return out
}

// WithRegionDuty returns the FLEX machine with its checking-enabled
// fraction set to d of the period (clamped to [1, period-1]
// instructions). A machine without a period yet gets the default. Like
// the lane count, the duty lives in the base token ("FLEX@64k:on16k").
func (m Machine) WithRegionDuty(d float64) Machine {
	out := m
	if out.FlexPeriod == 0 {
		out.FlexPeriod = DefaultFlexPeriod
	}
	on := uint64(d*float64(out.FlexPeriod) + 0.5)
	if on < 1 {
		on = 1
	}
	if on >= out.FlexPeriod {
		on = out.FlexPeriod - 1
	}
	out.FlexOn = on
	out.Name = rebaseName(m.Name, out, "flex@"+kmString(out.FlexPeriod)+":on"+kmString(on))
	return out
}

// WithMSHRs returns the machine with the data-side MSHR file resized to n
// entries, named with the canonical "+mshr" spec modifier.
func (m Machine) WithMSHRs(n int) Machine {
	out := m
	out.Mem.MSHREntries = n
	out.Name = specName(m.Name, out, modMSHR, float64(n), false)
	return out
}

// WithMemPorts returns the machine with n memory ports, named with the
// canonical "+ports" spec modifier.
func (m Machine) WithMemPorts(n int) Machine {
	out := m
	out.Mem.MemPorts = n
	out.Name = specName(m.Name, out, modPorts, float64(n), false)
	return out
}

// WithFaultRate returns the machine with the per-instruction fault
// injection rate set, named with the canonical "+rate" spec modifier.
// Campaigns set the rate field directly (their trial identity lives in
// the sim cache key, not the name); this helper is for explore points and
// other callers whose machines are identified by spec string.
func (m Machine) WithFaultRate(r float64) Machine {
	out := m
	out.FaultRate = r
	out.Name = specName(m.Name, out, modRate, r, false)
	return out
}

// WithCkptInterval returns the machine with periodic architectural
// checkpointing every n retired instructions (0 disables), named with the
// canonical "+ckpt" spec modifier ("shrec+ckpt64k"; 1024-multiples render
// with k/m suffixes).
func (m Machine) WithCkptInterval(n uint64) Machine {
	out := m
	out.CkptInterval = n
	out.Name = specName(m.Name, out, modCkpt, float64(n), false)
	return out
}

// WithCkptDepth returns the machine retaining n rollback checkpoints,
// named with the canonical "+depth" spec modifier. Meaningful only with a
// checkpoint interval (Validate rejects depth without one).
func (m Machine) WithCkptDepth(n int) Machine {
	out := m
	out.CkptDepth = n
	out.Name = specName(m.Name, out, modDepth, float64(n), false)
	return out
}

// ByName parses a machine specification string: a base machine — "ss1",
// "ss2", "ss2+<factors>" (e.g. "ss2+sc", "ss2+xscb"), "shrec", "diva",
// or "o3rs" — followed by optional modifiers in any order: "@x<f>"
// (issue/FU/port scaling), "+stagger<n>", "+fux<f>" (FU pool scaling),
// "+mshr<n>", "+ports<n>", "+rate<f>" (fault injection), "+ckpt<n>"
// (checkpoint interval, k/m suffixes allowed), and "+depth<n>" (retained
// checkpoints), all case-insensitive. "shrec@x1.5+stagger2" is the SHREC
// machine at 1.5X issue bandwidth with a 2-instruction stagger bound;
// "shrec+ckpt64k+depth2" checkpoints every 65536 instructions retaining
// two. It is the shared parser behind every machine name a command or
// request takes (cmd/tracetool's -machine flag, campaign specs, shrecd's
// request decoding, and the exploration engine's point decoding);
// Machine.Spec renders the inverse.
func ByName(name string) (Machine, error) {
	lower := strings.ToLower(strings.TrimSpace(name))
	base, mods, err := splitSpec(lower)
	if err != nil {
		return Machine{}, err
	}
	m, ok, err := baseByName(base)
	if err != nil {
		return Machine{}, err
	}
	if !ok {
		return Machine{}, fmt.Errorf("config: unknown machine %q (want ss1, ss2, ss2+<xscb>, shrec, diva, o3rs, meek@<n>, flex@<period>:on<len>, with optional @x/+stagger/+ctx/+fux/+mshr/+ports/+rate/+ckpt/+depth modifiers)", name)
	}
	return mods.apply(m)
}

// Validate reports structural configuration errors.
func (m *Machine) Validate() error {
	if m.DecodeWidth <= 0 || m.IssueWidth <= 0 || m.RetireWidth <= 0 {
		return fmt.Errorf("%s: non-positive width", m.Name)
	}
	if m.ISQSize <= 0 || m.ROBSize <= 0 || m.LSQSize <= 0 {
		return fmt.Errorf("%s: non-positive structure size", m.Name)
	}
	sharedChecker := m.Mode == ModeSHREC || m.Mode == ModeFLEX
	if sharedChecker && m.CheckerWindow <= 0 {
		return fmt.Errorf("%s: %s requires a checker window", m.Name, m.Mode)
	}
	if !sharedChecker && m.CheckerWindow != 0 {
		return fmt.Errorf("%s: checker window outside SHREC/FLEX mode", m.Name)
	}
	if m.Mode == ModeMEEK {
		if m.CheckerLanes < 1 || m.CheckerLanes > MaxCheckerLanes {
			return fmt.Errorf("%s: MEEK checker lanes %d out of [1,%d]", m.Name, m.CheckerLanes, MaxCheckerLanes)
		}
	} else if m.CheckerLanes != 0 {
		return fmt.Errorf("%s: checker lanes outside MEEK mode", m.Name)
	}
	if m.Contexts != 0 {
		if m.Mode != ModeSHREC {
			return fmt.Errorf("%s: hardware checker contexts outside SHREC mode", m.Name)
		}
		if m.Contexts < 2 || m.Contexts > MaxContexts {
			return fmt.Errorf("%s: checker contexts %d out of [2,%d]", m.Name, m.Contexts, MaxContexts)
		}
	}
	if m.Mode == ModeFLEX {
		if m.FlexPeriod < 2 || m.FlexOn < 1 || m.FlexOn >= m.FlexPeriod {
			return fmt.Errorf("%s: FLEX region policy wants 0 < on < period, got on=%d period=%d", m.Name, m.FlexOn, m.FlexPeriod)
		}
	} else if m.FlexPeriod != 0 || m.FlexOn != 0 {
		return fmt.Errorf("%s: flex region policy outside FLEX mode", m.Name)
	}
	if m.MaxStagger < 0 {
		return fmt.Errorf("%s: negative stagger", m.Name)
	}
	if m.FaultRate < 0 || m.FaultRate > 1 {
		return fmt.Errorf("%s: fault rate out of [0,1]", m.Name)
	}
	if m.FaultWindowHi > 0 && m.FaultWindowHi <= m.FaultWindowLo {
		return fmt.Errorf("%s: empty fault window [%d, %d)", m.Name, m.FaultWindowLo, m.FaultWindowHi)
	}
	if m.CkptInterval > 0 && m.CkptInterval < MinCkptInterval {
		return fmt.Errorf("%s: checkpoint interval %d below the minimum of %d", m.Name, m.CkptInterval, MinCkptInterval)
	}
	if m.CkptDepth < 0 {
		return fmt.Errorf("%s: negative checkpoint depth", m.Name)
	}
	if m.CkptDepth > MaxCkptDepth {
		return fmt.Errorf("%s: checkpoint depth %d above the maximum of %d", m.Name, m.CkptDepth, MaxCkptDepth)
	}
	if m.CkptDepth > 0 && m.CkptInterval == 0 {
		return fmt.Errorf("%s: checkpoint depth without a checkpoint interval", m.Name)
	}
	return nil
}

// Checkpoint-policy bounds enforced by Validate. The interval floor keeps
// capture frequency sane (a capture is a full engine deep-clone); the
// depth cap bounds retained-checkpoint memory.
const (
	MinCkptInterval = 64
	MaxCkptDepth    = 16
)
