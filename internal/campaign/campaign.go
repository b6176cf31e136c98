// Package campaign implements Monte Carlo transient-fault injection
// campaigns over the simulation engine: statistically grounded protection
// evaluation in the style of architectural vulnerability studies, rather
// than the single-run rate sweep the repository started with.
//
// A campaign is described by a Spec — machine, workload, trial count,
// fault rate, master seed, run lengths, and an injection window — and
// expands deterministically into Trials independent simulations: trial i
// runs the machine with a per-trial fault seed derived from the master
// seed (TrialSeed), injecting faults only inside the window (by default
// the measured region, so warmup state stays bit-identical to the
// fault-free golden run). Every trial outcome is classified against that
// golden run:
//
//   - detected:  the redundant machinery caught at least one fault
//   - squashed:  faults were wiped by an unrelated recovery (benign)
//   - masked:    faults were injected but left no architectural trace
//   - sdc:       the architectural retirement signature diverged from the
//     golden run — silent data corruption, detected end to end
//   - hang:      the cycle-budget watchdog fired before the trial retired
//     its instructions (a recovery livelock)
//   - clean:     the Bernoulli injector never fired in the window
//
// Trials fan out through the shared sim.Suite (Suite.FanOut), so they
// parallelize under its bound, deduplicate via singleflight, and (with a
// store attached to the suite) persist across processes as ordinary
// simulation results.
// A trial is a pure function of its machine, workload and options, so a
// killed campaign rerun over the same store picks up where it left off:
// every finished trial is a store hit, and Result.Resumed counts exactly
// how many trials were served without computing them.
//
// Clean trials cost no simulation. A trial runs bit-identically to the
// golden run until its injector first fires, and the injector draws once
// per injection site in the window, so the golden run counts those sites
// (sim.Suite.FetchGolden) and core.FirstFaultSite finds from each trial's
// seed whether it fires before the count runs out. A trial that never
// fires, and whose cycle budget the golden run fits, is derived from the
// golden run (sim.Suite.Derive): the same result bytes, cached and stored
// under the trial's own key, without simulating. When the count is
// unknown, as for a golden run served from the store, every trial
// simulates.
package campaign

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/recovery"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Spec describes one fault-injection campaign. The zero values of the
// optional fields are filled by normalization: run lengths default to the
// suite's options, the window to the whole measured region, the trial
// count to DefaultTrials, the fault rate to DefaultFaultRate, and the
// cycle budget to DefaultBudgetFactor times the golden run's cycles.
type Spec struct {
	// Machine names the configuration under test ("shrec", "ss2+sc", ...;
	// see config.ByName).
	Machine string `json:"machine"`
	// Benchmark names the workload ("swim", "crafty", ...).
	Benchmark string `json:"benchmark"`
	// Trials is the number of independent fault-injection runs.
	Trials int `json:"trials,omitempty"`
	// FaultRate is the per-instruction injection probability inside the
	// window.
	FaultRate float64 `json:"fault_rate,omitempty"`
	// Seed is the campaign's master seed; trial i injects with
	// TrialSeed(Seed, i), so one seed reproduces the whole campaign
	// trial by trial.
	Seed uint64 `json:"seed,omitempty"`
	// WarmupInstrs and MeasureInstrs are the per-trial run lengths
	// (0 = the suite's defaults).
	WarmupInstrs  uint64 `json:"warmup_instrs,omitempty"`
	MeasureInstrs uint64 `json:"measure_instrs,omitempty"`
	// WindowLo and WindowHi bound injection, in correct-path fetch
	// sequence numbers relative to the start of the measured region. Both
	// zero selects the whole measured region. The campaign additionally
	// shifts the window's start past the warmup's in-flight fetch horizon
	// (ROB size plus retirement overshoot): fetch runs up to a full ROB
	// ahead of retirement, so an unshifted window would open during the
	// warmup tail and perturb the warmup state the golden comparison
	// depends on.
	WindowLo uint64 `json:"window_lo,omitempty"`
	WindowHi uint64 `json:"window_hi,omitempty"`
	// MaxCycles is the per-trial hang watchdog in measured cycles
	// (0 = DefaultBudgetFactor times the golden run's measured cycles).
	MaxCycles int64 `json:"max_cycles,omitempty"`
	// Recovery selects the checkpoint/rollback policy trials run under
	// ("none", "ckpt@64k+depth2+flush8+restore64", ...; see
	// recovery.ParseMode). It overrides any checkpoint fields the named
	// machine carries; left empty with a checkpoint-bearing machine
	// ("shrec+ckpt64k") it adopts the machine's policy at default costs.
	// Normalization rewrites the field to the policy's canonical string.
	Recovery string `json:"recovery,omitempty"`
}

// Campaign defaults, applied by normalization.
const (
	// DefaultTrials is the trial count when the spec leaves it zero.
	DefaultTrials = 100
	// DefaultFaultRate is the per-instruction injection probability when
	// the spec leaves it zero.
	DefaultFaultRate = 1e-4
	// DefaultBudgetFactor scales the golden run's measured cycles into
	// the per-trial hang budget when the spec leaves MaxCycles zero.
	DefaultBudgetFactor = 4
	// DefaultRepairCycles is the repair cost charged per fatal
	// (non-recovered) failure in the availability estimate: the cycles a
	// reboot-and-restore costs relative to the pipeline clock.
	DefaultRepairCycles = 1_000_000
)

// Outcome classifies one trial (see the package comment for the classes).
type Outcome string

// The trial outcome classes, from best-covered to worst.
const (
	OutcomeDetected Outcome = "detected"
	OutcomeSquashed Outcome = "squashed"
	OutcomeMasked   Outcome = "masked"
	OutcomeSDC      Outcome = "sdc"
	OutcomeHang     Outcome = "hang"
	OutcomeClean    Outcome = "clean"
)

// Outcomes lists every trial class in report order.
func Outcomes() []Outcome {
	return []Outcome{OutcomeDetected, OutcomeSquashed, OutcomeMasked,
		OutcomeSDC, OutcomeHang, OutcomeClean}
}

// Classify maps one trial's simulation result to its outcome class, given
// the fault-free golden run's architectural signature. Precedence runs
// worst-observable-first: a hang is terminal regardless of what else the
// trial logged; a diverged signature is corruption even if other faults
// in the same trial were detected; detection outranks the benign classes.
// On a recovery trial the engine's counters describe the committed
// timeline only — faults undone by rollback were rewound along with the
// work — so detections recorded in the recovery trace count alongside
// the committed ones.
func Classify(res sim.Result, goldenSig uint64) Outcome {
	st := res.Stats
	var rec uint64
	if res.Recovery != nil {
		rec = res.Recovery.Detected()
	}
	switch {
	case res.Hung:
		return OutcomeHang
	case st.FaultsInjected == 0 && rec == 0:
		return OutcomeClean
	case st.ArchSig != goldenSig:
		return OutcomeSDC
	case st.FaultsDetected > 0 || rec > 0:
		return OutcomeDetected
	case st.FaultsSquashed > 0:
		return OutcomeSquashed
	default:
		return OutcomeMasked
	}
}

// TrialSeed derives trial i's fault-injector seed from the campaign's
// master seed: a splitmix fork, so trials sample decorrelated fault sites
// while the whole campaign remains a pure function of (Seed, i).
func TrialSeed(seed uint64, trial int) uint64 {
	return rng.New(seed).Fork(uint64(trial) + 1).Uint64()
}

// Trial is the compact per-trial record a campaign aggregates, derived
// from the trial's simulation result (which the suite caches and
// persists).
type Trial struct {
	// Index is the trial's position in the campaign ([0, Trials)).
	Index int `json:"index"`
	// Seed is the trial's derived fault-injector seed.
	Seed uint64 `json:"seed"`
	// Outcome is the trial's classification.
	Outcome Outcome `json:"outcome"`
	// Faults counts injected faults; Detected and Squashed count their
	// dispositions (Faults - Detected - Squashed were masked or escaped).
	Faults   uint64 `json:"faults"`
	Detected uint64 `json:"detected"`
	Squashed uint64 `json:"squashed"`
	// FaultsUnchecked counts injected faults that landed where the machine
	// does not check — FLEX's checking-disabled regions. A trial whose
	// every fault is unchecked says nothing about the checker; conditional
	// coverage (Result.ConditionalCoverage) excludes it.
	FaultsUnchecked uint64 `json:"faults_unchecked,omitempty"`
	// DetectLatency is the mean injection-to-detection latency in cycles
	// over the trial's detected faults (0 when none).
	DetectLatency float64 `json:"detect_latency,omitempty"`
	// IPC is the trial's measured IPC (partial for hung trials).
	IPC float64 `json:"ipc"`
	// Cycles is the trial's measured cycle count.
	Cycles int64 `json:"cycles"`
	// ArchSig is the trial's architectural retirement signature.
	ArchSig uint64 `json:"arch_sig"`

	// Recovery observables, present only under a recovery policy (see
	// internal/recovery): detected faults by recovery outcome, checkpoint
	// captures, and the cycles of work rollbacks discarded. Faults and
	// Detected above include the rolled-back detections (one injected,
	// detected fault per rollback) even though the committed counters
	// rewound past them.
	Rollbacks     uint64 `json:"rollbacks,omitempty"`
	Overruns      uint64 `json:"overruns,omitempty"`
	Unrecoverable uint64 `json:"unrecoverable,omitempty"`
	Checkpoints   uint64 `json:"checkpoints,omitempty"`
	LostWork      int64  `json:"lost_work,omitempty"`
}

// Counts tallies trials per outcome class.
type Counts struct {
	Detected int `json:"detected"`
	Squashed int `json:"squashed"`
	Masked   int `json:"masked"`
	SDC      int `json:"sdc"`
	Hang     int `json:"hang"`
	Clean    int `json:"clean"`
}

// Add tallies one outcome.
func (c *Counts) Add(o Outcome) {
	switch o {
	case OutcomeDetected:
		c.Detected++
	case OutcomeSquashed:
		c.Squashed++
	case OutcomeMasked:
		c.Masked++
	case OutcomeSDC:
		c.SDC++
	case OutcomeHang:
		c.Hang++
	case OutcomeClean:
		c.Clean++
	}
}

// Faulted returns the number of trials in which at least one fault was
// injected — the denominator of the coverage estimate.
func (c Counts) Faulted() int {
	return c.Detected + c.Squashed + c.Masked + c.SDC + c.Hang
}

// Estimate is a binomial proportion with its Wilson 95% confidence
// bounds over N trials.
type Estimate struct {
	Point float64 `json:"point"`
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
	N     int     `json:"n"`
}

// wilsonZ is the standard-normal quantile of the 95% interval.
const wilsonZ = 1.96

// estimate builds a Wilson-bounded proportion.
func estimate(successes, n int) Estimate {
	e := Estimate{N: n}
	if n > 0 {
		e.Point = float64(successes) / float64(n)
	}
	e.Lo, e.Hi = stats.Wilson(successes, n, wilsonZ)
	return e
}

// Coverage is the campaign's headline estimate: the fraction of faulted
// trials whose faults stayed architecturally harmless (detected, wiped by
// recovery, or masked) — everything except silent corruption and hangs —
// with Wilson 95% bounds over the faulted-trial count.
func (c Counts) Coverage() Estimate {
	return estimate(c.Detected+c.Squashed+c.Masked, c.Faulted())
}

// Progress is a running campaign snapshot, delivered to the progress
// callback after every finished trial, resumed ones included.
type Progress struct {
	// Done counts finished trials (resumed included); Total is the
	// campaign's trial count.
	Done  int `json:"done"`
	Total int `json:"total"`
	// Resumed counts finished trials served from the suite's cache or
	// store instead of simulated.
	Resumed int `json:"resumed"`
	// Counts tallies finished trials per outcome class.
	Counts Counts `json:"counts"`
	// Coverage is the running coverage estimate over faulted trials.
	Coverage Estimate `json:"coverage"`
}

// Result is one completed campaign.
type Result struct {
	// Spec is the normalized specification (defaults filled in).
	Spec Spec `json:"spec"`
	// Golden is the fault-free reference run trials are compared against.
	Golden sim.Result `json:"golden"`
	// MaxCycles is the resolved per-trial hang budget.
	MaxCycles int64 `json:"max_cycles"`
	// Trials holds every trial record, ordered by index.
	Trials []Trial `json:"trials"`
	// Resumed counts trials served from the suite's cache or store;
	// Executed counts trials computed by this run (simulated or derived
	// from the golden run). They sum to len(Trials), which is how
	// resumption is verified.
	Resumed  int `json:"resumed"`
	Executed int `json:"executed"`
}

// Counts tallies the campaign's trials per outcome class.
func (r *Result) Counts() Counts {
	var c Counts
	for _, t := range r.Trials {
		c.Add(t.Outcome)
	}
	return c
}

// Coverage returns the campaign's protection coverage — the fraction of
// faulted trials without silent corruption or a hang — with Wilson 95%
// bounds over the faulted-trial count.
func (r *Result) Coverage() Estimate {
	return r.Counts().Coverage()
}

// ConditionalCoverage is coverage given that checking applied: trials
// whose every injected fault landed where the machine does not check
// (FLEX's off regions) are excluded from the denominator, because their
// outcome says nothing about the detection hardware. A machine that
// checks everything has ConditionalCoverage == Coverage; for a
// region-gated machine the pair separates "the checker missed" from "the
// policy chose not to look" — the conditional-coverage story the
// flexible-detection papers evaluate.
func (r *Result) ConditionalCoverage() Estimate {
	covered, n := 0, 0
	for _, t := range r.Trials {
		if t.Faults == 0 || t.Faults == t.FaultsUnchecked {
			continue
		}
		n++
		switch t.Outcome {
		case OutcomeDetected, OutcomeSquashed, OutcomeMasked:
			covered++
		}
	}
	return estimate(covered, n)
}

// UncheckedOnlyTrials counts the faulted trials excluded by
// ConditionalCoverage: every injected fault landed in a
// checking-disabled region.
func (r *Result) UncheckedOnlyTrials() int {
	n := 0
	for _, t := range r.Trials {
		if t.Faults > 0 && t.Faults == t.FaultsUnchecked {
			n++
		}
	}
	return n
}

// Aggregates are the campaign-level fault and cost sums shared by every
// renderer (Result.Report, cmd/faultstudy), kept in one place so the CLI
// and the typed report cannot drift apart.
type Aggregates struct {
	// Faults and Detected total injected and detected faults over all
	// trials.
	Faults, Detected uint64
	// DetectLatency is the mean injection-to-detection latency in cycles
	// over every detected fault (0 when none was detected).
	DetectLatency float64
	// MeanIPC is the mean trial IPC over non-hung trials (hung trials
	// report partial counters) and IPCTrials their count.
	MeanIPC   float64
	IPCTrials int
	// Overhead is the IPC lost to fault recovery relative to the golden
	// run, in percent (0 when not computable).
	Overhead float64
}

// Aggregates computes the campaign's fault and cost sums.
func (r *Result) Aggregates() Aggregates {
	var a Aggregates
	var latSum, ipcSum float64
	for _, t := range r.Trials {
		a.Faults += t.Faults
		a.Detected += t.Detected
		latSum += t.DetectLatency * float64(t.Detected)
		if t.Outcome != OutcomeHang {
			ipcSum += t.IPC
			a.IPCTrials++
		}
	}
	if a.Detected > 0 {
		a.DetectLatency = latSum / float64(a.Detected)
	}
	if a.IPCTrials > 0 {
		a.MeanIPC = ipcSum / float64(a.IPCTrials)
		if g := r.Golden.IPC(); g > 0 {
			a.Overhead = 100 * (g - a.MeanIPC) / g
		}
	}
	return a
}

// RecoverySummary aggregates the campaign's recovery observables and the
// derived rates the availability estimate plugs in. The cost terms
// (checkpoint overhead, mean recovery latency) combine the policy's
// FlushCost/RestoreCost with the measured traces here, post hoc — the
// simulations themselves recorded only raw observables, so the cached
// trials serve every cost assumption.
type RecoverySummary struct {
	// Policy is the campaign's recovery policy, parsed back from the
	// normalized spec.
	Policy recovery.Policy `json:"policy"`
	// Rollbacks, Overruns, and Unrecoverable total detected faults by
	// recovery outcome over all trials; Checkpoints totals captures and
	// LostWork the cycles rollbacks discarded.
	Rollbacks     uint64 `json:"rollbacks"`
	Overruns      uint64 `json:"overruns"`
	Unrecoverable uint64 `json:"unrecoverable"`
	Checkpoints   uint64 `json:"checkpoints"`
	LostWork      int64  `json:"lost_work"`
	// Recovered is the fraction of detected faults rollback recovered,
	// with Wilson 95% bounds over the detection count.
	Recovered Estimate `json:"recovered"`
	// MeanRecoveryLatency is the expected cycles one recovered fault
	// costs: the policy's RestoreCost plus the mean re-executed lost work.
	MeanRecoveryLatency float64 `json:"mean_recovery_latency"`
	// CkptOverhead is the checkpoint capture cost amortized per committed
	// cycle: FlushCost every Interval instructions, converted to cycles
	// through the golden run's CPI.
	CkptOverhead float64 `json:"ckpt_overhead"`
	// FaultsPerCycle is the detected-fault arrival rate on the committed
	// timeline (detections per trial cycle, pooled over all trials).
	FaultsPerCycle float64 `json:"faults_per_cycle"`
	// Cycles totals the trials' committed cycles — the denominator behind
	// FaultsPerCycle, kept so summaries from several campaigns can be
	// pooled (internal/explore does).
	Cycles int64 `json:"cycles"`
}

// Detected is the summary's total detected faults.
func (s *RecoverySummary) Detected() uint64 {
	return s.Rollbacks + s.Overruns + s.Unrecoverable
}

// RecoverySummary returns the campaign's aggregated recovery observables,
// or nil when the campaign ran without a recovery policy.
func (r *Result) RecoverySummary() *RecoverySummary {
	pol, err := recovery.ParseMode(r.Spec.Recovery)
	if err != nil || !pol.Enabled() {
		return nil
	}
	s := &RecoverySummary{Policy: pol}
	for _, t := range r.Trials {
		s.Rollbacks += t.Rollbacks
		s.Overruns += t.Overruns
		s.Unrecoverable += t.Unrecoverable
		s.Checkpoints += t.Checkpoints
		s.LostWork += t.LostWork
		s.Cycles += t.Cycles
	}
	if cpi := r.Golden.CPI(); cpi > 0 {
		s.CkptOverhead = float64(pol.FlushCost) / (float64(pol.Interval) * cpi)
	}
	s.Finalize()
	return s
}

// Finalize recomputes the derived fields (Recovered, MeanRecoveryLatency,
// FaultsPerCycle) from the counter sums — called after the counters are
// filled, and again by callers that pool several summaries.
func (s *RecoverySummary) Finalize() {
	s.Recovered = estimate(int(s.Rollbacks), int(s.Detected()))
	s.MeanRecoveryLatency = float64(s.Policy.RestoreCost)
	if s.Rollbacks > 0 {
		s.MeanRecoveryLatency += float64(s.LostWork) / float64(s.Rollbacks)
	}
	s.FaultsPerCycle = 0
	if s.Cycles > 0 {
		s.FaultsPerCycle = float64(s.Detected()) / float64(s.Cycles)
	}
}

// Availability is a steady-state availability estimate with Wilson 95%
// bounds (propagated monotonically from the fatal-fraction bounds) and
// the matching MTTF.
type Availability struct {
	Point float64 `json:"point"`
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
	// MTTFCycles is the mean cycles to an unrecovered failure; 0 means
	// unbounded (no fatal failure was observed), keeping the JSON finite.
	MTTFCycles float64 `json:"mttf_cycles,omitempty"`
}

// Availability estimates steady-state availability from the summary's
// pooled counters, charging repairCycles per fatal (non-recovered)
// failure — use DefaultRepairCycles absent a better model. The bounds
// come from the Wilson interval on the fatal fraction, which propagates
// monotonically through the renewal model.
func (s *RecoverySummary) Availability(repairCycles float64) Availability {
	det := int(s.Detected())
	fatal := int(s.Overruns + s.Unrecoverable)
	var pFatal float64
	if det > 0 {
		pFatal = float64(fatal) / float64(det)
	}
	fLo, fHi := stats.Wilson(fatal, det, wilsonZ)
	avail := func(pf float64) float64 {
		return stats.Availability(s.CkptOverhead, s.FaultsPerCycle, pf,
			repairCycles, 1-pf, s.MeanRecoveryLatency)
	}
	a := Availability{Point: avail(pFatal), Lo: avail(fHi), Hi: avail(fLo)}
	if m := stats.MTTF(s.FaultsPerCycle, pFatal); !math.IsInf(m, 1) {
		a.MTTFCycles = m
	}
	return a
}

// Availability estimates the machine's steady-state availability under
// the campaign's recovery policy (see RecoverySummary.Availability). ok
// is false when the campaign ran without a recovery policy.
func (r *Result) Availability(repairCycles float64) (Availability, bool) {
	s := r.RecoverySummary()
	if s == nil {
		return Availability{}, false
	}
	return s.Availability(repairCycles), true
}

// Report renders the campaign as a typed experiment report.
func (r *Result) Report() *report.Report {
	rep := report.New("campaign",
		fmt.Sprintf("Fault campaign: %s on %s (%d trials at rate %.2g)",
			r.Golden.Machine, r.Spec.Benchmark, len(r.Trials), r.Spec.FaultRate))

	c := r.Counts()
	total := len(r.Trials)
	ot := rep.AddTable("Trial outcomes", "outcome", "trials", "% of campaign")
	ot.Verb = "%.0f"
	share := func(n int) float64 {
		if total == 0 {
			return 0
		}
		return 100 * float64(n) / float64(total)
	}
	for _, o := range Outcomes() {
		n := map[Outcome]int{
			OutcomeDetected: c.Detected, OutcomeSquashed: c.Squashed,
			OutcomeMasked: c.Masked, OutcomeSDC: c.SDC,
			OutcomeHang: c.Hang, OutcomeClean: c.Clean,
		}[o]
		ot.AddRow(string(o), float64(n), share(n))
	}

	cov := c.Coverage()
	agg := r.Aggregates()
	st := rep.AddTable("Campaign summary", "metric", "value")
	st.Verb = "%.4g"
	st.AddRow("coverage %", 100*cov.Point)
	st.AddRow("coverage lo % (Wilson 95)", 100*cov.Lo)
	st.AddRow("coverage hi % (Wilson 95)", 100*cov.Hi)
	st.AddRow("faulted trials", float64(cov.N))
	st.AddRow("faults injected", float64(agg.Faults))
	st.AddRow("faults detected", float64(agg.Detected))
	var unchecked uint64
	for _, t := range r.Trials {
		unchecked += t.FaultsUnchecked
	}
	if unchecked > 0 {
		ccov := r.ConditionalCoverage()
		st.AddRow("conditional coverage %", 100*ccov.Point)
		st.AddRow("conditional coverage lo % (Wilson 95)", 100*ccov.Lo)
		st.AddRow("conditional coverage hi % (Wilson 95)", 100*ccov.Hi)
		st.AddRow("checked faulted trials", float64(ccov.N))
		st.AddRow("off-region-only trials", float64(r.UncheckedOnlyTrials()))
		st.AddRow("faults landed unchecked", float64(unchecked))
	}
	if agg.Detected > 0 {
		st.AddRow("mean detect latency (cycles)", agg.DetectLatency)
	}
	st.AddRow("golden IPC", r.Golden.IPC())
	if agg.IPCTrials > 0 && r.Golden.IPC() > 0 {
		st.AddRow("mean trial IPC", agg.MeanIPC)
		st.AddRow("recovery overhead %", agg.Overhead)
	}

	if rs := r.RecoverySummary(); rs != nil {
		av, _ := r.Availability(DefaultRepairCycles)
		rt := rep.AddTable("Recovery", "metric", "value")
		rt.Verb = "%.6g"
		rt.AddRow("rollbacks", float64(rs.Rollbacks))
		rt.AddRow("overruns", float64(rs.Overruns))
		rt.AddRow("unrecoverable", float64(rs.Unrecoverable))
		rt.AddRow("checkpoints", float64(rs.Checkpoints))
		rt.AddRow("lost work (cycles)", float64(rs.LostWork))
		if rs.Detected() > 0 {
			rt.AddRow("recovered % of detected", 100*rs.Recovered.Point)
			rt.AddRow("recovered lo % (Wilson 95)", 100*rs.Recovered.Lo)
			rt.AddRow("recovered hi % (Wilson 95)", 100*rs.Recovered.Hi)
		}
		rt.AddRow("mean recovery latency (cycles)", rs.MeanRecoveryLatency)
		rt.AddRow("checkpoint overhead (cycles/cycle)", rs.CkptOverhead)
		rt.AddRow("availability %", 100*av.Point)
		rt.AddRow("availability lo % (Wilson 95)", 100*av.Lo)
		rt.AddRow("availability hi % (Wilson 95)", 100*av.Hi)
		if av.MTTFCycles > 0 {
			rt.AddRow("MTTF (cycles)", av.MTTFCycles)
		}
		rep.SetMeta("recovery", rs.Policy.String())
		rep.AddNote("availability %.4f%% (Wilson 95%% CI [%.4f%%, %.4f%%]) under policy %s at repair cost %d cycles",
			100*av.Point, 100*av.Lo, 100*av.Hi, rs.Policy, int64(DefaultRepairCycles))
	}

	rep.AddNote("coverage %.2f%% (Wilson 95%% CI [%.2f%%, %.2f%%]) over %d faulted trials; %d sdc, %d hangs",
		100*cov.Point, 100*cov.Lo, 100*cov.Hi, cov.N, c.SDC, c.Hang)
	if r.Resumed > 0 {
		rep.AddNote("resumed %d of %d trials from earlier simulations (%d executed)",
			r.Resumed, total, r.Executed)
	}

	rep.SetMeta("machine", r.Golden.Machine)
	rep.SetMeta("benchmark", r.Spec.Benchmark)
	rep.SetMeta("trials", fmt.Sprint(total))
	rep.SetMeta("fault_rate", fmt.Sprintf("%g", r.Spec.FaultRate))
	rep.SetMeta("seed", fmt.Sprint(r.Spec.Seed))
	rep.SetMeta("warmup_instrs", fmt.Sprint(r.Spec.WarmupInstrs))
	rep.SetMeta("measure_instrs", fmt.Sprint(r.Spec.MeasureInstrs))
	rep.SetMeta("window", fmt.Sprintf("[%d, %d)", r.Spec.WindowLo, r.Spec.WindowHi))
	rep.SetMeta("max_cycles", fmt.Sprint(r.MaxCycles))
	rep.SetMeta("golden_arch_sig", fmt.Sprintf("%#x", r.Golden.Stats.ArchSig))
	return rep
}

// Normalize validates spec the way Run will (machine and workload
// resolve, rate and window and budget in range, recovery mode parses)
// against the run-length defaults def, and returns it with every default
// filled in — without simulating anything. Servers use it to reject
// statically impossible campaigns synchronously, and to identify jobs by
// the normalized spec so that spelled-out defaults and omitted ones name
// the same campaign.
func Normalize(spec Spec, def sim.Options) (Spec, error) {
	ns, _, _, _, err := normalize(spec, def)
	return ns, err
}

// normalize fills spec defaults from def and resolves the machine,
// workload, and recovery policy (applying the policy's checkpoint fields
// to the returned machine). The returned spec is what Result records.
func normalize(spec Spec, def sim.Options) (Spec, config.Machine, trace.Profile, recovery.Policy, error) {
	fail := func(err error) (Spec, config.Machine, trace.Profile, recovery.Policy, error) {
		return Spec{}, config.Machine{}, trace.Profile{}, recovery.Policy{}, err
	}
	full, err := config.ByName(spec.Machine)
	if err != nil {
		return fail(fmt.Errorf("campaign: %w", err))
	}
	// The golden run must be fault-free: a "+rate" token in the machine
	// spec names the trials' fault rate, not the machine's.
	m := full.WithoutRate()
	switch {
	case spec.FaultRate == 0:
		spec.FaultRate = full.FaultRate
	case full.FaultRate != 0 && full.FaultRate != spec.FaultRate:
		return fail(fmt.Errorf("campaign: machine %q injects at rate %g but the spec's fault rate is %g", spec.Machine, full.FaultRate, spec.FaultRate))
	}
	// Record the canonical spelling: "meek", "MEEK@2", and "Meek@2" all
	// name the same machine, so they must hash to the same job identity.
	spec.Machine = m.Spec()
	p, err := workload.ByName(spec.Benchmark)
	if err != nil {
		return fail(fmt.Errorf("campaign: %w", err))
	}
	pol, err := recovery.ParseMode(spec.Recovery)
	if err != nil {
		return fail(fmt.Errorf("campaign: %w", err))
	}
	if !pol.Enabled() && m.CkptInterval > 0 {
		// A checkpoint-bearing machine spec ("shrec+ckpt64k") implies the
		// policy at default costs.
		pol, err = (recovery.Policy{Interval: m.CkptInterval, Depth: m.CkptDepth}).Normalize()
		if err != nil {
			return fail(fmt.Errorf("campaign: %w", err))
		}
	}
	m = pol.Apply(m)
	spec.Recovery = ""
	if pol.Enabled() {
		spec.Recovery = pol.String()
	}
	if spec.Trials == 0 {
		spec.Trials = DefaultTrials
	}
	if spec.Trials < 0 {
		return fail(fmt.Errorf("campaign: negative trial count %d", spec.Trials))
	}
	if spec.FaultRate == 0 {
		spec.FaultRate = DefaultFaultRate
	}
	if spec.FaultRate < 0 || spec.FaultRate > 1 {
		return fail(fmt.Errorf("campaign: fault rate %g out of [0,1]", spec.FaultRate))
	}
	if spec.WarmupInstrs == 0 {
		spec.WarmupInstrs = def.WarmupInstrs
	}
	if spec.MeasureInstrs == 0 {
		spec.MeasureInstrs = def.MeasureInstrs
	}
	if spec.WindowLo == 0 && spec.WindowHi == 0 {
		spec.WindowHi = spec.MeasureInstrs
	}
	if spec.WindowHi <= spec.WindowLo {
		return fail(fmt.Errorf("campaign: empty injection window [%d, %d)", spec.WindowLo, spec.WindowHi))
	}
	if spec.WindowLo+fetchHorizon(m) >= spec.WindowHi {
		return fail(fmt.Errorf(
			"campaign: injection window [%d, %d) collapses inside the warmup fetch horizon (%d); raise MeasureInstrs or WindowHi",
			spec.WindowLo, spec.WindowHi, fetchHorizon(m)))
	}
	if spec.MaxCycles < 0 {
		return fail(fmt.Errorf("campaign: negative cycle budget %d", spec.MaxCycles))
	}
	return spec, m, p, pol, nil
}

// fetchHorizon bounds how many correct-path fetch sequence numbers the
// front end can consume beyond the current retirement count: a full ROB
// of in-flight instructions, the retirement overshoot of the final
// warmup cycle, the fetch buffer, and margin. The injection window's
// start is shifted past it so no instruction fetched during warmup is
// ever an injection site — which is what keeps the trial's warmup
// bit-identical to the golden run's.
func fetchHorizon(m config.Machine) uint64 {
	return uint64(m.ROBSize + m.RetireWidth + 64)
}

// Run executes (or resumes) the campaign described by spec on the
// simulation suite sims. Concurrent campaigns share the suite's result
// cache and parallelism bound; with a store attached to the suite, they
// resume across processes. The progress callback, when non-nil, is
// invoked serially after every finished trial with a running snapshot;
// it must return quickly. On context cancellation the campaign stops with
// an error, but every finished trial's result is already in the suite
// (and its store), so a later Run resumes from it.
func Run(ctx context.Context, sims *sim.Suite, spec Spec, progress func(Progress)) (*Result, error) {
	ns, m, p, _, err := normalize(spec, sims.Options())
	if err != nil {
		return nil, err
	}
	opt := sims.Options()
	opt.WarmupInstrs = ns.WarmupInstrs
	opt.MeasureInstrs = ns.MeasureInstrs
	opt.MaxCycles = 0

	// The golden run: the machine exactly as configured, fault-free, at
	// the campaign's run lengths. It defines the architectural signature
	// trials must match and the cycle budget of the hang watchdog. Shared
	// through the suite, so repeated campaigns (and ordinary experiments
	// at the same scale) reuse it. It also counts the injection sites in
	// the trials' window, which decides the clean trials.
	lo := ns.WarmupInstrs + fetchHorizon(m) + ns.WindowLo
	hi := ns.WarmupInstrs + ns.WindowHi
	goldenStart := time.Now()
	golden, sites, known, err := sims.FetchGolden(ctx, m, p, opt, lo, hi)
	if err != nil {
		return nil, fmt.Errorf("campaign: golden run: %w", err)
	}
	telemetry.SpanFrom(ctx).Record("golden_run", time.Since(goldenStart))
	budget := ns.MaxCycles
	if budget == 0 {
		budget = DefaultBudgetFactor * golden.Stats.Cycles
	}
	ns.MaxCycles = budget
	derivable := known && fitsBudget(golden, budget)
	topt := opt
	topt.MaxCycles = budget

	res := &Result{Spec: ns, Golden: golden, MaxCycles: budget,
		Trials: make([]Trial, ns.Trials)}
	// Running progress state, shared by the trial workers.
	var mu sync.Mutex
	prog := Progress{Total: ns.Trials}
	err = sims.FanOut(ctx, "campaign", "trials", ns.Trials, func(i int) error {
		mc := m
		mc.FaultRate = ns.FaultRate
		mc.FaultSeed = TrialSeed(ns.Seed, i)
		mc.FaultWindowLo, mc.FaultWindowHi = lo, hi
		trialStart := time.Now()
		var r sim.Result
		var ran bool
		var err error
		if derivable && core.FirstFaultSite(mc.FaultRate, mc.FaultSeed, sites) == sites {
			r, ran, err = sims.Derive(ctx, mc, p, topt, cleanResult(golden, budget))
		} else {
			r, ran, err = sims.Fetch(ctx, mc, p, topt)
		}
		if err != nil {
			return fmt.Errorf("trial %d: %w", i, err)
		}
		telemetry.SpanFrom(ctx).Record("trial", time.Since(trialStart))
		tr := newTrial(i, mc.FaultSeed, r, golden.Stats.ArchSig)
		mu.Lock()
		defer mu.Unlock()
		res.Trials[i] = tr
		if ran {
			res.Executed++
		} else {
			res.Resumed++
		}
		prog.Done++
		prog.Resumed = res.Resumed
		prog.Counts.Add(tr.Outcome)
		prog.Coverage = prog.Counts.Coverage()
		if progress != nil {
			// Under the lock, so snapshots arrive serially and in Done
			// order; the callback must return quickly.
			progress(prog)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// res.Trials is index-addressed throughout, so it is already in
	// trial order.
	return res, nil
}

// fitsBudget reports whether a trial that never injects finishes under the
// cycle budget exactly as the golden run did. Such a trial repeats the
// golden run's steps, and the watchdog fires only on a step after which
// Cycles exceeds the budget with instructions still to retire. The step
// that retires the last instruction is a single cycle (a retiring cycle is
// never fast-forwarded), so the unfinished steps reach at most the golden
// run's cycles minus one. Under a tighter budget the trial is simulated.
func fitsBudget(golden sim.Result, budget int64) bool {
	return !golden.Hung && (budget <= 0 || golden.Stats.Cycles-1 <= budget)
}

// cleanResult is the result of a trial that never injects: the golden
// run's, under the trial's cycle budget, with its own copy of the
// recovery trace.
func cleanResult(golden sim.Result, budget int64) sim.Result {
	r := golden
	r.Options.MaxCycles = budget
	if golden.Recovery != nil {
		tr := *golden.Recovery
		tr.Events = slices.Clone(tr.Events)
		r.Recovery = &tr
	}
	return r
}

// newTrial summarizes trial i's simulation result r, injected with the
// fault seed seed, against the golden run's architectural signature.
func newTrial(i int, seed uint64, r sim.Result, goldenSig uint64) Trial {
	tr := Trial{
		Index:           i,
		Seed:            seed,
		Outcome:         Classify(r, goldenSig),
		Faults:          r.Stats.FaultsInjected,
		Detected:        r.Stats.FaultsDetected,
		Squashed:        r.Stats.FaultsSquashed,
		FaultsUnchecked: r.Stats.FaultsInjectedUnchecked,
		DetectLatency:   r.Stats.AvgFaultDetectLatency(),
		IPC:             r.IPC(),
		Cycles:          r.Stats.Cycles,
		ArchSig:         r.Stats.ArchSig,
	}
	if rec := r.Recovery; rec != nil {
		tr.Rollbacks, tr.Overruns, tr.Unrecoverable = rec.Rollbacks, rec.Overruns, rec.Unrecoverable
		tr.Checkpoints = rec.Checkpoints
		tr.LostWork = rec.LostWork
		// Each rollback undid exactly one injected, detected fault that the
		// rewound committed counters no longer carry.
		tr.Faults += rec.Rollbacks
		tr.Detected += rec.Rollbacks
		if n := len(rec.Events); n > 0 {
			// The committed counters lost the rolled-back detection
			// latencies; recompute over the trace's event log (which covers
			// every detection on trial-sized runs).
			var sum float64
			for _, ev := range rec.Events {
				sum += float64(ev.DetectCycle - ev.InjectCycle)
			}
			tr.DetectLatency = sum / float64(n)
		}
	}
	return tr
}
