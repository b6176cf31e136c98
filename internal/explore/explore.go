// Package explore implements design-space exploration over the
// simulation engine: instead of replaying the paper's handful of preset
// machines, an exploration searches an enumerable parameter space of
// machine configurations (Space) for the resource-sharing points that
// are Pareto-efficient — maximum IPC (and, with fault injection, maximum
// detection coverage) at minimum hardware cost.
//
// An exploration is described by a Spec: the space, the benchmarks to
// score on, run lengths, a master seed, a search strategy, and a budget
// of full-fidelity evaluations. Two strategies share one interface:
//
//   - grid evaluates every point of the space at full fidelity (and
//     refuses spaces larger than the budget);
//   - halving runs a cheap screening pass first — every point at run
//     lengths divided by ScreenDiv — ranks the screened points by
//     Pareto dominance (stats.ParetoRanks, with a seeded deterministic
//     tie-break), and re-evaluates only the surviving half (capped by
//     the budget) at full fidelity.
//
// Every evaluation scores the point's harmonic-mean IPC over the
// benchmarks, its slowdown against the plain SS2 redundant baseline at
// the same fidelity, a deterministic hardware-cost proxy (Cost), and —
// when the point carries a fault rate — Monte Carlo detection coverage
// through internal/campaign. Evaluations flow through the shared
// sim.Suite, so concurrent and repeated explorations reuse runs, and with
// a store attached to the suite every simulation behind an evaluation
// persists: a killed exploration resumes without re-simulating finished
// points, and a point whose simulations were all served from the suite
// counts as resumed.
//
// The result is the Pareto frontier (stats.ParetoFront) over the
// full-fidelity evaluations, rendered as a typed report.Report.
package explore

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/config"
	"repro/internal/fu"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Spec describes one exploration. Zero values of the optional fields are
// filled by normalization (see the constants below and Normalize).
type Spec struct {
	// Space is the parameter space to search.
	Space Space `json:"space"`
	// Strategy selects the search: "grid" (default) or "halving".
	Strategy string `json:"strategy,omitempty"`
	// Benchmarks are the workloads each point is scored on (harmonic
	// mean IPC; default DefaultBenchmark).
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Seed drives the halving tie-break and the per-point campaign
	// seeds, so one seed reproduces the whole exploration.
	Seed uint64 `json:"seed,omitempty"`
	// WarmupInstrs and MeasureInstrs are the full-fidelity run lengths
	// (0 = the suite's defaults).
	WarmupInstrs  uint64 `json:"warmup_instrs,omitempty"`
	MeasureInstrs uint64 `json:"measure_instrs,omitempty"`
	// ScreenDiv divides the run lengths for the halving screen
	// (default DefaultScreenDiv).
	ScreenDiv int `json:"screen_div,omitempty"`
	// Budget caps full-fidelity point evaluations. Grid requires the
	// whole space to fit (its default is the space size); halving keeps
	// at most Budget survivors (its default is half the space, rounded
	// up).
	Budget int `json:"budget,omitempty"`
	// Trials is the campaign trial count behind each faulted point's
	// coverage estimate (default DefaultTrials).
	Trials int `json:"trials,omitempty"`
}

// Exploration defaults, applied by normalization.
const (
	// DefaultBenchmark scores points when the spec names no workloads.
	DefaultBenchmark = "crafty"
	// DefaultScreenDiv is the fidelity divisor of the halving screen.
	DefaultScreenDiv = 8
	// DefaultTrials is the per-point campaign size for faulted points.
	DefaultTrials = 24
	// minScreenInstrs floors the screened run lengths so a screen is
	// still a simulation, not noise.
	minScreenInstrs = 1000
)

// The search strategies.
const (
	StrategyGrid    = "grid"
	StrategyHalving = "halving"
)

// Strategies lists the selectable search strategies.
func Strategies() []string { return []string{StrategyGrid, StrategyHalving} }

// Eval is one point's scored evaluation — the unit the report tabulates.
// All fields are finite (coverage is guarded by Covered rather than NaN)
// so the record always serializes.
type Eval struct {
	// Index is the point's position in the space enumeration.
	Index int `json:"index"`
	// Spec is the point's canonical specification string.
	Spec string `json:"spec"`
	// Rate is the point's fault-injection rate (0 = performance only).
	Rate float64 `json:"rate,omitempty"`
	// Screen marks a screening-fidelity evaluation.
	Screen bool `json:"screen,omitempty"`
	// IPC is the harmonic-mean fault-free IPC over the benchmarks.
	IPC float64 `json:"ipc"`
	// Slowdown is the SS2 baseline's IPC divided by this point's
	// (>1 = slower than plain SS2) at the same fidelity.
	Slowdown float64 `json:"slowdown"`
	// Cost is the deterministic hardware-cost proxy (Cost).
	Cost float64 `json:"cost"`
	// Covered reports that the coverage fields are meaningful (the
	// point has a fault rate and its campaigns ran).
	Covered bool `json:"covered,omitempty"`
	// Coverage is the pooled campaign coverage estimate with its Wilson
	// 95% bounds, and SDC/Hangs the pooled escape counts.
	Coverage   float64 `json:"coverage,omitempty"`
	CoverageLo float64 `json:"coverage_lo,omitempty"`
	CoverageHi float64 `json:"coverage_hi,omitempty"`
	SDC        int     `json:"sdc,omitempty"`
	Hangs      int     `json:"hangs,omitempty"`
	// Availed reports that the availability fields are meaningful (the
	// point checkpoints under fault injection, so its campaigns carried a
	// recovery policy).
	Availed bool `json:"availed,omitempty"`
	// Avail is the point's steady-state availability estimate with its
	// Wilson-propagated 95% bounds, pooled over the benchmarks' campaign
	// summaries at campaign.DefaultRepairCycles; MTTFCycles is the
	// matching mean cycles to fatal failure (0 = none observed).
	Avail      float64 `json:"avail,omitempty"`
	AvailLo    float64 `json:"avail_lo,omitempty"`
	AvailHi    float64 `json:"avail_hi,omitempty"`
	MTTFCycles float64 `json:"mttf_cycles,omitempty"`
}

// Progress is a running exploration snapshot, delivered serially to the
// progress callback after every finished evaluation.
type Progress struct {
	// Phase is the evaluation pass currently running: "screen" or
	// "full".
	Phase string `json:"phase"`
	// Done and Total count finished and planned evaluations within the
	// phase (halving's full-phase Total is known only after the screen).
	Done  int `json:"done"`
	Total int `json:"total"`
	// Resumed counts evaluations, both phases, whose simulations were all
	// served from the suite's cache or store.
	Resumed int `json:"resumed"`
}

// Result is one completed exploration.
type Result struct {
	// Spec is the normalized specification.
	Spec Spec `json:"spec"`
	// Points is the size of the explored space.
	Points int `json:"points"`
	// BaselineIPC is the plain-SS2 harmonic-mean IPC at full fidelity
	// that Slowdown is measured against.
	BaselineIPC float64 `json:"baseline_ipc"`
	// Screen holds the screening-fidelity evaluations (halving only),
	// in point-index order.
	Screen []Eval `json:"screen,omitempty"`
	// Evals holds the full-fidelity evaluations, in point-index order.
	Evals []Eval `json:"evals"`
	// Frontier holds the indices into Evals of the Pareto-efficient
	// points (maximize IPC and coverage, minimize cost), in index
	// order.
	Frontier []int `json:"frontier"`
	// Resumed counts evaluations whose simulations were all served from
	// the suite's cache or store; Executed counts evaluations that
	// simulated at least one run. They sum to the evaluation count.
	Resumed  int `json:"resumed"`
	Executed int `json:"executed"`
}

// FrontierEvals returns the frontier's evaluations.
func (r *Result) FrontierEvals() []Eval {
	out := make([]Eval, len(r.Frontier))
	for i, k := range r.Frontier {
		out[i] = r.Evals[k]
	}
	return out
}

// Cost is the deterministic hardware-cost proxy explorations minimize: a
// rough relative area in "ALU equivalents", weighting each functional
// unit class by latency-derived complexity (IALU 1, IMULDIV 3, FADD 2,
// FMULDIV 4; doubled when the checker owns a dedicated pool, the DIVA
// trade), pipeline widths at one unit per slot, window capacities scaled
// to SS1's contribution, and the memory-side ports and MSHRs. The
// absolute numbers are a proxy, not an area model; what matters is that
// the measure is deterministic, monotone in every resource an axis can
// scale, and shared by every report row.
func Cost(m config.Machine) float64 {
	weights := [fu.NumClasses]float64{1, 3, 2, 4}
	fuCost := 0.0
	for c, n := range m.FU.Counts {
		fuCost += weights[c] * float64(n)
	}
	if m.CheckerDedicatedFU {
		fuCost *= 2
	}
	widths := float64(m.DecodeWidth + m.IssueWidth + m.RetireWidth)
	windows := float64(m.ISQSize)/16 + float64(m.ROBSize)/64 +
		float64(m.LSQSize)/16 + float64(m.CheckerWindow)/2
	mem := 2*float64(m.Mem.MemPorts) + float64(m.Mem.MSHREntries)/4
	// The modern detection modes trade different hardware for checking:
	// MEEK buys narrow in-order lanes plus the retirement-log FIFO (1.5
	// ALU-equivalents per lane); multi-context SHREC buys per-context scan
	// state on top of the shared checker window (0.75 per context); FLEX
	// adds only the region-policy sequencing over the SHREC substrate it
	// keeps.
	det := 1.5*float64(m.CheckerLanes) + 0.75*float64(m.Contexts)
	if m.Mode == config.ModeFLEX {
		det++
	}
	ckpt := 0.0
	if m.CkptInterval > 0 {
		// Checkpoint recovery buys availability with hardware: shadow
		// state for each retained architectural checkpoint plus capture
		// sequencing, charged per ring slot.
		depth := m.CkptDepth
		if depth < 1 {
			depth = 1
		}
		ckpt = 2 + 3*float64(depth)
	}
	return fuCost + widths + windows + mem + det + ckpt
}

// Normalize validates spec the way Run will against the run-length
// defaults def and returns it with every default filled in, without
// simulating anything. Servers use it to reject impossible explorations
// synchronously and to identify jobs by normalized spec.
func Normalize(spec Spec, def sim.Options) (Spec, error) {
	if err := spec.Space.validate(); err != nil {
		return Spec{}, err
	}
	spec.Space = spec.Space.canonical()
	switch spec.Strategy {
	case "":
		spec.Strategy = StrategyGrid
	case StrategyGrid, StrategyHalving:
	default:
		return Spec{}, fmt.Errorf("explore: unknown strategy %q (have %v)", spec.Strategy, Strategies())
	}
	if len(spec.Benchmarks) == 0 {
		spec.Benchmarks = []string{DefaultBenchmark}
	}
	for _, b := range spec.Benchmarks {
		if _, err := workload.ByName(b); err != nil {
			return Spec{}, fmt.Errorf("explore: %w", err)
		}
	}
	if spec.WarmupInstrs == 0 {
		spec.WarmupInstrs = def.WarmupInstrs
	}
	if spec.MeasureInstrs == 0 {
		spec.MeasureInstrs = def.MeasureInstrs
	}
	if spec.ScreenDiv == 0 {
		spec.ScreenDiv = DefaultScreenDiv
	}
	if spec.ScreenDiv < 2 {
		return Spec{}, fmt.Errorf("explore: screen divisor %d below 2", spec.ScreenDiv)
	}
	if spec.Trials == 0 {
		spec.Trials = DefaultTrials
	}
	if spec.Trials < 0 {
		return Spec{}, fmt.Errorf("explore: negative trial count %d", spec.Trials)
	}
	size := spec.Space.Size()
	if spec.Budget == 0 {
		if spec.Strategy == StrategyHalving {
			spec.Budget = (size + 1) / 2
		} else {
			spec.Budget = size
		}
	}
	if spec.Budget < 1 {
		return Spec{}, fmt.Errorf("explore: non-positive budget %d", spec.Budget)
	}
	if spec.Strategy == StrategyGrid && size > spec.Budget {
		return Spec{}, fmt.Errorf("explore: grid over %d points exceeds the budget of %d full-fidelity evaluations (shrink the space, raise the budget, or use -strategy halving)", size, spec.Budget)
	}
	return spec, nil
}

// pointSeed derives the campaign master seed of point i — a splitmix
// fork, like campaign.TrialSeed, so points sample decorrelated fault
// sites while the exploration remains a pure function of (Seed, i).
func pointSeed(seed uint64, index int) uint64 {
	return rng.New(seed).Fork(uint64(index) + 1).Uint64()
}

// run carries one exploration's shared state across the strategy and
// evaluation passes.
type run struct {
	sims     *sim.Suite
	spec     Spec
	points   []Point
	progress func(Progress)

	mu       sync.Mutex
	resumed  int
	executed int
	screen   []Eval
}

// options returns the run lengths of the given fidelity.
func (r *run) options(screen bool) sim.Options {
	opt := r.sims.Options()
	opt.WarmupInstrs = r.spec.WarmupInstrs
	opt.MeasureInstrs = r.spec.MeasureInstrs
	opt.MaxCycles = 0
	if screen {
		div := uint64(r.spec.ScreenDiv)
		opt.WarmupInstrs /= div
		if opt.MeasureInstrs /= div; opt.MeasureInstrs < minScreenInstrs {
			opt.MeasureInstrs = minScreenInstrs
		}
	}
	return opt
}

// baselineIPC scores the plain SS2 redundant machine — the slowdown
// reference — over the spec's benchmarks at the given options.
func (r *run) baselineIPC(ctx context.Context, opt sim.Options) (float64, error) {
	ipc, _, err := r.meanIPC(ctx, config.SS2(config.Factors{}), opt)
	return ipc, err
}

// meanIPC is the harmonic-mean IPC of machine m over the benchmarks. ran
// reports that at least one of the runs was simulated by this call.
func (r *run) meanIPC(ctx context.Context, m config.Machine, opt sim.Options) (float64, bool, error) {
	ipcs := make([]float64, 0, len(r.spec.Benchmarks))
	ran := false
	for _, b := range r.spec.Benchmarks {
		p, err := workload.ByName(b)
		if err != nil {
			return 0, false, err
		}
		res, fresh, err := r.sims.Fetch(ctx, m, p, opt)
		if err != nil {
			return 0, false, err
		}
		ran = ran || fresh
		ipcs = append(ipcs, res.IPC())
	}
	return stats.HarmonicMean(ipcs), ran, nil
}

// evalPoint scores one point at one fidelity. The returned bool reports
// a resumed evaluation: every simulation behind it was served from the
// suite's cache or store.
func (r *run) evalPoint(ctx context.Context, pt Point, opt sim.Options, screen bool, baseIPC float64) (Eval, bool, error) {
	ipc, ran, err := r.meanIPC(ctx, pt.Machine, opt)
	if err != nil {
		return Eval{}, false, err
	}
	ev := Eval{
		Index:    pt.Index,
		Spec:     pt.Spec,
		Rate:     pt.Rate,
		Screen:   screen,
		IPC:      ipc,
		Slowdown: baseIPC / ipc,
		Cost:     Cost(pt.Machine),
	}
	// Coverage: one campaign per benchmark, outcomes pooled. The screen
	// pass skips campaigns — short screened runs can collapse the
	// injection window inside the warmup fetch horizon, and coverage is
	// re-measured on every survivor at full fidelity anyway.
	if pt.Rate > 0 && !screen && r.spec.Trials > 0 {
		var counts campaign.Counts
		var pooled *campaign.RecoverySummary
		var ckptOvWeighted float64
		for _, b := range r.spec.Benchmarks {
			cres, err := campaign.Run(ctx, r.sims, campaign.Spec{
				Machine:       pt.Machine.Spec(),
				Benchmark:     b,
				Trials:        r.spec.Trials,
				FaultRate:     pt.Rate,
				Seed:          pointSeed(r.spec.Seed, pt.Index),
				WarmupInstrs:  opt.WarmupInstrs,
				MeasureInstrs: opt.MeasureInstrs,
			}, nil)
			if err != nil {
				return Eval{}, false, fmt.Errorf("coverage of %s on %s: %w", pt.Spec, b, err)
			}
			ran = ran || cres.Executed > 0
			for _, t := range cres.Trials {
				counts.Add(t.Outcome)
			}
			if rs := cres.RecoverySummary(); rs != nil {
				// Pool the recovery counters over the benchmarks; the
				// checkpoint overhead (a per-benchmark CPI ratio) pools as
				// a cycle-weighted mean.
				if pooled == nil {
					pooled = &campaign.RecoverySummary{Policy: rs.Policy}
				}
				pooled.Rollbacks += rs.Rollbacks
				pooled.Overruns += rs.Overruns
				pooled.Unrecoverable += rs.Unrecoverable
				pooled.Checkpoints += rs.Checkpoints
				pooled.LostWork += rs.LostWork
				pooled.Cycles += rs.Cycles
				ckptOvWeighted += rs.CkptOverhead * float64(rs.Cycles)
			}
		}
		// With no faulted trial, nothing is known: the estimate spans
		// [0, 1].
		cov := counts.Coverage()
		ev.Covered = true
		ev.SDC = counts.SDC
		ev.Hangs = counts.Hang
		ev.Coverage, ev.CoverageLo, ev.CoverageHi = cov.Point, cov.Lo, cov.Hi
		if pooled != nil {
			if pooled.Cycles > 0 {
				pooled.CkptOverhead = ckptOvWeighted / float64(pooled.Cycles)
			}
			pooled.Finalize()
			av := pooled.Availability(campaign.DefaultRepairCycles)
			ev.Availed = true
			ev.Avail, ev.AvailLo, ev.AvailHi = av.Point, av.Lo, av.Hi
			ev.MTTFCycles = av.MTTFCycles
		}
	}
	return ev, !ran, nil
}

// evalAll scores every point concurrently at the given fidelity,
// returning evaluations in point order. Failures are joined; on context
// cancellation the cascade collapses to one error (the simulations of
// finished evaluations are already in the suite and its store).
func (r *run) evalAll(ctx context.Context, points []Point, screen bool) ([]Eval, error) {
	opt := r.options(screen)
	baseStart := time.Now()
	baseIPC, err := r.baselineIPC(ctx, opt)
	if err != nil {
		return nil, fmt.Errorf("explore: SS2 baseline: %w", err)
	}
	telemetry.SpanFrom(ctx).Record("baseline_run", time.Since(baseStart))
	phase := "full"
	if screen {
		phase = "screen"
	}
	evals := make([]Eval, len(points))
	done := 0
	err = r.sims.FanOut(ctx, "explore", phase+" evaluations", len(points), func(i int) error {
		pt := points[i]
		evalStart := time.Now()
		ev, resumed, err := r.evalPoint(ctx, pt, opt, screen, baseIPC)
		telemetry.SpanFrom(ctx).Record(phase+"_eval", time.Since(evalStart))
		if err != nil {
			return fmt.Errorf("point %d (%s): %w", pt.Index, pt.Spec, err)
		}
		r.mu.Lock()
		defer r.mu.Unlock()
		evals[i] = ev
		if resumed {
			r.resumed++
		} else {
			r.executed++
		}
		done++
		if r.progress != nil {
			// Under the lock, so snapshots arrive serially; the callback
			// must return quickly.
			r.progress(Progress{Phase: phase, Done: done,
				Total: len(points), Resumed: r.resumed})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return evals, nil
}

// objectives maps an evaluation to its maximization vector: IPC,
// coverage (when the exploration measures any; uncovered points
// contribute zero), availability (when the space sweeps recovery;
// recovery-free points contribute zero), and negated cost.
func objectives(e Eval, withCoverage, withAvail bool) []float64 {
	out := []float64{e.IPC}
	if withCoverage {
		cov := 0.0
		if e.Covered {
			cov = e.Coverage
		}
		out = append(out, cov)
	}
	if withAvail {
		av := 0.0
		if e.Availed {
			av = e.Avail
		}
		out = append(out, av)
	}
	return append(out, -e.Cost)
}

// hasCoverage reports whether any point of the space injects faults.
func (s Spec) hasCoverage() bool {
	for _, r := range s.Space.FaultRates {
		if r > 0 {
			return true
		}
	}
	return false
}

// hasAvailability reports whether the exploration measures availability:
// some point both checkpoints and injects faults.
func (s Spec) hasAvailability() bool {
	if !s.hasCoverage() {
		return false
	}
	for _, n := range s.Space.CkptIntervals {
		if n > 0 {
			return true
		}
	}
	return false
}

// Run executes (or resumes) the exploration described by spec on the
// simulation suite sims. Concurrent explorations share the suite's
// result cache and parallelism bound; with a store attached to the
// suite, they resume across processes. The progress callback, when
// non-nil, is invoked serially after every finished evaluation; it must
// return quickly. On context cancellation the exploration stops with an
// error, but the simulations of every finished evaluation are already in
// the suite and its store, so a later Run resumes from them.
func Run(ctx context.Context, sims *sim.Suite, spec Spec, progress func(Progress)) (*Result, error) {
	ns, err := Normalize(spec, sims.Options())
	if err != nil {
		return nil, err
	}
	points, err := ns.Space.Points()
	if err != nil {
		return nil, err
	}
	r := &run{sims: sims, spec: ns, points: points, progress: progress}

	strat, err := strategyFor(ns.Strategy)
	if err != nil {
		return nil, err
	}
	survivors, err := strat.plan(ctx, r)
	if err != nil {
		return nil, err
	}
	if len(survivors) > ns.Budget {
		// Strategies cap themselves; this is a belt-and-suspenders
		// invariant, not a reachable branch.
		return nil, fmt.Errorf("explore: strategy %s planned %d evaluations over the budget of %d", ns.Strategy, len(survivors), ns.Budget)
	}
	evals, err := r.evalAll(ctx, survivors, false)
	if err != nil {
		return nil, err
	}
	sort.Slice(evals, func(a, b int) bool { return evals[a].Index < evals[b].Index })

	withCov := ns.hasCoverage()
	withAvail := ns.hasAvailability()
	vecs := make([][]float64, len(evals))
	for i, ev := range evals {
		vecs[i] = objectives(ev, withCov, withAvail)
	}
	baseIPC, err := r.baselineIPC(ctx, r.options(false))
	if err != nil {
		return nil, err
	}
	return &Result{
		Spec:        ns,
		Points:      len(points),
		BaselineIPC: baseIPC,
		Screen:      r.screen,
		Evals:       evals,
		Frontier:    stats.ParetoFront(vecs),
		Resumed:     r.resumed,
		Executed:    r.executed,
	}, nil
}

// Report renders the exploration as a typed experiment report.
func (r *Result) Report() *report.Report {
	withCov := r.Spec.hasCoverage()
	withAvail := r.Spec.hasAvailability()
	rep := report.New("explore",
		fmt.Sprintf("Design-space exploration: %d-point space, %s strategy, %d on the Pareto frontier",
			r.Points, r.Spec.Strategy, len(r.Frontier)))

	cols := []string{"spec", "IPC", "slowdown", "cost"}
	if withCov {
		cols = []string{"spec", "IPC", "slowdown", "cov%", "lo%", "hi%", "odds", "cost"}
	}
	if withAvail {
		cols = []string{"spec", "IPC", "slowdown", "cov%", "lo%", "hi%", "odds", "avail%", "aLo%", "aHi%", "cost"}
	}
	onFrontier := make(map[int]bool, len(r.Frontier))
	for _, i := range r.Frontier {
		onFrontier[i] = true
	}
	rowValues := func(ev Eval) []float64 {
		if !withCov {
			return []float64{ev.IPC, ev.Slowdown, ev.Cost}
		}
		// Performance-only points in a mixed space carry no coverage
		// estimate: NaN, not zero — zero would claim certainty of
		// failure. Odds are coverage/(1-coverage): +Inf at total
		// coverage, the common case for the protected machines.
		cov, lo, hi, odds := math.NaN(), math.NaN(), math.NaN(), math.NaN()
		if ev.Covered {
			cov, lo, hi = 100*ev.Coverage, 100*ev.CoverageLo, 100*ev.CoverageHi
			odds = ev.Coverage / (1 - ev.Coverage)
		}
		out := []float64{ev.IPC, ev.Slowdown, cov, lo, hi, odds}
		if withAvail {
			// Recovery-free points carry no availability estimate either:
			// NaN for the same reason.
			av, alo, ahi := math.NaN(), math.NaN(), math.NaN()
			if ev.Availed {
				av, alo, ahi = 100*ev.Avail, 100*ev.AvailLo, 100*ev.AvailHi
			}
			out = append(out, av, alo, ahi)
		}
		return append(out, ev.Cost)
	}

	obj := "maximize IPC"
	if withCov {
		obj += ", coverage"
	}
	if withAvail {
		obj += ", availability"
	}
	ft := rep.AddTable("Pareto frontier ("+obj+"; minimize cost)", cols...)
	ft.Verb = "%.4g"
	for _, i := range r.Frontier {
		ft.AddRow(r.Evals[i].Spec, rowValues(r.Evals[i])...)
	}

	at := rep.AddTable("All full-fidelity points", append(cols, "frontier")...)
	at.Verb = "%.4g"
	for i, ev := range r.Evals {
		fl := 0.0
		if onFrontier[i] {
			fl = 1
		}
		at.AddRow(ev.Spec, append(rowValues(ev), fl)...)
	}

	rep.AddNote("%d of %d evaluated points on the frontier (space of %d; SS2 baseline IPC %.3f)",
		len(r.Frontier), len(r.Evals), r.Points, r.BaselineIPC)
	if len(r.Screen) > 0 {
		rep.AddNote("halving screen: %d points at 1/%d run length; %d survivors re-evaluated at full fidelity",
			len(r.Screen), r.Spec.ScreenDiv, len(r.Evals))
	}
	if r.Resumed > 0 {
		rep.AddNote("resumed %d evaluations from earlier simulations (%d executed)", r.Resumed, r.Executed)
	}

	rep.SetMeta("strategy", r.Spec.Strategy)
	rep.SetMeta("seed", fmt.Sprint(r.Spec.Seed))
	rep.SetMeta("points", fmt.Sprint(r.Points))
	rep.SetMeta("budget", fmt.Sprint(r.Spec.Budget))
	rep.SetMeta("benchmarks", fmt.Sprint(r.Spec.Benchmarks))
	rep.SetMeta("warmup_instrs", fmt.Sprint(r.Spec.WarmupInstrs))
	rep.SetMeta("measure_instrs", fmt.Sprint(r.Spec.MeasureInstrs))
	if r.Spec.Strategy == StrategyHalving {
		rep.SetMeta("screen_div", fmt.Sprint(r.Spec.ScreenDiv))
	}
	if withCov {
		rep.SetMeta("trials", fmt.Sprint(r.Spec.Trials))
	}
	return rep
}
