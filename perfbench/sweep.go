package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The sweep workload: cold, contiguous simulations through
// sim.Suite.GetOpt with Parallelism 1 and no store. One op is one
// (machine, profile) run of sweepWarmup + sweepMeasure instructions. A
// round is every machine on every profile, in a seed-shuffled order; each
// round re-seeds the profiles, so every op is a distinct cache key.
const (
	sweepWarmup  = 20_000
	sweepMeasure = 80_000
	// sweepMinOps gives the p90 tail at least ten ops beyond it.
	sweepMinOps = 100
	// sweepIdentityInstrs is the length of the warmup-free runs that
	// compare every machine's architectural signature with SS1's.
	sweepIdentityInstrs = 20_000
	// nextProbe is how many Generator.Next calls trace.next_ns times.
	nextProbe = 20_000
	// sweepSetupReps is how many set-ups are timed before the phase and
	// again between its rounds.
	sweepSetupReps = 200
)

// sweepProfiles straddles the 2MB L2: swim and lucas stream far beyond it
// (cycle skipping dominates), crafty and gzip-graphic stay resident
// (issue and wakeup dominate).
var sweepProfiles = []string{"swim", "lucas", "crafty", "gzip-graphic"}

// sweepPlan is the resolved inputs of one sweep: the machines (SS1 first)
// and the base profiles.
type sweepPlan struct {
	machines []config.Machine
	profiles []trace.Profile
}

// sweepMachines are the paper's SS1, two SS2 factor combinations, SHREC
// and the detection-mode zoo, SS1 first. The set is fixed, so a round
// costs the same whatever the seed; the seed orders each round. Both SS2
// combinations carry the S factor: without it, SS2 deadlocks on about one
// crafty trace in eight (see NOTES.md).
var sweepMachines = []string{"ss1", "ss2+s", "ss2+xscb", "shrec", "shrec+ctx8", "meek@2", "flex", "o3rs"}

// newSweepPlan resolves the machines and the base profiles.
func newSweepPlan() (sweepPlan, error) {
	var plan sweepPlan
	for _, name := range sweepMachines {
		m, err := config.ByName(name)
		if err != nil {
			return sweepPlan{}, err
		}
		if err := m.Validate(); err != nil {
			return sweepPlan{}, err
		}
		plan.machines = append(plan.machines, m)
	}
	for _, name := range sweepProfiles {
		p, err := workload.ByName(name)
		if err != nil {
			return sweepPlan{}, err
		}
		plan.profiles = append(plan.profiles, p)
	}
	return plan, nil
}

func (pl sweepPlan) roundLen() int { return len(pl.machines) * len(pl.profiles) }

// sweepOp names op i of a phase: its machine and its re-seeded profile.
// tag separates the op streams of different phases of one process.
func (pl sweepPlan) op(seed, tag uint64, i int) (config.Machine, trace.Profile) {
	n := pl.roundLen()
	round := uint64(i / n)
	perm := rand.New(rand.NewSource(int64(mix(seed, tag, round, 2)))).Perm(n)
	j := perm[i%n]
	m := pl.machines[j%len(pl.machines)]
	return m, pl.profile(seed, tag, round, j/len(pl.machines))
}

// profile re-seeds base profile k for one round; the name carries the
// seed so the suite's cache keys differ between rounds.
func (pl sweepPlan) profile(seed, tag, round uint64, k int) trace.Profile {
	p := pl.profiles[k]
	p.Seed = mix(seed, tag, round, uint64(k), 3)
	p.Name = fmt.Sprintf("%s~%08x", p.Name, uint32(p.Seed))
	return p
}

func sweepOptions() sim.Options {
	return sim.Options{WarmupInstrs: sweepWarmup, MeasureInstrs: sweepMeasure, Parallelism: 1}
}

// checkRun applies the per-op output checks.
func checkRun(res sim.Result, measure uint64) error {
	if res.Hung {
		return fmt.Errorf("%s on %s hung", res.Machine, res.Benchmark)
	}
	if res.Stats.Retired < measure {
		return fmt.Errorf("%s on %s retired %d of %d", res.Machine, res.Benchmark, res.Stats.Retired, measure)
	}
	return nil
}

// sweepSetup times reps set-ups, the work a sweep pays before its first
// op: resolving the machine and profile plan and building the suite. It
// returns the last plan and suite.
func sweepSetup(reps int) ([]float64, sweepPlan, *sim.Suite, error) {
	var times []float64
	var plan sweepPlan
	var suite *sim.Suite
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		var err error
		if plan, err = newSweepPlan(); err != nil {
			return nil, plan, nil, err
		}
		for _, p := range plan.profiles {
			if err := p.Validate(); err != nil {
				return nil, plan, nil, err
			}
		}
		suite = sim.NewSuite(sweepOptions())
		times = append(times, time.Since(t0).Seconds())
	}
	return times, plan, suite, nil
}

// sweepPhase runs GetOpt ops from one caller; the first round's outputs
// feed d when it is non-nil. between runs between rounds (see loop). An
// op is one goroutine simulating, so it is timed on the process CPU
// clock: host CPU time per simulated instruction, without the time other
// guests took from the vCPU.
func sweepPhase(ctx context.Context, e env, plan sweepPlan, suite *sim.Suite, seconds float64, minOps int, tag uint64, d *digest, between func()) phase {
	opt := sweepOptions()
	return loop(cpuClock, seconds, minOps, plan.roundLen(), between, func(i int) (float64, error) {
		m, p := plan.op(e.seed, tag, i)
		res, err := suite.GetOpt(ctx, m, p, opt)
		if err != nil {
			return 0, err
		}
		if d != nil && i < plan.roundLen() {
			d.add(struct {
				Machine, Profile string
				Stats            core.Stats
			}{m.Spec(), p.Name, res.Stats})
		}
		return float64(opt.WarmupInstrs+res.Stats.Retired) / 1e6, checkRun(res, opt.MeasureInstrs)
	})
}

// sweepIdentity checks, on every profile of the phase's first round, that
// each fault-free machine commits SS1's architectural stream. The runs
// are warmup-free: a warmup's last cycle may retire a few instructions
// past its target, by an amount that differs between machines, so the
// measured regions after a warmup start at different instructions.
func sweepIdentity(ctx context.Context, e env, plan sweepPlan, tag uint64, t *tally) {
	opt := sim.Options{MeasureInstrs: sweepIdentityInstrs, Parallelism: 1}
	suite := sim.NewSuite(opt)
	for k := range plan.profiles {
		p := plan.profile(e.seed, tag, 0, k)
		var base uint64
		for _, m := range plan.machines {
			res, err := suite.GetOpt(ctx, m, p, opt)
			if err != nil {
				t.fail("identity %s on %s: %v", m.Spec(), p.Name, err)
				continue
			}
			if err := checkRun(res, opt.MeasureInstrs); err != nil {
				t.fail("identity: %v", err)
				continue
			}
			if m.Mode == config.ModeSS1 {
				base = res.Stats.ArchSig
			} else if res.Stats.ArchSig != base {
				t.fail("identity: %s on %s ArchSig %#x != SS1 %#x", m.Spec(), p.Name, res.Stats.ArchSig, base)
			}
		}
	}
}

func runSweep(e env) (metrics, tally, error) {
	ctx := context.Background()
	setup, plan, suite, err := sweepSetup(sweepSetupReps)
	if err != nil {
		return nil, tally{}, err
	}
	var d digest
	p := sweepPhase(ctx, e, plan, suite, e.seconds, sweepMinOps, 0, &d, func() {
		// The same set-up just succeeded, so an error cannot occur here.
		more, _, _, _ := sweepSetup(sweepSetupReps)
		setup = append(setup, more...)
	})
	m := endToEndMetrics("sweep", p, sweepMinOps, setup, "Minstr")
	t := p.tally
	sweepIdentity(ctx, e, plan, 0, &t)
	d.check(e, "sweep", &t)
	return m, t, nil
}

// sweepLayers accumulates the per-layer measurements of decomposed ops.
type sweepLayers struct {
	traceNew, coreNew, warmup, run, next, cold, hit time.Duration
	nextCalls                                       int
	ops                                             int
	instrs                                          float64
	runCycles                                       int64     // simulated cycles of every RunBudget
	overhead                                        []float64 // ms per op: GetOpt miss minus its engine_run stage
	allocs                                          map[string]uint64
	// identity counts over the first round only (a fixed op set).
	cycles, skipped                          int64
	retired, l1dMiss, l2Miss, mshrFail, misp uint64
	refused                                  uint64
}

// decomposed runs op (m, p) the way sim.RunContext does, timing each
// layer call, then replays it through GetOpt (a miss, then a hit) and
// checks the two agree.
func (l *sweepLayers) decomposed(ctx context.Context, suite *sim.Suite, m config.Machine, p trace.Profile, identity bool) error {
	opt := sweepOptions()
	t0 := time.Now()
	g := trace.New(p)
	t1 := time.Now()
	eng := core.New(m, g)
	t2 := time.Now()
	if err := eng.WarmupContext(ctx, opt.WarmupInstrs); err != nil {
		return err
	}
	t3 := time.Now()
	skip0 := eng.SkippedCycles()
	_, mis0 := eng.Pred().Stats()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t4 := time.Now()
	st, err := eng.RunBudget(ctx, opt.MeasureInstrs, 0)
	t5 := time.Now()
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return err
	}
	l.traceNew += t1.Sub(t0)
	l.coreNew += t2.Sub(t1)
	l.warmup += t3.Sub(t2)
	l.run += t5.Sub(t4)
	l.ops++
	l.instrs += float64(opt.WarmupInstrs + st.Retired)
	l.runCycles += st.Cycles
	l.allocs[strings.ToLower(m.Mode.String())] += ms1.Mallocs - ms0.Mallocs
	if identity {
		_, mis1 := eng.Pred().Stats()
		_, l1, _ := eng.Mem().L1D().Stats()
		_, l2, _ := eng.Mem().L2().Stats()
		_, _, af, _ := eng.Mem().MSHR().Stats()
		var ref uint64
		for _, r := range eng.Pool().Refused() {
			ref += r
		}
		l.cycles += st.Cycles
		l.skipped += eng.SkippedCycles() - skip0
		l.retired += st.Retired
		l.l1dMiss += l1
		l.l2Miss += l2
		l.mshrFail += af
		l.misp += mis1 - mis0
		l.refused += ref
	}

	// trace.next_ns: a separate generator over the same profile.
	gen := trace.New(p)
	t6 := time.Now()
	for i := 0; i < nextProbe; i++ {
		gen.Next()
	}
	l.next += time.Since(t6)
	l.nextCalls += nextProbe

	// The replay carries a span, so the suite's own engine_run stage
	// (trace.New through RunBudget inside this very call) splits the miss
	// into engine time and suite overhead without cross-run noise.
	span := telemetry.NewSpan()
	t7 := time.Now()
	res, err := suite.GetOpt(telemetry.WithSpan(ctx, span), m, p, opt)
	t8 := time.Now()
	if err != nil {
		return err
	}
	if _, err := suite.GetOpt(ctx, m, p, opt); err != nil {
		return err
	}
	l.cold += t8.Sub(t7)
	l.hit += time.Since(t8)
	engine := 0.0
	for _, ph := range span.Breakdown() {
		if ph.Phase == "engine_run" {
			engine += ph.Seconds
		}
	}
	l.overhead = append(l.overhead, float64(t8.Sub(t7).Nanoseconds())/1e6-engine*1e3)
	if res.Stats != st {
		return fmt.Errorf("%s on %s: GetOpt stats differ from the decomposed run", m.Spec(), p.Name)
	}
	return checkRun(res, opt.MeasureInstrs)
}

// metrics reports the sweep layer metrics.
func (l *sweepLayers) metrics() metrics {
	m := metrics{}
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 / float64(l.ops) }
	kinstr := float64(l.retired) / 1000
	m.set("trace.next_ns", float64(l.next.Nanoseconds())/float64(l.nextCalls), "ns")
	m.set("core.new_ms", ms(l.coreNew), "ms")
	m.set("core.warmup_ms", ms(l.warmup), "ms")
	m.set("core.ns_per_cycle", float64(l.run.Nanoseconds())/float64(l.runCycles), "ns")
	m.set("core.skip_frac", float64(l.skipped)/float64(l.cycles), "frac")
	for _, mode := range []string{"ss1", "ss2", "shrec", "meek", "flex", "o3rs"} {
		m.set("core.run_allocs."+mode, float64(l.allocs[mode]), "count")
	}
	m.set("core.ipc", float64(l.retired)/float64(l.cycles), "instr/cycle")
	m.set("cache.l1d_misses_per_kinstr", float64(l.l1dMiss)/kinstr, "1/kinstr")
	m.set("cache.l2_misses_per_kinstr", float64(l.l2Miss)/kinstr, "1/kinstr")
	m.set("cache.mshr_alloc_fails", float64(l.mshrFail), "count")
	m.set("bpred.mispredicts_per_kinstr", float64(l.misp)/kinstr, "1/kinstr")
	m.set("fu.refusals_per_kinstr", float64(l.refused)/kinstr, "1/kinstr")
	m.set("sim.cold_run_ms", ms(l.cold), "ms")
	m.set("sim.overhead_ms", median(l.overhead), "ms")
	return m
}

// tracedSweep measures an untraced phase, then a traced phase of
// decomposed ops, and reports the sweep layers.
func tracedSweep(e env) (metrics, tally, error) {
	ctx := context.Background()
	_, plan, suite, err := sweepSetup(1)
	if err != nil {
		return nil, tally{}, err
	}
	var d digest
	u := sweepPhase(ctx, e, plan, suite, e.seconds/3, plan.roundLen(), 0, &d, nil)
	t := u.tally
	d.check(e, "sweep", &t)

	l := &sweepLayers{allocs: map[string]uint64{}}
	n := plan.roundLen()
	var busy time.Duration
	start := time.Now()
	for i := 0; i < n || busy.Seconds() < e.seconds/3 || i%n != 0; i++ {
		m, p := plan.op(e.seed, 1, i)
		t0 := time.Now()
		t.attempted++
		if err := l.decomposed(ctx, suite, m, p, i < n); err != nil {
			t.fail("traced op %d: %v", i, err)
		}
		busy += time.Since(t0)
	}
	wall := time.Since(start).Seconds()
	m := l.metrics()
	// The traced phase's throughput counts only the decomposed runs (with
	// their timers), not the GetOpt replays and generator probes. Layers
	// are timed on the wall clock, as the suite's own stages are, so the
	// untraced rate is taken on the wall clock too.
	tracedWPS := l.instrs / 1e6 / (l.traceNew + l.coreNew + l.warmup + l.run).Seconds()
	m.set("telemetry.overhead_frac", overheadFrac("sweep", u.work/u.wall.Seconds(), tracedWPS), "frac")
	m.set("unaccounted_frac", reconcile("sweep", wall, map[string]float64{
		"trace.new": l.traceNew.Seconds(), "core.new": l.coreNew.Seconds(),
		"core.warmup": l.warmup.Seconds(), "core.run": l.run.Seconds(),
		"trace.next_probe": l.next.Seconds(), "sim.cold_run": l.cold.Seconds(), "sim.cache_hit": l.hit.Seconds(),
	}), "frac")
	sweepIdentity(ctx, e, plan, 1, &t)
	return m, t, nil
}

// probeSweep measures the sweep layers on one round of every machine on
// one cache-resident profile.
func probeSweep(e env) (metrics, tally, error) {
	ctx := context.Background()
	plan, err := newSweepPlan()
	if err != nil {
		return nil, tally{}, err
	}
	suite := sim.NewSuite(sweepOptions())
	l := &sweepLayers{allocs: map[string]uint64{}}
	var t tally
	for _, m := range plan.machines {
		p := plan.profile(e.seed, 2, 0, 2)
		t.attempted++
		if err := l.decomposed(ctx, suite, m, p, true); err != nil {
			t.fail("sweep probe: %v", err)
		}
	}
	return l.metrics(), t, nil
}
