package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The campaign workload: fault-injection campaigns under a checkpoint
// recovery policy through repro.Client.StartCampaign(...).Wait, with a
// SyncNever store attached. One op is one campaign. Ops run in sessions of
// campSession campaigns, each on a new client over a new store: the suite
// keeps every warmup checkpoint it builds for the life of its client, so
// one client per run would make peak RSS grow with the op count. Every op
// has its own warmup length and master seed, so every op pays its own
// golden run and warmup checkpoint.
const (
	campWarmup   = 16_000
	campMeasure  = 16_000
	campTrials   = 4
	campRate     = 2e-5
	campRecovery = "ckpt@4k+depth2"
	// campSession is the number of campaigns one client runs; it is also
	// the phase's round.
	campSession = 8
	// campMinOps gives the p90 tail at least ten ops beyond it.
	campMinOps = 104
	// campSetupReps is how many client set-ups are timed before the phase;
	// campSetupBatch more are timed between its rounds.
	campSetupReps  = 21
	campSetupBatch = 3
	// campPrepTrials is the size of the earlier campaign in the results
	// store a client opens.
	campPrepTrials = 256
	// campDigestOps and campIdentityOps fix the op sets digested and
	// summed into the recovery identity counts.
	campDigestOps   = 8
	campIdentityOps = 8
)

// campMachines are SHREC-family machines (they must report zero SDC) of
// about the same cost; campBenchmark is cache-resident.
var campMachines = []string{"shrec", "shrec+ctx8"}

const campBenchmark = "crafty"

// campSpec is op i's campaign. Warmup lengths differ by one instruction
// from op to op, so every op has its own golden run and warmup checkpoint
// and ops cost the same.
func campSpec(seed, tag uint64, i int) repro.CampaignSpec {
	return repro.CampaignSpec{
		Machine:       campMachines[i%len(campMachines)],
		Benchmark:     campBenchmark,
		Trials:        campTrials,
		FaultRate:     campRate,
		Seed:          mix(seed, tag, uint64(i), 4),
		WarmupInstrs:  campWarmup + mix(seed, tag, 5)%256 + uint64(i),
		MeasureInstrs: campMeasure,
		Recovery:      campRecovery,
	}
}

func campWorkers() int { return min(2, runtime.NumCPU()) }

// newCampClient is the work a campaign user pays before the first op:
// creating the client and opening its results store.
func newCampClient(dir string) (*repro.Client, error) {
	return repro.NewClient(
		repro.WithOptions(repro.Options{WarmupInstrs: campWarmup, MeasureInstrs: campMeasure}),
		repro.WithParallelism(campWorkers()),
		repro.WithStore(dir))
}

// campPrepare fills a results store at dir with an earlier campaign of
// campPrepTrials short trials, so that opening it replays real records.
// A fresh store would make set-up a few file creations, whose time the
// host's disk decides.
func campPrepare(ctx context.Context, dir string) error {
	c, err := newCampClient(dir)
	if err != nil {
		return err
	}
	defer c.Close()
	spec := repro.CampaignSpec{Machine: campMachines[0], Benchmark: campBenchmark, Trials: campPrepTrials,
		FaultRate: campRate, Seed: 1, WarmupInstrs: 2000, MeasureInstrs: 4000, Recovery: campRecovery}
	r, err := c.StartCampaign(ctx, spec).Wait(ctx)
	if err != nil {
		return fmt.Errorf("preparing the results store: %w", err)
	}
	return checkCampaign(spec, r)
}

// campSetup times reps set-ups of a client over the prepared results
// store at dir, closing each.
func campSetup(dir string, reps int) ([]float64, error) {
	var times []float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		c, err := newCampClient(dir)
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		c.Close()
	}
	return times, nil
}

// checkCampaign applies the per-op output checks.
func checkCampaign(spec repro.CampaignSpec, r *repro.CampaignResult) error {
	c := r.Counts()
	if n := c.Detected + c.Squashed + c.Masked + c.SDC + c.Hang + c.Clean; n != spec.Trials || len(r.Trials) != spec.Trials {
		return fmt.Errorf("%s/%s: outcome counts sum to %d of %d trials", spec.Machine, spec.Benchmark, n, spec.Trials)
	}
	if r.Executed != spec.Trials {
		return fmt.Errorf("%s/%s: executed %d of %d trials on a fresh store", spec.Machine, spec.Benchmark, r.Executed, spec.Trials)
	}
	if cov := r.Coverage(); cov.N > 0 && !(cov.Lo <= cov.Point && cov.Point <= cov.Hi) {
		return fmt.Errorf("%s/%s: Wilson bounds [%g, %g] do not bracket %g", spec.Machine, spec.Benchmark, cov.Lo, cov.Hi, cov.Point)
	}
	if c.SDC != 0 {
		return fmt.Errorf("%s/%s: SHREC-family machine reported %d SDC trials", spec.Machine, spec.Benchmark, c.SDC)
	}
	if r.RecoverySummary() == nil {
		return fmt.Errorf("%s/%s: no recovery summary under %s", spec.Machine, spec.Benchmark, spec.Recovery)
	}
	return nil
}

// campOutput is the digested part of a campaign result.
type campOutput struct {
	Spec      repro.CampaignSpec
	GoldenSig uint64
	Counts    any
	Trials    []repro.CampaignTrial
}

// campOp runs op i on c under ctx and returns the result.
func campOp(ctx context.Context, c *repro.Client, seed, tag uint64, i int) (*repro.CampaignResult, error) {
	spec := campSpec(seed, tag, i)
	r, err := c.StartCampaign(ctx, spec).Wait(ctx)
	if err != nil {
		return nil, err
	}
	return r, checkCampaign(spec, r)
}

// campPhase runs campaign ops in sessions of campSession, each on a new
// client over a new store in the work directory. between runs between
// rounds (see loop).
func campPhase(ctx context.Context, e env, name string, seconds float64, minOps int, d *digest, between func()) (phase, error) {
	session := 0
	open := func() (*repro.Client, error) {
		session++
		return newCampClient(filepath.Join(e.workdir, fmt.Sprintf("%s-session-%d.db", name, session)))
	}
	c, openErr := open()
	if openErr != nil {
		return phase{}, openErr
	}
	p := loop(wallClock, seconds, minOps, campSession, func() {
		c.Close()
		if between != nil {
			between()
		}
		c, openErr = open()
	}, func(i int) (float64, error) {
		if openErr != nil {
			return 0, openErr
		}
		r, err := campOp(ctx, c, e.seed, 0, i)
		if r == nil {
			return 0, err
		}
		if d != nil && i < campDigestOps {
			d.add(campOutput{r.Spec, r.Golden.Stats.ArchSig, r.Counts(), r.Trials})
		}
		return float64(len(r.Trials)), err
	})
	if openErr != nil {
		return p, openErr
	}
	c.Close()
	return p, nil
}

func runCampaign(e env) (metrics, tally, error) {
	ctx := context.Background()
	results := filepath.Join(e.workdir, "results.db")
	if err := campPrepare(ctx, results); err != nil {
		return nil, tally{}, err
	}
	setup, err := campSetup(results, campSetupReps)
	if err != nil {
		return nil, tally{}, err
	}
	var d digest
	p, err := campPhase(ctx, e, "campaign", e.seconds, campMinOps, &d, func() {
		// The same set-up just succeeded, so an error cannot occur here.
		more, _ := campSetup(results, campSetupBatch)
		setup = append(setup, more...)
	})
	if err != nil {
		return nil, tally{}, err
	}
	m := endToEndMetrics("campaign", p, campMinOps, setup, "trials")
	t := p.tally
	d.check(e, "campaign", &t)
	return m, t, nil
}

// campLayers runs traced campaign ops on a fresh client (so its stage
// histograms cover exactly these ops) and reports the campaign layers.
// It returns the metrics, the work done per second of wall-clock, and
// the ops' tally.
func campLayers(ctx context.Context, e env, name string, seconds float64, minOps int) (metrics, float64, tally, error) {
	c, err := newCampClient(filepath.Join(e.workdir, name+".db"))
	if err != nil {
		return nil, 0, tally{}, err
	}
	defer c.Close()
	var (
		t                            tally
		golden, trial                telemetry.PhaseStat
		executed                     int
		rollbacks, checkpoints, lost float64
		ckpt, restore                []float64
		work                         float64
		probing                      time.Duration // checkpoint probes, outside the ops
	)
	start := time.Now()
	for i := 0; i < minOps || time.Since(start).Seconds() < seconds; i++ {
		span := telemetry.NewSpan()
		t.attempted++
		r, err := campOp(telemetry.WithSpan(ctx, span), c, e.seed, 1, i)
		if err != nil {
			t.fail("traced campaign %d: %v", i, err)
		}
		if r == nil {
			continue
		}
		work += float64(len(r.Trials))
		executed += r.Executed
		for _, ph := range span.Breakdown() {
			switch ph.Phase {
			case "golden_run":
				golden.Count += ph.Count
				golden.Seconds += ph.Seconds
			case "trial":
				trial.Count += ph.Count
				trial.Seconds += ph.Seconds
			}
		}
		if i < campIdentityOps {
			rs := r.RecoverySummary()
			rollbacks += float64(rs.Rollbacks)
			checkpoints += float64(rs.Checkpoints)
			lost += float64(rs.LostWork)
		}
		if i < 4 {
			t0 := time.Now()
			cp, rs, err := checkpointCost(ctx, campSpec(e.seed, 1, i))
			probing += time.Since(t0)
			if err != nil {
				t.fail("checkpoint probe: %v", err)
				continue
			}
			ckpt = append(ckpt, cp)
			restore = append(restore, rs)
		}
	}
	wall := (time.Since(start) - probing).Seconds()
	ops := float64(t.attempted)

	m := metrics{}
	cm := c.Metrics()
	stages := map[string]repro.StageSummary{}
	for _, s := range cm.Stages {
		stages[s.Stage] = s
	}
	for _, s := range []string{"cache_lookup", "store_fetch", "store_write", "warmup_share", "engine_run", "recovery_rollback"} {
		m.set("sim.stage."+s+"_s", stages[s].TotalSeconds/ops, "s")
	}
	m.set("sim.warmup_share_frac", float64(cm.WarmupShares)/float64(cm.Runs), "frac")
	m.set("recovery.rollbacks", rollbacks, "count")
	m.set("recovery.checkpoints", checkpoints, "count")
	m.set("recovery.lost_work_cycles", lost, "cycles")
	m.set("campaign.golden_ms", golden.Seconds*1e3/float64(golden.Count), "ms")
	m.set("campaign.trial_ms", trial.Seconds*1e3/float64(trial.Count), "ms")
	m.set("campaign.trials_executed", float64(executed), "count")
	w := stages["store_write"]
	m.set("store.put_us", w.TotalSeconds*1e6/float64(w.Count), "us")
	m.set("core.checkpoint_ms", median(ckpt), "ms")
	m.set("core.restore_ms", median(restore), "ms")

	// Reconciliation: the workers' busy time in sim_stage_seconds against
	// wall-clock times the number of workers. recovery_rollback runs
	// inside engine_run, so it is not added again.
	busy := map[string]float64{}
	for _, s := range []string{"cache_lookup", "store_fetch", "store_write", "warmup_share", "engine_run"} {
		busy["sim_stage."+s] = stages[s].TotalSeconds
	}
	workers := float64(campWorkers())
	fmt.Printf("campaign: reconciling against %d workers x %.4gs wall\n", campWorkers(), wall)
	m.set("unaccounted_frac", reconcile("campaign", wall*workers, busy), "frac")
	return m, work / wall, t, nil
}

// checkpointCost times Engine.Checkpoint and Checkpoint.NewEngine on an
// engine warmed like the campaign's warmup checkpoint.
func checkpointCost(ctx context.Context, spec repro.CampaignSpec) (float64, float64, error) {
	m, err := config.ByName(spec.Machine)
	if err != nil {
		return 0, 0, err
	}
	p, err := workload.ByName(spec.Benchmark)
	if err != nil {
		return 0, 0, err
	}
	e := core.New(m, trace.New(p))
	if err := e.WarmupContext(ctx, spec.WarmupInstrs); err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	cp, err := e.Checkpoint()
	if err != nil {
		return 0, 0, err
	}
	t1 := time.Now()
	cp.NewEngine()
	t2 := time.Now()
	return float64(t1.Sub(t0).Nanoseconds()) / 1e6, float64(t2.Sub(t1).Nanoseconds()) / 1e6, nil
}

func tracedCampaign(e env) (metrics, tally, error) {
	ctx := context.Background()
	var d digest
	u, err := campPhase(ctx, e, "campaign", e.seconds/3, campSession, &d, nil)
	if err != nil {
		return nil, tally{}, err
	}
	t := u.tally
	d.check(e, "campaign", &t)
	m, tracedWPS, lt, err := campLayers(ctx, e, "campaign-traced", e.seconds/3, campIdentityOps)
	if err != nil {
		return nil, t, err
	}
	t.add(lt)
	m.set("telemetry.overhead_frac", overheadFrac("campaign", u.rate(), tracedWPS), "frac")
	return m, t, nil
}

func probeCampaign(e env) (metrics, tally, error) {
	m, _, t, err := campLayers(context.Background(), e, "campaign-probe", 0, 2)
	return m, t, err
}
