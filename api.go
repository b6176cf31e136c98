// Package repro is the public facade of the SHREC reproduction: a
// cycle-level simulator of concurrent error detecting superscalar
// microarchitectures, reproducing Smolens, Kim, Hoe & Falsafi, "Efficient
// Resource Sharing in Concurrent Error Detecting Superscalar
// Microarchitectures" (MICRO-37, 2004).
//
// The facade re-exports the pieces a downstream user needs: machine
// configurations (SS1, SS2 with the paper's X/S/C/B factors, SHREC), the 25
// synthetic SPEC2K-like workloads, the simulation driver, the experiment
// harness that regenerates every table and figure of the paper as typed
// report.Report values, Monte Carlo fault-injection campaigns that
// quantify detection coverage with confidence bounds
// (Client.StartCampaign) — optionally under a checkpoint/rollback
// recovery policy (CampaignSpec.Recovery) that turns the campaign into
// availability and MTTF estimates — and design-space explorations that
// search machine-configuration spaces for Pareto-efficient resource
// sharing (Client.StartExplore). Both long-running operations share one async
// Job API: Start* returns a typed handle to wait on, poll, or cancel,
// with progress delivered through the WithProgress option.
//
// The Client is the recommended entry point — it owns one shared result
// cache, so sweeps and experiments that revisit a configuration reuse
// runs:
//
//	c, _ := repro.NewClient(repro.WithOptions(repro.QuickOptions()))
//	defer c.Close()
//	res, err := c.Simulate(ctx, repro.SHREC(), "swim")
//	fmt.Println(res.IPC())
//	rep, err := c.Experiment(ctx, "fig7")
//	_ = rep.CSV(os.Stdout)
//
// See examples/ for runnable programs and cmd/experiments for the full
// reproduction.
package repro

import (
	"context"
	"fmt"
	"io"

	"repro/internal/campaign"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/explore"
	"repro/internal/recovery"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Machine is a complete machine configuration (see config.Machine).
type Machine = config.Machine

// Factors select the paper's Table 2 resource knobs for SS2 machines.
type Factors = config.Factors

// Options controls simulation run lengths.
type Options = sim.Options

// Result is the outcome of one simulation run.
type Result = sim.Result

// Stats holds the detailed performance counters of a run.
type Stats = core.Stats

// Profile describes a synthetic workload.
type Profile = trace.Profile

// Report is the typed outcome of one experiment: named tables of
// labelled float64 rows with Text, JSON, and CSV renderers.
type Report = report.Report

// ReportTable is one data table of a Report.
type ReportTable = report.Table

// ReportRow is one labelled row of a ReportTable.
type ReportRow = report.Row

// ExperimentInfo names and describes one runnable experiment.
type ExperimentInfo = experiments.Info

// NewReport builds an empty report for callers assembling their own
// result tables (cmd/faultstudy builds its sweep table this way).
func NewReport(name, title string) *Report { return report.New(name, title) }

// WriteReportsCSV writes any number of reports as one tidy CSV stream
// with a single header row.
func WriteReportsCSV(w io.Writer, reports ...*Report) error {
	return report.WriteCSV(w, reports...)
}

// SS1 returns the paper's Table 1 baseline superscalar machine.
func SS1() Machine { return config.SS1() }

// SS2 returns the symmetric redundant machine with the given factors.
func SS2(f Factors) Machine { return config.SS2(f) }

// SHREC returns the paper's SHREC machine (Section 4).
func SHREC() Machine { return config.SHREC() }

// O3RS returns the Mendelson & Suri out-of-order reliable superscalar:
// double execution from shared ISQ/ROB entries (the design the paper
// approximates as SS2+C+B).
func O3RS() Machine { return config.O3RS() }

// DIVA returns the DIVA-style comparison machine (Section 4.1): asymmetric
// checking like SHREC but with a dedicated checker pipeline, trading extra
// hardware for freedom from functional-unit contention.
func DIVA() Machine { return config.DIVA() }

// AllFactorCombinations enumerates the sixteen Table 2 configurations.
func AllFactorCombinations() []Factors { return config.AllFactorCombinations() }

// DefaultOptions returns experiment-scale run lengths (500k warmup, 1M
// measured instructions).
func DefaultOptions() Options { return sim.DefaultOptions() }

// QuickOptions returns short smoke-test run lengths.
func QuickOptions() Options { return sim.QuickOptions() }

// Workloads returns the 25 synthetic SPEC2K-like benchmark profiles.
func Workloads() []Profile { return workload.All() }

// IntegerWorkloads returns the 11 SPECint2K-like profiles.
func IntegerWorkloads() []Profile { return workload.Integer() }

// FloatingPointWorkloads returns the 14 SPECfp2K-like profiles.
func FloatingPointWorkloads() []Profile { return workload.FloatingPoint() }

// WorkloadByName looks up one profile ("swim", "gcc-166", ...).
func WorkloadByName(name string) (Profile, error) { return workload.ByName(name) }

// MachineByName parses a machine specification ("ss1", "ss2+sc",
// "shrec", "diva", "o3rs").
func MachineByName(name string) (Machine, error) { return config.ByName(name) }

// ---------------------------------------------------------------------------
// Client: the unified entry point.

// clientConfig collects the functional options of NewClient.
type clientConfig struct {
	opt       Options
	storePath string
	// parallelism overrides opt.Parallelism when positive. Kept apart
	// from opt so WithParallelism wins regardless of option order.
	parallelism int
}

// ClientOption configures a Client.
type ClientOption func(*clientConfig)

// WithOptions sets the client's run lengths and parallelism (default:
// DefaultOptions).
func WithOptions(opt Options) ClientOption {
	return func(c *clientConfig) { c.opt = opt }
}

// WithStore attaches a persistent result store at path — a directory of
// checksummed append segments: cache misses consult the store before
// simulating and fresh results are written back, so results survive
// across processes. Close releases it.
func WithStore(path string) ClientOption {
	return func(c *clientConfig) { c.storePath = path }
}

// WithParallelism bounds concurrently executing simulations (default:
// GOMAXPROCS). It overrides the Parallelism field of WithOptions, in
// any argument order. It does not affect results.
func WithParallelism(n int) ClientOption {
	return func(c *clientConfig) { c.parallelism = n }
}

// Counters is a snapshot of a simulation suite's cache and run counters
// (runs, hits, cache and store hits, dedup waits, warmup shares, ...).
type Counters = sim.Counters

// ClientMetrics is a snapshot of a client's cache effectiveness counters
// and per-stage timings.
type ClientMetrics struct {
	Counters
	// Stages summarizes wall-clock time spent in each internal stage of
	// serving simulations (cache_lookup, store_fetch, engine_run, ...),
	// one entry per stage observed so far, in stage-name order.
	Stages []StageSummary `json:"stages,omitempty"`
}

// StageSummary is the timing summary of one internal pipeline stage,
// distilled from the suite's histogram (quantiles are interpolated
// within exponential buckets, so they are estimates, not exact order
// statistics).
type StageSummary struct {
	Stage        string  `json:"stage"`
	Count        uint64  `json:"count"`
	TotalSeconds float64 `json:"total_seconds"`
	MeanSeconds  float64 `json:"mean_seconds"`
	P50Seconds   float64 `json:"p50_seconds"`
	P90Seconds   float64 `json:"p90_seconds"`
	P99Seconds   float64 `json:"p99_seconds"`
}

// Client is the unified facade over the simulation driver and the
// experiment harness. One client owns one result cache (and optional
// persistent store), so every Simulate, Sweep, and Experiment call
// shares runs. All methods are safe for concurrent use.
type Client struct {
	cfg  clientConfig
	sims *sim.Suite
	exp  *experiments.Suite
	st   *store.Store
}

// NewClient builds a client. The zero configuration uses DefaultOptions,
// an in-memory cache, and no persistent store.
func NewClient(opts ...ClientOption) (*Client, error) {
	cfg := clientConfig{opt: DefaultOptions()}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.parallelism > 0 {
		cfg.opt.Parallelism = cfg.parallelism
	}
	c := &Client{cfg: cfg, sims: sim.NewSuite(cfg.opt).WithTelemetry(telemetry.NewRegistry())}
	if cfg.storePath != "" {
		st, err := store.Open(cfg.storePath)
		if err != nil {
			return nil, fmt.Errorf("repro: opening store: %w", err)
		}
		c.st = st
		c.sims.WithStore(st)
	}
	c.exp = experiments.NewSuite(c.sims)
	return c, nil
}

// Close releases the client's persistent store, if any.
func (c *Client) Close() error {
	if c.st == nil {
		return nil
	}
	return c.st.Close()
}

// Options returns the client's run options.
func (c *Client) Options() Options { return c.cfg.opt }

// Simulate runs the named benchmark on machine m.
func (c *Client) Simulate(ctx context.Context, m Machine, benchmark string) (Result, error) {
	p, err := workload.ByName(benchmark)
	if err != nil {
		return Result{}, err
	}
	return c.SimulateProfile(ctx, m, p)
}

// SimulateProfile runs a custom workload profile on machine m.
func (c *Client) SimulateProfile(ctx context.Context, m Machine, p Profile) (Result, error) {
	return c.sims.Get(ctx, m, p)
}

// Sweep fans out every (machine, profile) pair in parallel — duplicate
// and already-cached pairs cost nothing — and returns the results in
// machines-major order: results[i*len(profiles)+j] is machines[i] on
// profiles[j]. Partial failures abort the sweep with every failure
// joined into one error.
func (c *Client) Sweep(ctx context.Context, machines []Machine, profiles []Profile) ([]Result, error) {
	return c.sims.Batch(ctx, machines, profiles)
}

// Experiment regenerates one of the paper's tables or figures as a typed
// report (see ExperimentNames for the catalog).
func (c *Client) Experiment(ctx context.Context, name string) (*Report, error) {
	return c.exp.Run(ctx, name)
}

// Results snapshots every result currently cached by the client, sorted
// by machine then benchmark.
func (c *Client) Results() []Result {
	return c.sims.Results()
}

// Metrics snapshots the client's cache counters.
func (c *Client) Metrics() ClientMetrics {
	return ClientMetrics{
		Counters: c.sims.Counters(),
		Stages:   stageSummaries(c.sims.StageSnapshots()),
	}
}

// stageSummaries distills the suite's per-stage histograms into the
// ClientMetrics shape.
func stageSummaries(snaps []telemetry.LabeledHistogram) []StageSummary {
	out := make([]StageSummary, 0, len(snaps))
	for _, lh := range snaps {
		s := lh.Snapshot
		sum := StageSummary{
			Stage:        lh.Labels[0],
			Count:        s.Count,
			TotalSeconds: s.Sum,
			P50Seconds:   s.Quantile(0.5),
			P90Seconds:   s.Quantile(0.9),
			P99Seconds:   s.Quantile(0.99),
		}
		if s.Count > 0 {
			sum.MeanSeconds = s.Sum / float64(s.Count)
		}
		out = append(out, sum)
	}
	return out
}

// ---------------------------------------------------------------------------
// Fault campaigns.

// CampaignSpec describes a Monte Carlo fault-injection campaign: machine,
// workload, trial count, fault rate, master seed, run lengths, injection
// window, hang budget, and optional checkpoint/rollback recovery mode
// (see campaign.Spec for field semantics and defaults).
type CampaignSpec = campaign.Spec

// CampaignResult is one completed campaign: the normalized spec, the
// fault-free golden run, every classified trial, and resume provenance.
// Its Report method renders the outcome classification and the
// Wilson-bounded coverage estimate as a typed *Report.
type CampaignResult = campaign.Result

// CampaignProgress is a running campaign snapshot delivered to the
// WithProgress callback of Client.StartCampaign.
type CampaignProgress = campaign.Progress

// CampaignTrial is one classified fault-injection trial.
type CampaignTrial = campaign.Trial

// TrialOutcome classifies one campaign trial: detected, squashed, masked,
// sdc, hang, or clean.
type TrialOutcome = campaign.Outcome

// RecoveryPolicy is a checkpoint/rollback recovery policy: checkpoint
// interval, retained depth, and the flush/restore cost assumptions that
// turn campaign observables into availability estimates.
type RecoveryPolicy = recovery.Policy

// RecoveryTrace records what checkpoint recovery did during one run:
// checkpoints captured, rollbacks, overruns, unrecoverable detections,
// lost work, and a bounded per-fault event log.
type RecoveryTrace = recovery.Trace

// RecoverySummary aggregates recovery outcomes across a campaign's
// trials; its Availability method derives the steady-state availability
// and MTTF estimates with confidence bounds.
type RecoverySummary = campaign.RecoverySummary

// AvailabilityEstimate is a campaign-derived steady-state availability
// estimate with Wilson-propagated bounds and the matching MTTF.
type AvailabilityEstimate = campaign.Availability

// DefaultRepairCycles is the repair-time assumption (in cycles) behind
// availability estimates that do not specify their own.
const DefaultRepairCycles = campaign.DefaultRepairCycles

// ParseRecoveryMode parses a recovery mode string — "none" or
// "ckpt@<interval>[+depth<d>][+flush<f>][+restore<r>]" — into a policy,
// the inverse of RecoveryPolicy.String. It is the parser behind
// CampaignSpec.Recovery and cmd/faultstudy's -recover flag.
func ParseRecoveryMode(mode string) (RecoveryPolicy, error) { return recovery.ParseMode(mode) }

// ---------------------------------------------------------------------------
// Design-space exploration.

// ExploreSpace is a typed, enumerable parameter space over Machine: base
// machines crossed with optional modifier axes (X scaling, stagger
// depth, FU pool scaling, MSHR and memory-port geometry, checkpoint
// interval and depth, fault rate).
type ExploreSpace = explore.Space

// ExploreSpec describes a design-space exploration: the space, search
// strategy ("grid" or "halving"), benchmarks, run lengths, seed, budget,
// and per-point coverage trials (see explore.Spec for defaults).
type ExploreSpec = explore.Spec

// ExploreResult is one completed exploration: every full-fidelity
// evaluation, the Pareto frontier indices, and resume provenance. Its
// Report method renders the frontier as a typed *Report.
type ExploreResult = explore.Result

// ExploreEval is one point's scored evaluation (IPC, slowdown vs the
// plain-SS2 baseline, hardware-cost proxy, optional coverage).
type ExploreEval = explore.Eval

// ExploreProgress is a running exploration snapshot delivered to the
// WithProgress callback of Client.StartExplore.
type ExploreProgress = explore.Progress

// ExploreStrategies lists the selectable search strategies.
func ExploreStrategies() []string { return explore.Strategies() }

// MachineSpec returns m's canonical specification string — parseable by
// MachineByName, so derived machines (WithXScale, WithStagger, ...)
// round-trip through names.
func MachineSpec(m Machine) string { return m.Spec() }

// ExploreCost is the deterministic hardware-cost proxy explorations
// minimize (see explore.Cost).
func ExploreCost(m Machine) float64 { return explore.Cost(m) }

// ---------------------------------------------------------------------------
// Experiments.

// ExperimentNames lists the paper's reproducible tables and figures, in
// paper order.
func ExperimentNames() []string { return experiments.Names() }

// ExperimentCatalog lists every experiment with its title, in paper
// order — the same registry that drives validation everywhere, so the
// docs can never drift from the runnable set again.
func ExperimentCatalog() []ExperimentInfo { return experiments.Catalog() }
