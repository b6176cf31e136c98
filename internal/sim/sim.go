// Package sim drives simulations: it runs (machine, workload) pairs with
// cache/predictor warmup, caches results, and is the one place the
// drivers fan work out across cores (Suite.FanOut). Aggregating results
// into the paper's figures is the drivers' job.
//
// The Suite is safe for concurrent use: one mutex guards its result
// cache, duplicate in-flight requests for the same (machine, benchmark,
// options) key are coalesced into one underlying run (singleflight),
// every entry point accepts a context.Context for cancellation and
// deadlines, and results can be persisted across processes through an
// optional store.Store.
package sim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"weak"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/recovery"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Options controls simulation length.
type Options struct {
	// WarmupInstrs are executed before counters reset, hiding cold-start
	// effects (the paper measures SimPoint regions from mid-execution).
	WarmupInstrs uint64
	// MeasureInstrs are executed with counters enabled.
	MeasureInstrs uint64
	// Parallelism bounds concurrent simulations (default: GOMAXPROCS).
	// It does not affect results and is excluded from cache keys.
	Parallelism int
	// MaxCycles, when positive, is a hang watchdog on the measured phase:
	// a run that exceeds this many cycles before retiring MeasureInstrs
	// stops early and returns a Result with Hung set instead of an error.
	// Fault campaigns use it to classify recovery livelocks.
	MaxCycles int64
}

// DefaultOptions returns the experiment-scale run lengths.
func DefaultOptions() Options {
	return Options{WarmupInstrs: 500_000, MeasureInstrs: 1_000_000}
}

// QuickOptions returns short runs for smoke tests.
func QuickOptions() Options {
	return Options{WarmupInstrs: 30_000, MeasureInstrs: 100_000}
}

// Result is the outcome of one simulation.
type Result struct {
	// Benchmark is the workload's name ("swim", "gcc-166", ...).
	Benchmark string
	// Class is the workload's benchmark class (integer or floating point).
	Class trace.Class
	// HighIPC marks workloads the paper groups into its high-IPC
	// aggregate.
	HighIPC bool
	// Machine is the machine configuration's display name.
	Machine string
	// Options records the run lengths that produced this result, so rows
	// for the same (machine, benchmark) at different scales stay
	// distinguishable in listings. Its Parallelism is always 0: it does
	// not affect results, so one key's result bytes do not depend on the
	// process that computed them.
	Options Options
	// Hung reports that the run exhausted Options.MaxCycles before
	// retiring the requested instructions; Stats then holds the partial
	// counters accumulated up to the watchdog.
	Hung bool
	// Stats holds the run's detailed performance counters. On a recovery
	// run they describe the committed timeline: rollbacks rewind the
	// counters along with the machine, so work discarded by recovery
	// appears only in the Recovery trace.
	Stats core.Stats
	// Recovery holds the checkpoint/rollback observables when the machine
	// has a checkpoint interval configured (see internal/recovery); nil
	// otherwise.
	Recovery *recovery.Trace `json:",omitempty"`
}

// IPC returns the run's instructions per cycle.
func (r Result) IPC() float64 { return r.Stats.IPC() }

// CPI returns the run's cycles per instruction.
func (r Result) CPI() float64 { return r.Stats.CPI() }

// RunContext simulates one machine on one workload, checking ctx for
// cancellation between engine step batches.
func RunContext(ctx context.Context, m config.Machine, p trace.Profile, opt Options) (Result, error) {
	return runOn(ctx, m, p, opt, nil, nil)
}

// siteCount asks a fault-free run to count the injection sites it
// evaluates inside the fault window [lo, hi) (core.Engine.FaultSites); the
// run sets n and ok when it counted every one of them. Giving the rate-0
// engine the window is what arms the count, and it draws nothing, so the
// run stays bit-identical to an unarmed one.
type siteCount struct {
	lo, hi, n uint64
	ok        bool
}

// runOn is RunContext on an instruction source for p's streams: a contiguous
// run reads them from src, and from a fresh generator when src is nil.
// With count non-nil, the run counts its injection sites into it.
func runOn(ctx context.Context, m config.Machine, p trace.Profile, opt Options, src trace.Source, count *siteCount) (Result, error) {
	if err := m.Validate(); err != nil {
		return Result{}, fmt.Errorf("sim: %w", err)
	}
	if src == nil {
		src = trace.New(p)
	}
	e := core.New(m, src)
	if count != nil {
		e.SetFaultConfig(m.FaultRate, m.FaultSeed, count.lo, count.hi)
	}
	if opt.WarmupInstrs > 0 {
		if err := e.WarmupContext(ctx, opt.WarmupInstrs); err != nil {
			return Result{}, fmt.Errorf("sim: warmup: %w", err)
		}
	}
	st, tr, hung, err := measureOrRecover(ctx, e, m, opt.MeasureInstrs, opt.MaxCycles)
	if err != nil {
		return Result{}, err
	}
	if count != nil {
		count.n, count.ok = e.FaultSites(), true
	}
	return newResult(m, p, opt, st, tr, hung), nil
}

// measureOrRecover runs the counted phase on a warmed engine: under
// recovery.Run, which wraps it in periodic checkpoints and rolls detected
// faults back, when m has a checkpoint interval, and plainly otherwise. The
// returned trace is nil exactly when recovery is disabled. A blown cycle
// budget is a hang rather than a driver failure: the partial counters
// return with hung set, so the result caches and persists like any other
// and a resumed campaign never re-simulates the hang.
func measureOrRecover(ctx context.Context, e *core.Engine, m config.Machine, n uint64, maxCycles int64) (core.Stats, *recovery.Trace, bool, error) {
	var st core.Stats
	var tr *recovery.Trace
	var err error
	if m.CkptInterval == 0 {
		st, err = e.RunBudget(ctx, n, maxCycles)
	} else {
		var t recovery.Trace
		st, t, err = recovery.Run(ctx, e, n, maxCycles, m.CkptInterval, m.CkptDepth)
		tr = &t
	}
	if err != nil {
		if !errors.Is(err, core.ErrCycleBudget) {
			return core.Stats{}, nil, false, fmt.Errorf("sim: %w", err)
		}
		return st, tr, true, nil
	}
	return st, tr, false, nil
}

func newResult(m config.Machine, p trace.Profile, opt Options, st core.Stats, tr *recovery.Trace, hung bool) Result {
	opt.Parallelism = 0
	return Result{
		Benchmark: p.Name,
		Class:     p.Class,
		HighIPC:   p.HighIPC,
		Machine:   m.Name,
		Options:   opt,
		Hung:      hung,
		Stats:     st,
		Recovery:  tr,
	}
}

// call is one in-flight simulation shared by every caller that requested
// the same key while it ran (singleflight).
type call struct {
	done chan struct{} // closed when res/err are valid
	res  Result
	err  error
}

// siteKey names one golden run's site count: the run's cache key and the
// fault window counted.
type siteKey struct {
	k      string
	lo, hi uint64
}

// Suite runs and memoizes simulations so experiments that share
// configurations (for example Table 2 and Figures 3/4) reuse results.
// All methods are safe for concurrent use.
type Suite struct {
	opt Options
	sem chan struct{} // bounds concurrently executing simulations

	// mu guards the result cache: results by key, the in-flight runs,
	// and sites, the injection-site counts of golden runs simulated by
	// FetchGolden. sites stays nil until the first count, so suites that
	// run no campaign do not build it.
	mu       sync.Mutex
	results  map[string]Result
	inflight map[string]*call
	sites    map[siteKey]uint64

	disk *store.Store // optional cross-process persistence (nil = off)

	// cps caches warmup checkpoints shared across fault-campaign trials:
	// trials differ only in FaultSeed and window, and fault eligibility
	// consults the window before drawing randomness, so every trial whose
	// window starts after the warmup replays one shared checkpoint instead
	// of re-simulating the warmup (see core.Checkpoint).
	cpMu sync.Mutex
	cps  map[string]*cpEntry

	// tapes caches each profile's correct-path stream for the cold
	// contiguous runs and the warmup checkpoint builds, so the machines of
	// a sweep and the campaigns over a profile replay one generation of it
	// (see tapeFor). It is an LRU over tapeBudget bytes.
	tapeMu    sync.Mutex
	tapes     map[string]*tapeEntry
	evicted   map[string]weak.Pointer[trace.Tape] // the tapes the LRU dropped, for revival
	tapeBytes int                                 // bytes of the built tapes in tapes
	tapeClock uint64                              // LRU clock: bumped on every tape request

	// The live counters behind Counters (documented there).
	runs, cacheHits, cacheMiss, dedupWaits, storeHits, storeErrs atomic.Uint64
	warmupShares, recoveryRuns, rollbacks, tapeBuilds, tapeHits  atomic.Uint64
	cleanSkips                                                   atomic.Uint64

	// stages, when telemetry is attached, holds the sim_stage_seconds{stage}
	// histogram family. All stage timing rides run boundaries — cache
	// lookups, store round-trips, whole engine runs — never the cycle
	// loop, so the engine core stays allocation-free.
	stages *telemetry.HistogramVec
}

// cpEntry is one warmup checkpoint, built once by the first requester
// while duplicates wait on the sync.Once.
type cpEntry struct {
	once sync.Once
	cp   *core.Checkpoint
	err  error
}

// tapeEntry is one profile's tape, built once by the first requester while
// duplicates wait on the sync.Once. used and bytes are guarded by the
// suite's tapeMu; bytes stays 0 until the build succeeds.
type tapeEntry struct {
	once  sync.Once
	tape  *trace.Tape
	err   error
	used  uint64
	bytes int
}

// tapeBudget bounds the bytes of tapes a suite retains (trace.Tape.Bytes:
// columns and generators). It holds a round of perfbench sweep tapes: four
// profiles at 100k instructions, 4.9 MB together. The most recently
// built tape is kept even when it alone exceeds the budget, as an
// experiment-scale tape does (about 11 MB of columns at DefaultOptions),
// so Batch replays each profile on every machine before it moves on.
const tapeBudget = 6 << 20

// tapeSlack is how far past a run's warmup and measured instructions its
// tape reaches: instructions in flight when the run stops were fetched
// from the stream too. A run that fetches further continues on the
// generator saved at the tape's end, exactly.
const tapeSlack = 4096

// tapeMaxInstrs caps a tape's length (about 16 MB); longer runs continue
// on the generator past its end.
const tapeMaxInstrs = 1 << 21

// NewSuite builds a suite with the given options.
func NewSuite(opt Options) *Suite {
	if opt.Parallelism <= 0 {
		opt.Parallelism = runtime.GOMAXPROCS(0)
	}
	return &Suite{opt: opt, sem: make(chan struct{}, opt.Parallelism),
		results: make(map[string]Result), inflight: make(map[string]*call),
		cps: make(map[string]*cpEntry), tapes: make(map[string]*tapeEntry),
		evicted: make(map[string]weak.Pointer[trace.Tape])}
}

// WithStore attaches a persistent result store: cache misses consult the
// store before simulating, and fresh results are written back, so repeated
// experiment runs reuse results across processes. Returns s for chaining.
func (s *Suite) WithStore(st *store.Store) *Suite {
	s.disk = st
	return s
}

// WithTelemetry attaches a metrics registry: the suite registers
// sim_stage_seconds{stage} and times each pipeline stage into it —
// cache_lookup, dedup_wait, store_fetch, store_write, warmup_share,
// tape_build, engine_run, and (via the context observer threaded into
// recovery) recovery_rollback. Returns s for chaining.
func (s *Suite) WithTelemetry(reg *telemetry.Registry) *Suite {
	s.stages = reg.HistogramVec("sim_stage_seconds",
		"Simulation pipeline stage durations: cache_lookup, dedup_wait, store_fetch, store_write, warmup_share, tape_build, engine_run, recovery_rollback.",
		telemetry.DefTimeBuckets(), "stage")
	return s
}

// StageSnapshots returns the per-stage histogram snapshots (nil when no
// telemetry is attached), for facades that summarize stage timing.
func (s *Suite) StageSnapshots() []telemetry.LabeledHistogram {
	if s.stages == nil {
		return nil
	}
	return s.stages.Snapshots()
}

// observeStage records one stage duration into the registry histogram
// (when telemetry is attached) and the context's span (when one rides the
// request), so job status JSON and /metrics see the same timings.
func (s *Suite) observeStage(ctx context.Context, stage string, start time.Time) {
	d := time.Since(start)
	if s.stages != nil {
		s.stages.With(stage).Observe(d.Seconds())
	}
	telemetry.SpanFrom(ctx).Record(stage, d)
}

// Options returns the suite's run options.
func (s *Suite) Options() Options { return s.opt }

// Counters is a snapshot of a suite's cache and run counters. Each
// field's JSON tag is the counter's one external name: repro.ClientMetrics
// embeds the struct, shrecd serves it on /healthz and /results, and
// CounterFields derives shrecd's shrecd_sim_<name>_total /metrics
// families from the JSON and help tags. Adding a counter means adding a
// tagged field here, its atomic on Suite, and its line in Suite.Counters.
type Counters struct {
	// Runs counts simulations actually executed (cache misses that were
	// not deduplicated or served from the store).
	Runs uint64 `json:"runs" help:"Simulations actually executed (cache misses)."`
	// Hits counts requests served without a fresh simulation: CacheHits +
	// DedupWaits + StoreHits.
	Hits uint64 `json:"hits" help:"Requests served from memory, store, or an in-flight duplicate."`
	// CacheHits counts requests served from the in-memory cache.
	CacheHits uint64 `json:"cache_hits" help:"Requests served from the in-memory result cache."`
	// CacheMisses counts requests that found neither a cached result nor
	// an in-flight duplicate and went on to the store or a fresh run.
	CacheMisses uint64 `json:"cache_misses" help:"Requests that found neither a cached result nor an in-flight duplicate."`
	// DedupWaits counts requests coalesced onto an in-flight duplicate
	// run (singleflight) instead of executing their own.
	DedupWaits uint64 `json:"dedup_waits" help:"Requests coalesced onto an in-flight duplicate run (singleflight)."`
	// StoreHits counts cache misses served from the persistent store.
	StoreHits uint64 `json:"store_hits" help:"Cache misses served from the persistent store."`
	// StoreErrors counts failed persistent-store writes (the results were
	// still computed and served from memory).
	StoreErrors uint64 `json:"store_errors" help:"Failed persistent-store writes."`
	// WarmupShares counts runs that skipped their warmup by resuming a
	// shared fault-free warmup checkpoint (fault-campaign trials whose
	// injection window starts after the warmup).
	WarmupShares uint64 `json:"warmup_shares" help:"Runs that resumed from a shared warmup checkpoint instead of re-warming."`
	// RecoveryRuns counts executed runs simulated under checkpoint
	// recovery (a machine with CkptInterval set).
	RecoveryRuns uint64 `json:"recovery_runs" help:"Runs executed under a checkpoint/rollback recovery policy."`
	// Rollbacks counts checkpoint rollbacks across every recovery run.
	Rollbacks uint64 `json:"rollbacks" help:"Checkpoint rollbacks across all recovery runs."`
	// TapeBuilds counts correct-path tapes generated for cold contiguous
	// runs and warmup checkpoint builds; TapeHits counts those runs that
	// replayed a tape already built (or revived after its eviction).
	TapeBuilds uint64 `json:"tape_builds" help:"Correct-path tapes generated for runs, including warmup checkpoints."`
	TapeHits   uint64 `json:"tape_hits" help:"Runs, including warmup checkpoints, that replayed an already generated correct-path tape."`
	// CleanSkips counts results served by Derive without simulating:
	// fault-campaign trials whose injector provably never fires, served
	// from their golden run. They count in neither Runs nor WarmupShares.
	CleanSkips uint64 `json:"clean_skips" help:"Trials derived from the golden run without simulating."`
}

// CounterField describes one Counters field by its tags.
type CounterField struct {
	Name  string // the JSON tag
	Help  string // the help tag
	index int
}

// Value returns the field's value in c.
func (f CounterField) Value(c Counters) uint64 {
	return reflect.ValueOf(c).Field(f.index).Uint()
}

// CounterFields lists every Counters field in declaration order.
var CounterFields = func() []CounterField {
	t := reflect.TypeFor[Counters]()
	out := make([]CounterField, t.NumField())
	for i := range out {
		f := t.Field(i)
		out[i] = CounterField{Name: f.Tag.Get("json"), Help: f.Tag.Get("help"), index: i}
	}
	return out
}()

// Summary renders c as space-separated name=value pairs for CLI status
// lines: runs always, the other counters only when nonzero. (It is not
// String, which embedding structs such as repro.ClientMetrics would
// inherit.)
func (c Counters) Summary() string {
	var b strings.Builder
	for i, f := range CounterFields {
		if v := f.Value(c); i == 0 || v != 0 {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%s=%d", f.Name, v)
		}
	}
	return b.String()
}

// Counters snapshots the suite's counters. Each atomic is loaded on its
// own, so a snapshot taken under load may straddle concurrent requests.
func (s *Suite) Counters() Counters {
	c := Counters{
		Runs:         s.runs.Load(),
		CacheHits:    s.cacheHits.Load(),
		CacheMisses:  s.cacheMiss.Load(),
		DedupWaits:   s.dedupWaits.Load(),
		StoreHits:    s.storeHits.Load(),
		StoreErrors:  s.storeErrs.Load(),
		WarmupShares: s.warmupShares.Load(),
		RecoveryRuns: s.recoveryRuns.Load(),
		Rollbacks:    s.rollbacks.Load(),
		TapeBuilds:   s.tapeBuilds.Load(),
		TapeHits:     s.tapeHits.Load(),
		CleanSkips:   s.cleanSkips.Load(),
	}
	c.Hits = c.CacheHits + c.DedupWaits + c.StoreHits
	return c
}

// StoreHits is Counters().StoreHits, kept as a method because the
// perfbench harness, a separate module pinned to this API, calls it.
func (s *Suite) StoreHits() uint64 { return s.Counters().StoreHits }

// key identifies one (machine, benchmark, options) simulation. Run
// lengths and the cycle budget are part of the key so one suite can serve
// requests at several scales (the shrecd server does) without conflating
// their results, and so are the machine's fault-injection and checkpoint
// fields: a campaign fans out hundreds of trials that differ only in
// FaultSeed and window (or only in recovery policy), which must not
// collide on the shared display name.
func key(m config.Machine, p trace.Profile, opt Options) string {
	return fmt.Sprintf("%s\x00%s\x00%d\x00%d\x00%d\x00%g\x00%d\x00%d\x00%d\x00%d\x00%d",
		m.Name, p.Name, opt.WarmupInstrs, opt.MeasureInstrs, opt.MaxCycles,
		m.FaultRate, m.FaultSeed, m.FaultWindowLo, m.FaultWindowHi,
		m.CkptInterval, m.CkptDepth)
}

// digest builds the persistent-store key. Unlike the in-memory key it
// hashes the full machine configuration and workload profile, so renamed
// or edited configurations never collide across processes. Only the run
// lengths and cycle budget of the options participate: Parallelism does
// not affect results, and hashing it would make store lookups miss across
// machines with different core counts. The schema label is v7: v3
// results predate checkpoint recovery, v4 results predate the detection
// mode zoo — the hashed machine grew the lane/context/region fields and
// Stats grew the MEEK and FLEX counters, so v4 records would resolve to
// Results missing those fields. v5 FLEX results with faults may carry an
// overcounted Stats.SilentCorruptions (an unverified faulty store counted
// once per cycle it waited for a memory port), so a v5 store hit could
// disagree with a fresh run. v6 lockstep (no-stagger) SS2 results may
// carry the issue cursor's double issue or deadlock: a budgeted run that
// hung is stored as Hung with partial Stats, and one that finished may
// have issued a slot twice. The trailing literal 1 is the interval count
// every exact run hashed when the options still carried a sampled-interval
// mode; keeping it in place keeps persisted sim.Result.v7 records served
// (TestDigestStable pins the keys).
func digest(m config.Machine, p trace.Profile, opt Options) string {
	return store.Digest("sim.Result.v7", m, p, opt.WarmupInstrs, opt.MeasureInstrs, opt.MaxCycles, 1)
}

// GetOpt is Fetch without the ran report, used by servers that accept
// request-scoped options.
func (s *Suite) GetOpt(ctx context.Context, m config.Machine, p trace.Profile, opt Options) (Result, error) {
	res, _, err := s.Fetch(ctx, m, p, opt)
	return res, err
}

// Fetch returns the result of machine m on profile p at options opt, and
// whether this call ran the simulation: a result served from the cache,
// the store, or an in-flight duplicate reports ran == false. Concurrent
// callers requesting the same (machine, benchmark, options) key share one
// underlying run. Campaigns and explorations count resumed work by it.
func (s *Suite) Fetch(ctx context.Context, m config.Machine, p trace.Profile, opt Options) (Result, bool, error) {
	return s.fetch(ctx, m, p, opt, nil, nil)
}

// FetchGolden is Fetch for a fault-free golden run that also returns the
// number of injection sites the run evaluates inside the fault window
// [lo, hi) (see core.Engine.FaultSites): a trial of the same machine
// injecting in that window is clean exactly when core.FirstFaultSite of
// its rate and seed reaches the count. known is false when the count is
// not in memory: the result came from the store, or from an earlier
// request for the same run that counted another window or none, or the
// warmup checkpoint the run resumed had already fetched past lo. The
// count is kept in memory only; it is neither part of the Result nor
// written to the store.
func (s *Suite) FetchGolden(ctx context.Context, m config.Machine, p trace.Profile, opt Options, lo, hi uint64) (res Result, sites uint64, known bool, err error) {
	if m.FaultRate != 0 || hi == 0 {
		res, _, err = s.fetch(ctx, m, p, opt, nil, nil)
		return res, 0, false, err
	}
	if res, _, err = s.fetch(ctx, m, p, opt, &siteCount{lo: lo, hi: hi}, nil); err != nil {
		return res, 0, false, err
	}
	s.mu.Lock()
	sites, known = s.sites[siteKey{key(m, p, opt), lo, hi}]
	s.mu.Unlock()
	return res, sites, known, nil
}

// Derive serves res, a result its caller derived without simulating, as
// the result of machine m on profile p at options opt. A result already
// cached or stored under that key wins and reports ran == false, like any
// Fetch hit. Otherwise res is cached and written to the store exactly as
// a simulated result would be, counts in CleanSkips, and ran reports
// true: this call computed it. Fault campaigns serve their clean trials
// through it.
func (s *Suite) Derive(ctx context.Context, m config.Machine, p trace.Profile, opt Options, res Result) (Result, bool, error) {
	return s.fetch(ctx, m, p, opt, nil, &res)
}

// fetch is the Fetch family's one cache path. On a miss that the store
// does not serve it computes the result: from derived when non-nil, and
// otherwise by simulating, counting injection sites into count when
// non-nil and recording the count next to the cached result.
func (s *Suite) fetch(ctx context.Context, m config.Machine, p trace.Profile, opt Options, count *siteCount, derived *Result) (Result, bool, error) {
	k := key(m, p, opt)
	for {
		look := time.Now()
		s.mu.Lock()
		if res, ok := s.results[k]; ok {
			s.mu.Unlock()
			s.observeStage(ctx, "cache_lookup", look)
			s.cacheHits.Add(1)
			return res, false, nil
		}
		if c, ok := s.inflight[k]; ok {
			s.mu.Unlock()
			s.observeStage(ctx, "cache_lookup", look)
			wait := time.Now()
			select {
			case <-c.done:
				s.observeStage(ctx, "dedup_wait", wait)
				if c.err == nil {
					s.dedupWaits.Add(1)
					return c.res, false, nil
				}
				// The owning caller was cancelled; if we are still live,
				// retry so our request is not poisoned by their deadline.
				if errors.Is(c.err, context.Canceled) || errors.Is(c.err, context.DeadlineExceeded) {
					if ctx.Err() != nil {
						return Result{}, false, ctx.Err()
					}
					continue
				}
				return Result{}, false, c.err
			case <-ctx.Done():
				return Result{}, false, ctx.Err()
			}
		}
		c := &call{done: make(chan struct{})}
		s.inflight[k] = c
		s.mu.Unlock()
		s.observeStage(ctx, "cache_lookup", look)
		s.cacheMiss.Add(1)

		var ran bool
		c.res, ran, c.err = s.execute(ctx, m, p, opt, count, derived)
		s.mu.Lock()
		if c.err == nil {
			s.results[k] = c.res
			if count != nil && count.ok {
				if s.sites == nil {
					s.sites = make(map[siteKey]uint64)
				}
				s.sites[siteKey{k, count.lo, count.hi}] = count.n
			}
		}
		delete(s.inflight, k)
		s.mu.Unlock()
		close(c.done)
		return c.res, ran, c.err
	}
}

// execute serves one cache miss: consult the persistent store, otherwise
// take derived or simulate (see fetch), and write back. ran reports that
// the result was computed rather than read from the store.
func (s *Suite) execute(ctx context.Context, m config.Machine, p trace.Profile, opt Options, count *siteCount, derived *Result) (Result, bool, error) {
	var dk string
	if s.disk != nil {
		dk = digest(m, p, opt)
		fetch := time.Now()
		var res Result
		ok, err := s.disk.Get(dk, &res)
		s.observeStage(ctx, "store_fetch", fetch)
		if err == nil && ok {
			s.storeHits.Add(1)
			// Records written before Result.Options dropped Parallelism
			// still carry the writer's.
			res.Options.Parallelism = 0
			return res, false, nil
		}
	}
	var res Result
	if derived != nil {
		res = *derived
		s.cleanSkips.Add(1)
	} else {
		var err error
		if res, err = s.run(ctx, m, p, opt, count); err != nil {
			return Result{}, false, err
		}
	}
	if s.disk != nil {
		// A persistence failure (disk full, closed store) must not discard
		// a successfully computed result: keep serving it from memory and
		// count the failure for observability.
		write := time.Now()
		if err := s.disk.Put(dk, res); err != nil {
			s.storeErrs.Add(1)
		}
		s.observeStage(ctx, "store_write", write)
	}
	return res, true, nil
}

// run simulates one cache miss under the parallelism bound and counts it.
func (s *Suite) run(ctx context.Context, m config.Machine, p trace.Profile, opt Options, count *siteCount) (Result, error) {
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
	if s.stages != nil {
		// Layers below the suite (recovery rollbacks) report through the
		// context observer so they feed sim_stage_seconds without importing
		// this package.
		ctx = telemetry.WithStageObserver(ctx, func(stage string, seconds float64) {
			s.stages.With(stage).Observe(seconds)
		})
	}
	res, err := s.simulate(ctx, m, p, opt, count)
	if err != nil {
		return Result{}, err
	}
	s.runs.Add(1)
	if res.Recovery != nil {
		s.recoveryRuns.Add(1)
		s.rollbacks.Add(res.Recovery.Rollbacks)
	}
	return res, nil
}

// simulate performs one underlying run, routing fault-campaign trials and
// the fault-free golden runs of recovery machines through the shared
// warmup-checkpoint cache when that is provably equivalent to a cold
// start, and everything else through RunContext. count, when non-nil,
// asks the run to count its injection sites (see siteCount).
func (s *Suite) simulate(ctx context.Context, m config.Machine, p trace.Profile, opt Options, count *siteCount) (Result, error) {
	// Sharing needs a warmup to share. It applies to machines that inject faults, whose window
	// cannot open during the warmup (FetchSeq runs ahead of the retired
	// count, so the precise bound is rechecked against the built
	// checkpoint below), and to fault-free machines with a checkpoint
	// interval: that is a recovery campaign's golden run, which then
	// builds the checkpoint its trials resume. Other fault-free machines
	// go cold, so a plain sweep pins no checkpoint for the suite's life.
	faultTrial := m.FaultRate > 0 && m.FaultWindowLo >= opt.WarmupInstrs
	recoveryGolden := m.FaultRate == 0 && m.CkptInterval > 0
	if opt.WarmupInstrs > 0 && (faultTrial || recoveryGolden) {
		if res, ok, err := s.runFromWarmup(ctx, m, p, opt, count); err != nil || ok {
			return res, err
		}
	}
	src := s.sourceFor(ctx, p, opt)
	run := time.Now()
	res, err := runOn(ctx, m, p, opt, src, count)
	s.observeStage(ctx, "engine_run", run)
	return res, err
}

// sourceFor returns the instruction source of one run of p at opt, a cold
// run or a warmup checkpoint's build: a cursor over p's tape, or a fresh
// generator when the tape build failed or was cancelled.
func (s *Suite) sourceFor(ctx context.Context, p trace.Profile, opt Options) trace.Source {
	if tape := s.tapeFor(ctx, p, opt); tape != nil {
		return tape.Cursor()
	}
	return trace.New(p)
}

// tapeFor returns p's tape, building it on the first request (timed as the
// tape_build stage) for a run at opt. It returns nil when the build failed,
// dropping the entry as runFromWarmup does, so the caller runs on a fresh
// generator and the next request rebuilds. The tape's length is set by
// its first request; any run replays it exactly, continuing past its end
// on the generator. A tape the LRU dropped while a run or a warmup
// checkpoint still replays it is revived rather than rebuilt, so a suite
// holds at most one live tape per profile.
func (s *Suite) tapeFor(ctx context.Context, p trace.Profile, opt Options) *trace.Tape {
	k := tapeKey(p)
	s.tapeMu.Lock()
	entry, ok := s.tapes[k]
	if !ok {
		entry = &tapeEntry{}
		s.tapes[k] = entry
		if tape := s.evicted[k].Value(); tape != nil {
			entry.once.Do(func() { entry.tape = tape })
			entry.bytes = tape.Bytes()
			s.tapeBytes += entry.bytes
			s.evictTapes(entry)
		}
		delete(s.evicted, k)
	}
	s.tapeClock++
	entry.used = s.tapeClock
	s.tapeMu.Unlock()

	built := false
	entry.once.Do(func() {
		start := time.Now()
		n := min(opt.WarmupInstrs+opt.MeasureInstrs+tapeSlack, tapeMaxInstrs)
		entry.tape, entry.err = trace.BuildTape(ctx, p, int(n))
		s.observeStage(ctx, "tape_build", start)
		built = true
	})
	s.tapeMu.Lock()
	defer s.tapeMu.Unlock()
	if entry.err != nil {
		if s.tapes[k] == entry {
			delete(s.tapes, k)
		}
		return nil
	}
	if !built {
		s.tapeHits.Add(1)
		return entry.tape
	}
	s.tapeBuilds.Add(1)
	if s.tapes[k] == entry {
		entry.bytes = entry.tape.Bytes()
		s.tapeBytes += entry.bytes
		s.evictTapes(entry)
	}
	return entry.tape
}

// tapeKey is the key of p's tape: the profile alone, since a tape serves
// every run length.
func tapeKey(p trace.Profile) string { return store.Digest("sim.tape.v1", p) }

// evictTapes drops least recently requested built tapes until the cache
// fits tapeBudget, never dropping keep. Runs and warmup checkpoints already
// replaying a dropped tape hold it, and evicted keeps a weak pointer to it
// for tapeFor to revive; the pointers of collected tapes are pruned here.
// The caller holds tapeMu.
func (s *Suite) evictTapes(keep *tapeEntry) {
	for s.tapeBytes > tapeBudget {
		var lru string
		var oldest *tapeEntry
		for k, e := range s.tapes {
			if e != keep && e.bytes > 0 && (oldest == nil || e.used < oldest.used) {
				lru, oldest = k, e
			}
		}
		if oldest == nil {
			return
		}
		delete(s.tapes, lru)
		s.tapeBytes -= oldest.bytes
		for k, w := range s.evicted {
			if w.Value() == nil {
				delete(s.evicted, k)
			}
		}
		s.evicted[lru] = weak.Make(oldest.tape)
	}
}

// warmupKey returns the machine whose warmup a run of m on p at opt
// shares, and the key of its warmup checkpoint. The warmup is fault-free
// and checkpoint-free regardless of the run's injection and recovery
// settings, and the display name tracks those settings — zero all three so
// one warmup checkpoint serves every trial, every recovery policy and the
// recovery golden run over the same base machine.
func warmupKey(m config.Machine, p trace.Profile, opt Options) (config.Machine, string) {
	base := m
	base.Name = ""
	base.FaultRate, base.FaultSeed = 0, 0
	base.FaultWindowLo, base.FaultWindowHi = 0, 0
	base.CkptInterval, base.CkptDepth = 0, 0
	// v3: the machine hash gained the detection-mode-zoo fields, so v2
	// checkpoint keys no longer correspond to any current machine.
	return base, store.Digest("sim.warmup.v3", base, p, opt.WarmupInstrs)
}

// runFromWarmup serves one run from the shared warmup checkpoint. ok
// reports whether sharing applied; on ok == false (checkpoint build
// failed, or its fetch frontier already overlaps a fault window) the
// caller falls back to a cold run. A count whose window opens before the
// checkpoint's fetch frontier stays unset: sites the warmup already
// issued are not in the checkpoint's count. The checkpoint's warmup
// replays p's tape (see sourceFor); the engines spawned from it, their
// recovery checkpoints and their rollbacks clone its cursor and go on
// sharing the tape.
func (s *Suite) runFromWarmup(ctx context.Context, m config.Machine, p trace.Profile, opt Options, count *siteCount) (Result, bool, error) {
	if err := m.Validate(); err != nil {
		return Result{}, false, fmt.Errorf("sim: %w", err)
	}
	base, ck := warmupKey(m, p, opt)

	share := time.Now()
	s.cpMu.Lock()
	entry, ok := s.cps[ck]
	if !ok {
		entry = &cpEntry{}
		s.cps[ck] = entry
	}
	s.cpMu.Unlock()
	entry.once.Do(func() {
		e := core.New(base, s.sourceFor(ctx, p, opt))
		if err := e.WarmupContext(ctx, opt.WarmupInstrs); err != nil {
			entry.err = err
			return
		}
		entry.cp, entry.err = e.Checkpoint()
	})
	if entry.err != nil {
		// Drop the failed entry (it may have died on this caller's
		// context) so a later trial rebuilds; this trial runs cold.
		s.cpMu.Lock()
		if s.cps[ck] == entry {
			delete(s.cps, ck)
		}
		s.cpMu.Unlock()
		return Result{}, false, nil
	}
	if m.FaultRate > 0 && m.FaultWindowLo < entry.cp.FetchSeq() {
		return Result{}, false, nil
	}
	s.observeStage(ctx, "warmup_share", share)

	run := time.Now()
	e := entry.cp.NewEngine()
	lo, hi := m.FaultWindowLo, m.FaultWindowHi
	if count != nil && count.lo >= entry.cp.FetchSeq() {
		lo, hi = count.lo, count.hi
	} else {
		count = nil
	}
	e.SetFaultConfig(m.FaultRate, m.FaultSeed, lo, hi)
	st, tr, hung, err := measureOrRecover(ctx, e, m, opt.MeasureInstrs, opt.MaxCycles)
	s.observeStage(ctx, "engine_run", run)
	if err != nil {
		return Result{}, false, err
	}
	if count != nil {
		count.n, count.ok = e.FaultSites(), true
	}
	s.warmupShares.Add(1)
	return newResult(m, p, opt, st, tr, hung), true, nil
}

// Batch runs every (machine, profile) pair, in parallel, reusing cached
// and in-flight results, and returns them in machines-major order:
// results[i*len(profiles)+j] is machines[i] on profiles[j]. It fans the
// pairs out profile-major (see FanOut), so every machine replays a
// profile's tape before the tape cache moves on to the next profile. Like
// FanOut, it waits for every pair and returns all failures joined, so one
// bad configuration does not hide the others.
func (s *Suite) Batch(ctx context.Context, machines []config.Machine, profiles []trace.Profile) ([]Result, error) {
	type job struct {
		i int // index into out
		m config.Machine
		p trace.Profile
	}
	out := make([]Result, len(machines)*len(profiles))
	var jobs []job
	// Read pairs already cached without counting a hit, so a warm batch
	// spawns no goroutines and does not inflate the hit counter; races
	// with concurrent fills are still covered by GetOpt's singleflight.
	s.mu.Lock()
	for j, p := range profiles {
		for i, m := range machines {
			res, ok := s.results[key(m, p, s.opt)]
			o := i*len(profiles) + j
			if !ok {
				jobs = append(jobs, job{o, m, p})
			}
			out[o] = res
		}
	}
	s.mu.Unlock()

	err := s.FanOut(ctx, "sim: batch", "pairs", len(jobs), func(i int) error {
		j := jobs[i]
		res, err := s.GetOpt(ctx, j.m, j.p, s.opt)
		if err != nil {
			return fmt.Errorf("%s on %s: %w", j.m.Name, j.p.Name, err)
		}
		out[j.i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// FanOut calls fn(i) for every i in [0, n) on at most the suite's
// parallelism of goroutines, in index order of dispatch, and waits for
// all of them. Simulations inside fn still queue on the suite's own
// bound, so fan-outs may nest (an exploration's points each run a
// campaign's trials). FanOut joins the failures in index order; when
// every call succeeded it returns nil, even if ctx expired in the final
// window, since the work is complete. After a cancellation, the failures
// that only cascade ctx.Err() collapse into one "who: interrupted with d
// of n what done" error, kept beside the genuine failures.
func (s *Suite) FanOut(ctx context.Context, who, what string, n int, fn func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(s.opt.Parallelism, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()

	var failed []error
	for _, err := range errs {
		if err != nil {
			failed = append(failed, err)
		}
	}
	ctxErr := ctx.Err()
	if len(failed) == 0 || ctxErr == nil {
		return errors.Join(failed...)
	}
	var real []error
	for _, err := range failed {
		if !errors.Is(err, ctxErr) {
			real = append(real, err)
		}
	}
	real = append(real, fmt.Errorf("%s: interrupted with %d of %d %s done: %w",
		who, n-len(failed), n, what, ctxErr))
	return errors.Join(real...)
}

// Len reports how many results are cached without copying any entries —
// the cheap gauge behind shrecd_results_cached (Results would copy the
// whole cache on every scrape).
func (s *Suite) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.results)
}

// Results returns a snapshot of every cached result, sorted by machine
// then benchmark for stable output (the shrecd GET /results endpoint).
func (s *Suite) Results() []Result {
	var out []Result
	s.mu.Lock()
	for _, r := range s.results {
		out = append(out, r)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Machine != b.Machine {
			return a.Machine < b.Machine
		}
		if a.Benchmark != b.Benchmark {
			return a.Benchmark < b.Benchmark
		}
		if a.Options.WarmupInstrs != b.Options.WarmupInstrs {
			return a.Options.WarmupInstrs < b.Options.WarmupInstrs
		}
		return a.Options.MeasureInstrs < b.Options.MeasureInstrs
	})
	return out
}
