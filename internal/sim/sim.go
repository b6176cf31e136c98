// Package sim drives simulations: it runs (machine, workload) pairs with
// cache/predictor warmup, caches results, parallelizes across cores, and
// aggregates IPCs the way the paper does (harmonic means over benchmark
// classes).
//
// The Suite is built for heavy concurrent use: its result cache is
// lock-striped across shards, duplicate in-flight requests for the same
// (machine, benchmark, options) key are coalesced into one underlying run
// (singleflight), every entry point accepts a context.Context for
// cancellation and deadlines, and results can be persisted across
// processes through an optional store.Store.
package sim

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/recovery"
	"repro/internal/stats"
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
	// Intervals, when > 1, splits the measured phase into that many
	// consecutive regions of the instruction stream, each simulated by an
	// independent engine (fresh microarchitectural state, own
	// WarmupInstrs warmup) and stitched back together in stream order.
	// The intervals are independent, so they run concurrently under
	// Parallelism — this is the interval-parallel mode. It is a sampled
	// estimator in the SimPoint tradition, not the contiguous run: each
	// interval re-warms instead of inheriting state, so results differ
	// slightly from Intervals <= 1 (which is the exact classic path) and
	// the two never share cache entries. Stitched results are fully
	// deterministic and independent of Parallelism. MaxCycles, when set,
	// is divided evenly across intervals.
	Intervals int
	// Parallelism bounds concurrent simulations (default: GOMAXPROCS).
	// It does not affect results and is excluded from cache keys.
	Parallelism int
	// MaxCycles, when positive, is a hang watchdog on the measured phase:
	// a run that exceeds this many cycles before retiring MeasureInstrs
	// stops early and returns a Result with Hung set instead of an error.
	// Fault campaigns use it to classify recovery livelocks.
	MaxCycles int64
}

// intervalCount returns the effective interval count: 0 and 1 both select
// the classic contiguous run.
func (o Options) intervalCount() int {
	if o.Intervals > 1 {
		return o.Intervals
	}
	return 1
}

// parallelism returns the effective worker bound.
func (o Options) parallelism() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
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
	// distinguishable in listings.
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
	if err := m.Validate(); err != nil {
		return Result{}, fmt.Errorf("sim: %w", err)
	}
	if opt.intervalCount() > 1 {
		if m.CkptInterval > 0 {
			// Rollback would need to cross interval boundaries that were
			// simulated independently; the combination is rejected rather
			// than silently approximated.
			return Result{}, fmt.Errorf("sim: %s: interval-parallel simulation cannot model checkpoint recovery", m.Name)
		}
		return runIntervals(ctx, m, p, opt)
	}
	e := core.New(m, trace.New(p))
	if opt.WarmupInstrs > 0 {
		if err := e.WarmupContext(ctx, opt.WarmupInstrs); err != nil {
			return Result{}, fmt.Errorf("sim: warmup: %w", err)
		}
	}
	st, tr, hung, err := measureOrRecover(ctx, e, m, opt.MeasureInstrs, opt.MaxCycles)
	if err != nil {
		return Result{}, err
	}
	return newResult(m, p, opt, st, tr, hung), nil
}

// measure runs the counted phase on a warmed engine and classifies a blown
// cycle budget as a hang rather than a driver failure: the partial
// counters return with hung set, so the result caches and persists like
// any other and a resumed campaign never re-simulates the hang.
func measure(ctx context.Context, e *core.Engine, n uint64, maxCycles int64) (core.Stats, bool, error) {
	st, err := e.RunBudget(ctx, n, maxCycles)
	if err != nil {
		if !errors.Is(err, core.ErrCycleBudget) {
			return core.Stats{}, false, fmt.Errorf("sim: %w", err)
		}
		return st, true, nil
	}
	return st, false, nil
}

// measureOrRecover is measure for machines with a checkpoint interval
// configured: the counted phase runs under recovery.Run, which wraps it in
// periodic checkpoints and rolls detected faults back. The returned trace
// is nil exactly when recovery is disabled.
func measureOrRecover(ctx context.Context, e *core.Engine, m config.Machine, n uint64, maxCycles int64) (core.Stats, *recovery.Trace, bool, error) {
	if m.CkptInterval == 0 {
		st, hung, err := measure(ctx, e, n, maxCycles)
		return st, nil, hung, err
	}
	st, tr, err := recovery.Run(ctx, e, n, maxCycles, m.CkptInterval, m.CkptDepth)
	if err != nil {
		if !errors.Is(err, core.ErrCycleBudget) {
			return core.Stats{}, nil, false, fmt.Errorf("sim: %w", err)
		}
		return st, &tr, true, nil
	}
	return st, &tr, false, nil
}

func newResult(m config.Machine, p trace.Profile, opt Options, st core.Stats, tr *recovery.Trace, hung bool) Result {
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

// sigOffsetBasis seeds the interval-signature fold (the FNV-1a offset
// basis; the multiplier below is the FNV-1a prime).
const (
	sigOffsetBasis = 14695981039346656037
	sigPrime       = 1099511628211
)

// runIntervals is the interval-parallel simulation path: the measured
// phase splits into opt.Intervals consecutive regions of the instruction
// stream, each simulated by an independent engine over a fresh generator
// fast-skipped to the region start, warmed for WarmupInstrs, and measured
// for its share. Intervals run concurrently under opt.Parallelism, then
// stitch in stream order: counters via Stats.Add, architectural
// signatures via an order-sensitive fold, Hung by OR. Because intervals
// share no state, the stitched result is byte-identical no matter how
// many workers ran — the equivalence tests pin parallel == sequential.
func runIntervals(ctx context.Context, m config.Machine, p trace.Profile, opt Options) (Result, error) {
	k := opt.intervalCount()
	per := opt.MeasureInstrs / uint64(k)
	if per == 0 {
		return Result{}, fmt.Errorf("sim: %d intervals need at least %d measured instructions, have %d",
			k, k, opt.MeasureInstrs)
	}
	budget := opt.MaxCycles
	if budget > 0 {
		if budget /= int64(k); budget == 0 {
			budget = 1
		}
	}

	stats := make([]core.Stats, k)
	hungs := make([]bool, k)
	errs := make([]error, k)
	par := opt.parallelism()
	if par > k {
		par = k
	}
	sem := make(chan struct{}, par)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if ctx.Err() != nil {
				errs[i] = ctx.Err()
				return
			}
			n := per
			if i == k-1 {
				// The last interval absorbs the division remainder so the
				// stitched run measures exactly MeasureInstrs.
				n = opt.MeasureInstrs - per*uint64(k-1)
			}
			stats[i], hungs[i], errs[i] = runInterval(ctx, m, p, uint64(i)*per, opt.WarmupInstrs, n, budget)
		}(i)
	}
	wg.Wait()

	var agg core.Stats
	sig := uint64(sigOffsetBasis)
	hung := false
	for i := 0; i < k; i++ {
		if errs[i] != nil {
			return Result{}, fmt.Errorf("sim: interval %d of %d: %w", i, k, errs[i])
		}
		agg.Add(stats[i])
		sig = (sig ^ stats[i].ArchSig) * sigPrime
		hung = hung || hungs[i]
	}
	agg.ArchSig = sig
	return newResult(m, p, opt, agg, nil, hung), nil
}

// runInterval simulates one region: fast-skip the generator to the region
// start, warm, measure.
func runInterval(ctx context.Context, m config.Machine, p trace.Profile, skip, warm, n uint64, budget int64) (core.Stats, bool, error) {
	src := trace.New(p)
	for j := uint64(0); j < skip; j++ {
		src.Next()
		if j&0xffff == 0xffff && ctx.Err() != nil {
			return core.Stats{}, false, ctx.Err()
		}
	}
	e := core.New(m, src)
	if warm > 0 {
		if err := e.WarmupContext(ctx, warm); err != nil {
			return core.Stats{}, false, fmt.Errorf("sim: warmup: %w", err)
		}
	}
	return measure(ctx, e, n, budget)
}

// numShards stripes the result cache. A modest power of two keeps the
// striping cheap while making lock contention negligible even with
// hundreds of concurrent callers.
const numShards = 32

// call is one in-flight simulation shared by every caller that requested
// the same key while it ran (singleflight).
type call struct {
	done chan struct{} // closed when res/err are valid
	res  Result
	err  error
}

// shard is one stripe of the result cache.
type shard struct {
	mu       sync.Mutex
	results  map[string]Result
	inflight map[string]*call
}

// Suite runs and memoizes simulations so experiments that share
// configurations (for example Table 2 and Figures 3/4) reuse results.
// All methods are safe for concurrent use.
type Suite struct {
	opt    Options
	shards [numShards]shard
	sem    chan struct{} // bounds concurrently executing simulations

	disk *store.Store // optional cross-process persistence (nil = off)

	// cps caches warmup checkpoints shared across fault-campaign trials:
	// trials differ only in FaultSeed and window, and fault eligibility
	// consults the window before drawing randomness, so every trial whose
	// window starts after the warmup replays one shared checkpoint instead
	// of re-simulating the warmup (see core.Checkpoint).
	cpMu sync.Mutex
	cps  map[string]*cpEntry

	// The live counters behind Counters (documented there).
	runs, cacheHits, cacheMiss, dedupWaits, storeHits, storeErrs atomic.Uint64
	warmupShares, intervalRuns, recoveryRuns, rollbacks          atomic.Uint64

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

// NewSuite builds a suite with the given options.
func NewSuite(opt Options) *Suite {
	if opt.Parallelism <= 0 {
		opt.Parallelism = runtime.GOMAXPROCS(0)
	}
	s := &Suite{opt: opt, sem: make(chan struct{}, opt.Parallelism), cps: make(map[string]*cpEntry)}
	for i := range s.shards {
		s.shards[i].results = make(map[string]Result)
		s.shards[i].inflight = make(map[string]*call)
	}
	return s
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
// engine_run, and (via the context observer threaded into recovery)
// recovery_rollback. Returns s for chaining.
func (s *Suite) WithTelemetry(reg *telemetry.Registry) *Suite {
	s.stages = reg.HistogramVec("sim_stage_seconds",
		"Simulation pipeline stage durations: cache_lookup, dedup_wait, store_fetch, store_write, warmup_share, engine_run, recovery_rollback.",
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
	// CacheHits counts requests served from the in-memory striped cache.
	CacheHits uint64 `json:"cache_hits" help:"Requests served from the in-memory striped result cache."`
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
	// IntervalRuns counts executed runs that took the interval-parallel
	// path (Options.Intervals > 1).
	IntervalRuns uint64 `json:"interval_runs" help:"Runs executed interval-parallel."`
	// RecoveryRuns counts executed runs simulated under checkpoint
	// recovery (a machine with CkptInterval set).
	RecoveryRuns uint64 `json:"recovery_runs" help:"Runs executed under a checkpoint/rollback recovery policy."`
	// Rollbacks counts checkpoint rollbacks across every recovery run.
	Rollbacks uint64 `json:"rollbacks" help:"Checkpoint rollbacks across all recovery runs."`
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
		IntervalRuns: s.intervalRuns.Load(),
		RecoveryRuns: s.recoveryRuns.Load(),
		Rollbacks:    s.rollbacks.Load(),
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
// The interval count is keyed through intervalCount, so 0 and 1 (both the
// classic contiguous run) share entries while sampled splits stay apart.
func key(m config.Machine, p trace.Profile, opt Options) string {
	return fmt.Sprintf("%s\x00%s\x00%d\x00%d\x00%d\x00%g\x00%d\x00%d\x00%d\x00%d\x00%d\x00%d",
		m.Name, p.Name, opt.WarmupInstrs, opt.MeasureInstrs, opt.MaxCycles,
		m.FaultRate, m.FaultSeed, m.FaultWindowLo, m.FaultWindowHi,
		opt.intervalCount(), m.CkptInterval, m.CkptDepth)
}

func (s *Suite) shardFor(k string) *shard {
	h := fnv.New32a()
	h.Write([]byte(k))
	return &s.shards[h.Sum32()%numShards]
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
// have issued a slot twice.
func digest(m config.Machine, p trace.Profile, opt Options) string {
	return store.Digest("sim.Result.v7", m, p, opt.WarmupInstrs, opt.MeasureInstrs, opt.MaxCycles,
		opt.intervalCount())
}

// Get returns the cached result, running the simulation if needed.
func (s *Suite) Get(ctx context.Context, m config.Machine, p trace.Profile) (Result, error) {
	return s.GetOpt(ctx, m, p, s.opt)
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
	k := key(m, p, opt)
	sh := s.shardFor(k)
	for {
		look := time.Now()
		sh.mu.Lock()
		if res, ok := sh.results[k]; ok {
			sh.mu.Unlock()
			s.observeStage(ctx, "cache_lookup", look)
			s.cacheHits.Add(1)
			return res, false, nil
		}
		if c, ok := sh.inflight[k]; ok {
			sh.mu.Unlock()
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
		sh.inflight[k] = c
		sh.mu.Unlock()
		s.observeStage(ctx, "cache_lookup", look)
		s.cacheMiss.Add(1)

		var ran bool
		c.res, ran, c.err = s.execute(ctx, m, p, opt)
		sh.mu.Lock()
		if c.err == nil {
			sh.results[k] = c.res
		}
		delete(sh.inflight, k)
		sh.mu.Unlock()
		close(c.done)
		return c.res, ran, c.err
	}
}

// execute performs one cache-missing simulation: consult the persistent
// store, otherwise run under the parallelism bound and write back. ran
// reports that the result was simulated rather than read from the store.
func (s *Suite) execute(ctx context.Context, m config.Machine, p trace.Profile, opt Options) (Result, bool, error) {
	var dk string
	if s.disk != nil {
		dk = digest(m, p, opt)
		fetch := time.Now()
		var res Result
		ok, err := s.disk.Get(dk, &res)
		s.observeStage(ctx, "store_fetch", fetch)
		if err == nil && ok {
			s.storeHits.Add(1)
			return res, false, nil
		}
	}
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	case <-ctx.Done():
		return Result{}, false, ctx.Err()
	}
	if s.stages != nil {
		// Layers below the suite (recovery rollbacks) report through the
		// context observer so they feed sim_stage_seconds without importing
		// this package.
		ctx = telemetry.WithStageObserver(ctx, func(stage string, seconds float64) {
			s.stages.With(stage).Observe(seconds)
		})
	}
	res, err := s.simulate(ctx, m, p, opt)
	if err != nil {
		return Result{}, false, err
	}
	s.runs.Add(1)
	if opt.intervalCount() > 1 {
		s.intervalRuns.Add(1)
	}
	if res.Recovery != nil {
		s.recoveryRuns.Add(1)
		s.rollbacks.Add(res.Recovery.Rollbacks)
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

// simulate performs one underlying run, routing fault-campaign trials and
// the fault-free golden runs of recovery machines through the shared
// warmup-checkpoint cache when that is provably equivalent to a cold
// start, and everything else through RunContext.
func (s *Suite) simulate(ctx context.Context, m config.Machine, p trace.Profile, opt Options) (Result, error) {
	// Sharing is sound only for the classic contiguous path with a warmup
	// to share. It applies to machines that inject faults, whose window
	// cannot open during the warmup (FetchSeq runs ahead of the retired
	// count, so the precise bound is rechecked against the built
	// checkpoint below), and to fault-free machines with a checkpoint
	// interval: that is a recovery campaign's golden run, which then
	// builds the checkpoint its trials resume. Other fault-free machines
	// go cold, so a plain sweep pins no checkpoint for the suite's life.
	faultTrial := m.FaultRate > 0 && m.FaultWindowLo >= opt.WarmupInstrs
	recoveryGolden := m.FaultRate == 0 && m.CkptInterval > 0
	if opt.intervalCount() == 1 && opt.WarmupInstrs > 0 && (faultTrial || recoveryGolden) {
		if res, ok, err := s.runFromWarmup(ctx, m, p, opt); err != nil || ok {
			return res, err
		}
	}
	run := time.Now()
	res, err := RunContext(ctx, m, p, opt)
	s.observeStage(ctx, "engine_run", run)
	return res, err
}

// runFromWarmup serves one run from the shared warmup checkpoint. ok
// reports whether sharing applied; on ok == false (checkpoint build
// failed, or its fetch frontier already overlaps a fault window) the
// caller falls back to a cold run.
func (s *Suite) runFromWarmup(ctx context.Context, m config.Machine, p trace.Profile, opt Options) (Result, bool, error) {
	if err := m.Validate(); err != nil {
		return Result{}, false, fmt.Errorf("sim: %w", err)
	}
	// The warmup is fault-free and checkpoint-free regardless of the trial's
	// injection and recovery settings, and the display name tracks those
	// settings — zero all three so one warmup checkpoint serves every trial,
	// every recovery policy and the recovery golden run over the same base
	// machine.
	base := m
	base.Name = ""
	base.FaultRate, base.FaultSeed = 0, 0
	base.FaultWindowLo, base.FaultWindowHi = 0, 0
	base.CkptInterval, base.CkptDepth = 0, 0
	// v3: the machine hash gained the detection-mode-zoo fields, so v2
	// checkpoint keys no longer correspond to any current machine.
	ck := store.Digest("sim.warmup.v3", base, p, opt.WarmupInstrs)

	share := time.Now()
	s.cpMu.Lock()
	entry, ok := s.cps[ck]
	if !ok {
		entry = &cpEntry{}
		s.cps[ck] = entry
	}
	s.cpMu.Unlock()
	entry.once.Do(func() {
		e := core.New(base, trace.New(p))
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
	e.SetFaultConfig(m.FaultRate, m.FaultSeed, m.FaultWindowLo, m.FaultWindowHi)
	st, tr, hung, err := measureOrRecover(ctx, e, m, opt.MeasureInstrs, opt.MaxCycles)
	s.observeStage(ctx, "engine_run", run)
	if err != nil {
		return Result{}, false, err
	}
	s.warmupShares.Add(1)
	return newResult(m, p, opt, st, tr, hung), true, nil
}

// Batch runs every (machine, profile) pair, in parallel, reusing cached
// and in-flight results, and returns them in machines-major order:
// results[i*len(profiles)+j] is machines[i] on profiles[j]. Unlike a
// first-error fan-out, it waits for every worker and returns all
// failures joined (see JoinFanOut), so one bad configuration does not
// hide the others.
func (s *Suite) Batch(ctx context.Context, machines []config.Machine, profiles []trace.Profile) ([]Result, error) {
	type job struct {
		i int // index into out
		m config.Machine
		p trace.Profile
	}
	out := make([]Result, 0, len(machines)*len(profiles))
	var jobs []job
	for _, m := range machines {
		for _, p := range profiles {
			// Read pairs already cached without counting a hit, so a warm
			// batch spawns no goroutines and does not inflate the hit
			// counter; races with concurrent fills are still covered by
			// GetOpt's singleflight.
			k := key(m, p, s.opt)
			sh := s.shardFor(k)
			sh.mu.Lock()
			res, ok := sh.results[k]
			sh.mu.Unlock()
			if !ok {
				jobs = append(jobs, job{len(out), m, p})
			}
			out = append(out, res)
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, len(jobs))
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			res, err := s.GetOpt(ctx, j.m, j.p, s.opt)
			if err != nil {
				errs[i] = fmt.Errorf("%s on %s: %w", j.m.Name, j.p.Name, err)
				return
			}
			out[j.i] = res
		}(i, j)
	}
	wg.Wait()
	if err := JoinFanOut(ctx, errs, func(done, total int) error {
		return fmt.Errorf("sim: batch interrupted: %w", ctx.Err())
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// JoinFanOut reports the outcome of a fan-out whose workers recorded
// their failures in errs (nil for a worker that succeeded). It joins the
// non-nil errors in order; when every worker succeeded it returns nil,
// even if ctx expired in the final window, since the results are fully
// computed. After a cancellation, the errors that are only ctx.Err()
// cascading into outstanding workers collapse into one error built by
// interrupted from the count of workers that succeeded and the total,
// and only the genuine failures are kept beside it.
func JoinFanOut(ctx context.Context, errs []error, interrupted func(done, total int) error) error {
	failed := make([]error, 0, len(errs))
	for _, err := range errs {
		if err != nil {
			failed = append(failed, err)
		}
	}
	if len(failed) == 0 {
		return nil
	}
	ctxErr := ctx.Err()
	if ctxErr == nil {
		return errors.Join(failed...)
	}
	real := make([]error, 0, len(failed))
	for _, err := range failed {
		if !errors.Is(err, ctxErr) {
			real = append(real, err)
		}
	}
	return errors.Join(append(real, interrupted(len(errs)-len(failed), len(errs)))...)
}

// Len reports how many results are cached, summing shard sizes without
// copying any entries — the cheap gauge behind shrecd_results_cached
// (Results would copy the whole cache on every scrape).
func (s *Suite) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += len(sh.results)
		sh.mu.Unlock()
	}
	return n
}

// Results returns a snapshot of every cached result, sorted by machine
// then benchmark for stable output (the shrecd GET /results endpoint).
func (s *Suite) Results() []Result {
	var out []Result
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, r := range sh.results {
			out = append(out, r)
		}
		sh.mu.Unlock()
	}
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

// IPC is a convenience accessor.
func (s *Suite) IPC(ctx context.Context, m config.Machine, p trace.Profile) (float64, error) {
	res, err := s.Get(ctx, m, p)
	if err != nil {
		return 0, err
	}
	return res.IPC(), nil
}

// ClassAverages holds the paper's three harmonic-mean aggregates for one
// benchmark class (integer or floating point).
type ClassAverages struct {
	// All is the harmonic-mean IPC over every profile in the class; High
	// and Low restrict it to the paper's high- and low-IPC groups.
	All, High, Low float64
}

// Averages computes harmonic-mean IPCs over profiles for one machine,
// split into the paper's overall/high-IPC/low-IPC aggregates.
func (s *Suite) Averages(ctx context.Context, m config.Machine, profiles []trace.Profile) (ClassAverages, error) {
	var all, high, low []float64
	for _, p := range profiles {
		res, err := s.Get(ctx, m, p)
		if err != nil {
			return ClassAverages{}, err
		}
		ipc := res.IPC()
		all = append(all, ipc)
		if p.HighIPC {
			high = append(high, ipc)
		} else {
			low = append(low, ipc)
		}
	}
	return ClassAverages{
		All:  stats.HarmonicMean(all),
		High: stats.HarmonicMean(high),
		Low:  stats.HarmonicMean(low),
	}, nil
}

// MeanCPI returns the arithmetic-mean CPI over profiles for one machine.
// CPI is additive across equal instruction counts, so arithmetic means are
// the correct aggregate for factorial analysis (the paper analyzes CPI for
// the same reason).
func (s *Suite) MeanCPI(ctx context.Context, m config.Machine, profiles []trace.Profile) (float64, error) {
	var sum float64
	for _, p := range profiles {
		res, err := s.Get(ctx, m, p)
		if err != nil {
			return 0, err
		}
		sum += res.CPI()
	}
	return sum / float64(len(profiles)), nil
}
