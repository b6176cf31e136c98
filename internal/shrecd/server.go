// Package shrecd implements the HTTP serving layer over the batch
// simulation engine: POST /simulate runs one (machine, benchmark) pair,
// GET /experiments/{name} regenerates one of the paper's tables or
// figures as a typed report (negotiated as JSON, CSV, or text),
// GET /experiments lists the catalog, POST /campaigns starts an
// asynchronous Monte Carlo fault-injection campaign (polled via
// GET /campaigns/{id} for trials done/total and running coverage),
// POST /explorations starts an asynchronous design-space exploration
// (polled via GET /explorations/{id} for the evaluation phase and the
// Pareto frontier), GET /results lists every cached result, and
// GET /metrics exposes the cache counters. All endpoints are backed by
// one sharded, deduplicating sim.Suite, so duplicate in-flight requests
// for the same (machine, benchmark, options) key execute the simulation
// once, and request cancellation propagates into the engine's step loop.
// A bounded worker pool caps concurrently-served simulation requests
// independently of the suite's own run parallelism; campaigns and
// explorations run in the background under the suite's parallelism
// alone. Both are served by one asynchronous-job path (jobs.go): a
// jobKind per kind supplies its name, routes, body limit, cost caps
// (campaigns.go, explorations.go) and engine, and one set of handlers,
// one run function, one journal replay and one watchdog loop serve
// both, each kind tracking its jobs in a bounded table with
// normalized-spec dedup.
package shrecd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/explore"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Config tunes the server.
type Config struct {
	// DefaultOptions are the run lengths used when a request does not
	// override them (zero value: sim.DefaultOptions).
	DefaultOptions sim.Options
	// MaxConcurrent bounds simultaneously-served simulation requests
	// (<=0 means 16).
	MaxConcurrent int
	// MaxInstrs caps request-supplied warmup+measure lengths so one
	// request cannot monopolize the pool (default 10M, <0 disables).
	MaxInstrs int64
	// MaxTrials caps the trial count of POST /campaigns requests and the
	// per-point coverage trials of POST /explorations (<=0 means 10000).
	MaxTrials int
	// MaxCampaigns bounds the campaign job table (<=0 means 64). When it
	// fills, the oldest finished job is evicted; with every slot running,
	// new campaigns are rejected with 429.
	MaxCampaigns int
	// MaxExplorations bounds the exploration job table the same way
	// (<=0 means 16).
	MaxExplorations int
	// MaxPoints caps the space size and full-fidelity budget of
	// POST /explorations requests (<=0 means 1024).
	MaxPoints int
	// Store, when non-nil, is the result store: NewWith attaches it to the
	// suite, so every simulation result persists and killed campaigns and
	// explorations resume across server restarts.
	Store *store.Store
	// Journal, when non-nil, is the write-ahead job journal: accepted
	// campaign/exploration specs are journaled before they run, and a
	// restarted server replays pending entries, re-adopting every job a
	// crash interrupted. Open it with store.SyncAlways so accepted jobs
	// survive power loss, and keep it separate from Store (different
	// durability needs, and journal compaction churn should not touch
	// result segments).
	Journal *store.Store
	// ShedAfter bounds how long a POST /simulate may queue for a worker
	// slot before the server sheds it with 429 + Retry-After. Status and
	// metrics reads never queue, so a saturated server stays observable.
	// Zero means 5s; negative queues indefinitely (pre-shedding
	// behavior).
	ShedAfter time.Duration
	// Watchdog is the no-progress timeout after which a running
	// campaign/exploration job is cancelled and marked failed instead of
	// occupying its table slot forever (<=0 disables the watchdog).
	Watchdog time.Duration
	// Registry, when non-nil, is the metrics registry the server renders
	// at GET /metrics and attaches to the suite's stage histograms; nil
	// builds a private one. Share a registry to merge the server's
	// families with a host process's own.
	Registry *telemetry.Registry
	// Logger receives the server's structured logs (request access lines
	// at debug, job lifecycle at info, watchdog kills at warn); nil
	// discards them.
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under GET /debug/pprof/ on the
	// server's own mux (never the default mux), for CPU/heap profiling of
	// a live server. Off by default: the endpoints expose internals and
	// belong behind the -pprof flag.
	EnablePprof bool
}

// Server serves simulation, experiment, and fault-campaign requests over
// one shared result cache.
type Server struct {
	cfg   Config
	sims  *sim.Suite
	exp   *experiments.Suite
	camp  *campaign.Engine
	expl  *explore.Engine
	sem   chan struct{}
	start time.Time

	// baseCtx bounds background jobs (campaigns, explorations) to the
	// server's lifetime (Close cancels it). Each job kind serves its own
	// endpoints and tracks its jobs in its table; kinds indexes both by
	// name for journal replay and the watchdog.
	baseCtx      context.Context
	baseStop     context.CancelFunc
	campaigns    *jobKind[campaign.Spec, campaign.Progress, *campaign.Result]
	explorations *jobKind[explore.Spec, explore.Progress, *explore.Result]
	kinds        map[string]asyncKind

	// journal is the write-ahead job journal (nil-safe no-op when
	// Config.Journal is unset); the counters feed /metrics.
	journal         *jobJournal
	journalReplayed atomic.Uint64 // pending entries scanned at startup
	jobsReadopted   atomic.Uint64 // journaled jobs restarted at startup
	shedRequests    atomic.Uint64 // requests rejected for load (429)
	jobsWedged      atomic.Uint64 // jobs the watchdog marked failed

	// Telemetry: every family /metrics serves lives in reg (the counters
	// above are exported through CounterFunc samplers, so the atomics stay
	// the single source of truth); httpm wraps the mux with per-route
	// request metrics and request IDs.
	reg         *telemetry.Registry
	log         *slog.Logger
	httpm       *telemetry.HTTPMetrics
	jobsRunning *telemetry.Gauge        // shrecd_jobs_running
	jobsTotal   *telemetry.CounterVec   // shrecd_jobs_total{kind, outcome}
	jobDur      *telemetry.HistogramVec // shrecd_job_duration_seconds{kind}
	jobPhase    *telemetry.HistogramVec // shrecd_job_phase_seconds{kind, phase}
}

// New builds a server with a fresh sim.Suite.
func New(cfg Config) *Server {
	if cfg.DefaultOptions == (sim.Options{}) {
		cfg.DefaultOptions = sim.DefaultOptions()
	}
	return NewWith(cfg, sim.NewSuite(cfg.DefaultOptions))
}

// NewWith builds a server over an existing simulation suite (so callers
// can share the cache with other drivers). A non-nil cfg.Store is
// attached to the suite.
func NewWith(cfg Config, sims *sim.Suite) *Server {
	if cfg.DefaultOptions == (sim.Options{}) {
		cfg.DefaultOptions = sims.Options()
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 16
	}
	if cfg.MaxInstrs == 0 {
		cfg.MaxInstrs = 10_000_000
	}
	if cfg.MaxTrials <= 0 {
		cfg.MaxTrials = 10_000
	}
	if cfg.MaxCampaigns <= 0 {
		cfg.MaxCampaigns = 64
	}
	if cfg.MaxExplorations <= 0 {
		cfg.MaxExplorations = 16
	}
	if cfg.MaxPoints <= 0 {
		cfg.MaxPoints = 1024
	}
	// The cap bounds per-request overrides; the operator-configured
	// defaults must always be servable, so raise the cap to cover them.
	if sum := cfg.DefaultOptions.WarmupInstrs + cfg.DefaultOptions.MeasureInstrs; cfg.MaxInstrs > 0 && sum > uint64(cfg.MaxInstrs) {
		cfg.MaxInstrs = int64(sum)
	}
	if cfg.ShedAfter == 0 {
		cfg.ShedAfter = 5 * time.Second
	}
	if cfg.Store != nil {
		sims.WithStore(cfg.Store)
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	if cfg.Logger == nil {
		cfg.Logger = telemetry.NopLogger()
	}
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		sims:     sims,
		exp:      experiments.NewSuite(sims),
		camp:     campaign.New(sims),
		expl:     explore.New(sims),
		sem:      make(chan struct{}, cfg.MaxConcurrent),
		start:    time.Now(),
		baseCtx:  ctx,
		baseStop: stop,
		journal:  newJobJournal(cfg.Journal),
		reg:      cfg.Registry,
		log:      cfg.Logger,
	}
	s.campaigns, s.explorations = s.campaignKind(), s.explorationKind()
	s.kinds = map[string]asyncKind{s.campaigns.kind: s.campaigns, s.explorations.kind: s.explorations}
	sims.WithTelemetry(s.reg)
	s.registerMetrics()
	s.httpm = telemetry.NewHTTPMetrics(s.reg, "shrecd", s.log)
	// Crash recovery: re-adopt every journaled job a previous process
	// never finished, before the listener can accept new work.
	s.replayJournal()
	if cfg.Watchdog > 0 {
		go s.watchdogLoop()
	}
	return s
}

// registerMetrics declares every /metrics family on the registry. The
// suite's counters (one shrecd_sim_<name>_total family per sim.Counters
// field) and the server's own atomics are exported through Func samplers
// read at scrape time, so the hot paths keep their plain atomic
// increments; the job and HTTP histograms are registered here and
// observed by the job goroutines and middleware.
func (s *Server) registerMetrics() {
	r := s.reg
	for _, f := range sim.CounterFields {
		r.CounterFunc("shrecd_sim_"+f.Name+"_total", f.Help,
			func() uint64 { return f.Value(s.sims.Counters()) })
	}
	// Shard sizes are summed without copying any results, so scrapes stay
	// cheap no matter how large the cache grows.
	r.GaugeFunc("shrecd_results_cached",
		"Results currently held in the in-memory cache.",
		func() float64 { return float64(s.sims.Len()) })
	r.GaugeFunc("shrecd_uptime_seconds",
		"Seconds since server start.",
		func() float64 { return time.Since(s.start).Seconds() })
	r.CounterFunc("shrecd_store_quarantined_total",
		"Corrupt store records detected and quarantined (result store + journal).",
		func() uint64 {
			var q uint64
			if s.cfg.Store != nil {
				q += s.cfg.Store.Stats().Quarantined
			}
			if s.journal != nil {
				q += s.journal.st.Stats().Quarantined
			}
			return q
		})
	r.CounterFunc("shrecd_journal_replayed_total",
		"Pending journal entries replayed at startup.", s.journalReplayed.Load)
	r.CounterFunc("shrecd_jobs_readopted_total",
		"Journaled jobs successfully restarted at startup.", s.jobsReadopted.Load)
	r.CounterFunc("shrecd_shed_requests_total",
		"Requests rejected with 429 for load (queue-wait expired or job table saturated).", s.shedRequests.Load)
	r.CounterFunc("shrecd_jobs_wedged_total",
		"Jobs the watchdog cancelled for reporting no progress.", s.jobsWedged.Load)
	r.GaugeFunc("shrecd_journal_depth",
		"Journaled jobs not yet finished.",
		func() float64 { return float64(s.journal.depth()) })
	s.jobsRunning = r.Gauge("shrecd_jobs_running",
		"Campaign and exploration jobs currently executing.")
	s.jobsTotal = r.CounterVec("shrecd_jobs_total",
		"Asynchronous jobs finished, by kind and outcome (done, failed, interrupted).",
		"kind", "outcome")
	s.jobDur = r.HistogramVec("shrecd_job_duration_seconds",
		"Asynchronous job run durations by kind, from goroutine start to completion.",
		telemetry.WideTimeBuckets(), "kind")
	s.jobPhase = r.HistogramVec("shrecd_job_phase_seconds",
		"Per-phase job timings by kind: queued, golden_run, trial, baseline_run, screen_eval, full_eval, and the sim stages recorded under the job span.",
		telemetry.DefTimeBuckets(), "kind", "phase")
}

// startJobTelemetry instruments one job goroutine: a span attached to
// the job (for the status JSON phase breakdown) and teed into
// shrecd_job_phase_seconds, the queue wait as the first phase, the
// running gauge, and the lifecycle log lines. It returns the context to
// run under (span attached, so campaign/explore/sim layers record into
// it) and a done hook for the job's terminal error.
func (s *Server) startJobTelemetry(ctx context.Context, kind, id string, job interface {
	setSpan(*telemetry.Span)
},
	queued time.Time) (context.Context, func(error)) {
	span := telemetry.NewSpan().Tee(func(phase string, seconds float64) {
		s.jobPhase.With(kind, phase).Observe(seconds)
	})
	span.Record("queued", time.Since(queued))
	job.setSpan(span)
	s.jobsRunning.Add(1)
	s.log.Info("job started", "kind", kind, "job_id", id)
	runStart := time.Now()
	return telemetry.WithSpan(ctx, span), func(err error) {
		elapsed := time.Since(runStart)
		s.jobsRunning.Add(-1)
		s.jobDur.With(kind).Observe(elapsed.Seconds())
		outcome := "done"
		lv := slog.LevelInfo
		switch {
		case s.interrupted(err):
			outcome = "interrupted"
		case err != nil:
			outcome = "failed"
			lv = slog.LevelWarn
		}
		s.jobsTotal.With(kind, outcome).Inc()
		attrs := []any{"kind", kind, "job_id", id, "outcome", outcome, "elapsed_s", elapsed.Seconds()}
		if err != nil {
			attrs = append(attrs, "error", err.Error())
		}
		s.log.Log(context.Background(), lv, "job finished", attrs...)
	}
}

// watchdogLoop periodically fails jobs that stopped reporting progress,
// so a wedged engine cannot pin a table slot (and its journal entry)
// forever. Killed jobs are journaled as failed: re-adopting a job that
// already wedged once would just wedge the next process too.
func (s *Server) watchdogLoop() {
	tick := s.cfg.Watchdog / 4
	if tick < time.Second {
		tick = time.Second
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-t.C:
			for name, k := range s.kinds {
				for _, id := range k.failWedged(s.cfg.Watchdog) {
					s.jobsWedged.Add(1)
					s.log.Warn("watchdog killed wedged job", "kind", name, "job_id", id)
					s.journal.finish(name, id, fmt.Errorf("watchdog: wedged"))
				}
			}
		}
	}
}

// Close stops the server's background jobs (campaigns and explorations).
// In-flight work halts at the next engine checkpoint; finished trials
// and point evaluations have already been persisted (when a store is
// attached), so a restarted server resumes them.
func (s *Server) Close() {
	s.baseStop()
}

// Sims exposes the underlying suite (metrics, tests).
func (s *Server) Sims() *sim.Suite { return s.sims }

// Registry exposes the server's metrics registry (embedders, tests).
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// Handler returns the server's routing table, wrapped in the HTTP
// metrics middleware (per-route request counts, latency histograms,
// in-flight gauge, request IDs, access log). With EnablePprof set, the
// net/http/pprof endpoints mount under /debug/pprof/ on this mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /simulate", s.handleSimulate)
	mux.HandleFunc("GET /experiments", s.handleCatalog)
	mux.HandleFunc("GET /experiments/{name}", s.handleExperiment)
	s.campaigns.register(mux)
	s.explorations.register(mux)
	mux.HandleFunc("GET /results", s.handleResults)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.cfg.EnablePprof {
		// Index serves the named profiles (heap, goroutine, ...) via the
		// trailing-slash pattern; the four below need their own handlers.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s.httpm.Wrap(mux)
}

// errShed marks a request rejected by load shedding (the bounded queue
// wait expired before a worker slot freed); handlers map it to 429 with
// Retry-After, distinct from 503 for a client deadline expiring.
var errShed = errors.New("server saturated: no worker slot freed within the shed window")

// acquire takes a worker-pool slot. When the pool is saturated the
// request queues at most ShedAfter before being shed with errShed, so a
// flood of expensive POSTs cannot pile up unbounded waiters — status and
// metrics reads never pass through here and stay responsive regardless.
// A negative ShedAfter queues until the client's context expires.
func (s *Server) acquire(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
		return nil
	default:
	}
	if s.cfg.ShedAfter < 0 {
		select {
		case s.sem <- struct{}{}:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	t := time.NewTimer(s.cfg.ShedAfter)
	defer t.Stop()
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		s.shedRequests.Add(1)
		return errShed
	}
}

func (s *Server) release() { <-s.sem }

// queueError writes the response for a failed acquire: shed requests get
// 429 + Retry-After (back off and retry), client-deadline expiries get
// 503 (the client already gave up waiting).
func queueError(w http.ResponseWriter, err error) {
	if errors.Is(err, errShed) {
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, err)
		return
	}
	httpError(w, http.StatusServiceUnavailable, fmt.Errorf("queued past deadline: %w", err))
}

// simulateRequest is the POST /simulate body.
type simulateRequest struct {
	Machine   string `json:"machine"`
	Benchmark string `json:"benchmark"`
	// Optional per-request run lengths; zero means the server default.
	WarmupInstrs  uint64 `json:"warmup_instrs"`
	MeasureInstrs uint64 `json:"measure_instrs"`
}

// simulateResponse is the POST /simulate reply: the identifying fields
// flattened once, plus the run's raw counters (not the full sim.Result,
// which would duplicate every identifying field).
type simulateResponse struct {
	Machine   string      `json:"machine"`
	Benchmark string      `json:"benchmark"`
	Class     string      `json:"class"`
	HighIPC   bool        `json:"high_ipc"`
	IPC       float64     `json:"ipc"`
	CPI       float64     `json:"cpi"`
	Options   sim.Options `json:"options"`
	Stats     core.Stats  `json:"stats"`
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	// A simulate request is a few short fields; refuse oversized bodies
	// before the decoder buffers them.
	r.Body = http.MaxBytesReader(w, r.Body, 64<<10)
	var req simulateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	m, err := config.ByName(req.Machine)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	p, err := workload.ByName(req.Benchmark)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	opt := s.cfg.DefaultOptions
	if req.WarmupInstrs > 0 {
		opt.WarmupInstrs = req.WarmupInstrs
	}
	if req.MeasureInstrs > 0 {
		opt.MeasureInstrs = req.MeasureInstrs
	}
	// Bound each length before summing so huge values cannot wrap the
	// uint64 sum (or the int64 conversion) past the cap.
	if cap := s.cfg.MaxInstrs; cap > 0 {
		if opt.WarmupInstrs > uint64(cap) || opt.MeasureInstrs > uint64(cap) ||
			opt.WarmupInstrs+opt.MeasureInstrs > uint64(cap) {
			httpError(w, http.StatusBadRequest,
				fmt.Errorf("requested instruction count exceeds the server cap of %d", cap))
			return
		}
	}

	if err := s.acquire(r.Context()); err != nil {
		queueError(w, err)
		return
	}
	defer s.release()

	res, err := s.sims.GetOpt(r.Context(), m, p, opt)
	if err != nil {
		httpError(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, simulateResponse{
		Machine:   res.Machine,
		Benchmark: res.Benchmark,
		Class:     res.Class.String(),
		HighIPC:   res.HighIPC,
		IPC:       res.IPC(),
		CPI:       res.CPI(),
		Options:   res.Options,
		Stats:     res.Stats,
	})
}

// handleCatalog lists every runnable experiment with its title.
func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"experiments": experiments.Catalog(),
	})
}

// pickFormat resolves the response encoding of GET /experiments/{name}:
// an explicit ?format=text|json|csv query wins, then the Accept header,
// then JSON.
func pickFormat(r *http.Request) (report.Format, error) {
	if f := r.URL.Query().Get("format"); f != "" {
		return report.ParseFormat(f)
	}
	for _, part := range strings.Split(r.Header.Get("Accept"), ",") {
		mediaType, _, _ := strings.Cut(strings.TrimSpace(part), ";")
		switch mediaType {
		case "application/json":
			return report.FormatJSON, nil
		case "text/csv":
			return report.FormatCSV, nil
		case "text/plain":
			return report.FormatText, nil
		}
	}
	return report.FormatJSON, nil
}

// runExperiment produces the named experiment's report under the worker
// pool, writing the error response itself when it fails.
func (s *Server) runExperiment(w http.ResponseWriter, r *http.Request, name string) (*report.Report, bool) {
	if !experiments.Known(name) {
		httpError(w, http.StatusNotFound,
			fmt.Errorf("unknown experiment %q (have %v)", name, experiments.Names()))
		return nil, false
	}
	if err := s.acquire(r.Context()); err != nil {
		queueError(w, err)
		return nil, false
	}
	defer s.release()

	rep, err := s.exp.Run(r.Context(), name)
	if err != nil {
		httpError(w, errStatus(err), err)
		return nil, false
	}
	return rep, true
}

// handleExperiment serves GET /experiments/{name}: the typed report,
// rendered per content negotiation (?format= or Accept; default JSON).
func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	format, err := pickFormat(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	rep, ok := s.runExperiment(w, r, r.PathValue("name"))
	if !ok {
		return
	}
	switch format {
	case report.FormatJSON:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_ = rep.JSON(w)
	case report.FormatCSV:
		w.Header().Set("Content-Type", "text/csv")
		w.WriteHeader(http.StatusOK)
		_ = rep.CSV(w)
	case report.FormatText:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_ = rep.Text(w)
	}
}

// resultSummary is one GET /results row. Run lengths are included so
// rows for the same (machine, benchmark) at different request-scoped
// scales stay distinguishable.
type resultSummary struct {
	Machine       string  `json:"machine"`
	Benchmark     string  `json:"benchmark"`
	WarmupInstrs  uint64  `json:"warmup_instrs"`
	MeasureInstrs uint64  `json:"measure_instrs"`
	IPC           float64 `json:"ipc"`
	CPI           float64 `json:"cpi"`
	Cycles        int64   `json:"cycles"`
	Retired       uint64  `json:"retired"`
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	cached := s.sims.Results()
	out := make([]resultSummary, len(cached))
	for i, res := range cached {
		out[i] = resultSummary{
			Machine:       res.Machine,
			Benchmark:     res.Benchmark,
			WarmupInstrs:  res.Options.WarmupInstrs,
			MeasureInstrs: res.Options.MeasureInstrs,
			IPC:           res.IPC(),
			CPI:           res.CPI(),
			Cycles:        res.Stats.Cycles,
			Retired:       res.Stats.Retired,
		}
	}
	writeJSON(w, http.StatusOK, struct {
		Count int `json:"count"`
		sim.Counters
		Results []resultSummary `json:"results"`
	}{len(out), s.sims.Counters(), out})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	health := map[string]any{
		"status":         "ok",
		"uptime_s":       time.Since(s.start).Seconds(),
		"max_concurrent": s.cfg.MaxConcurrent,
		"shed_requests":  s.shedRequests.Load(),
	}
	c := s.sims.Counters()
	for _, f := range sim.CounterFields {
		health[f.Name] = f.Value(c)
	}
	// Store integrity: a scrape that shows quarantined records climbing
	// (or compaction stalled) flags a disk going bad before reads fail.
	if s.cfg.Store != nil {
		health["store"] = s.cfg.Store.Stats()
	}
	if s.journal != nil {
		health["journal"] = map[string]any{
			"depth":     s.journal.depth(),
			"replayed":  s.journalReplayed.Load(),
			"readopted": s.jobsReadopted.Load(),
			"wedged":    s.jobsWedged.Load(),
			"store":     s.journal.st.Stats(),
		}
	}
	writeJSON(w, http.StatusOK, health)
}

// handleMetrics serves GET /metrics: the whole exposition is rendered
// from the telemetry registry — suite counters, cache gauges, journal
// state, HTTP route latencies, job durations and phases, and sim stage
// histograms — in Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", telemetry.ContentType)
	_ = s.reg.WritePrometheus(w)
}

// writeJSON is the one encoder behind every shrecd JSON response: v is
// marshaled once, compactly, and written as one line with an explicit
// Content-Length. Encoding completes before the header goes out, so a
// value that cannot be encoded becomes a 500 rather than a truncated
// 200. Pretty-print on the client (`| jq .`) when reading by eye.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		status = http.StatusInternalServerError
		body, _ = json.Marshal(map[string]string{"error": fmt.Sprintf("encoding response: %v", err)})
	}
	body = append(body, '\n')
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// errStatus classifies a simulation error: cancellation/deadline errors
// become 499 (client closed request); anything else — including engine
// failures that happen to race a client disconnect — stays 500 so model
// bugs are never misfiled as disconnects.
func errStatus(err error) int {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return 499
	}
	return http.StatusInternalServerError
}

// httpError writes {"error": err} through writeJSON.
func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
