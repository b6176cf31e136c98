package shrecd

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// The asynchronous-job path behind POST /campaigns and
// POST /explorations, written once for both kinds. A jobKind describes
// one kind — its name, routes, request limit, spec preparation and
// engine — and serves its start/get/list endpoints, runs its jobs, and
// re-adopts them from the journal. Underneath, a bounded job table keyed
// by normalized-spec digest makes duplicate submissions join the running
// (or finished) job, retries a failed job in place on a fresh POST,
// evicts the oldest finished job when the table fills, and rejects new
// work while every slot is running (the start handler maps that to 429).

// Job states.
const (
	jobRunning = "running"
	jobDone    = "done"
	jobFailed  = "failed"
)

// asyncJob tracks one asynchronous job from POST to completion: spec S,
// progress snapshots P, and result R (a pointer type; nil until done).
type asyncJob[S, P, R any] struct {
	id      string
	spec    S
	started time.Time

	mu       sync.Mutex
	state    string
	progress P
	result   R
	errText  string
	finished time.Time
	lastBeat time.Time          // last progress report, for the watchdog
	cancel   context.CancelFunc // stops the job's context (watchdog kill)
	span     *telemetry.Span    // phase timings; nil until the run starts
}

// setProgress records a progress snapshot and refreshes the watchdog
// heartbeat.
func (j *asyncJob[S, P, R]) setProgress(p P) {
	j.mu.Lock()
	j.progress = p
	j.lastBeat = time.Now()
	j.mu.Unlock()
}

// setCancel attaches the job's context cancel so the watchdog can stop
// a wedged job's work, not just relabel it.
func (j *asyncJob[S, P, R]) setCancel(c context.CancelFunc) {
	j.mu.Lock()
	j.cancel = c
	j.mu.Unlock()
}

// setSpan attaches the job's telemetry span; status snapshots read its
// phase breakdown from then on.
func (j *asyncJob[S, P, R]) setSpan(sp *telemetry.Span) {
	j.mu.Lock()
	j.span = sp
	j.mu.Unlock()
}

// finish records the job's outcome. It is idempotent — the first
// outcome wins — so a watchdog kill racing the job's own completion
// cannot flip a finished job's state. Reports whether this call settled
// the job.
func (j *asyncJob[S, P, R]) finish(res R, err error) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != jobRunning {
		return false
	}
	j.finished = time.Now()
	if err != nil {
		j.state = jobFailed
		j.errText = err.Error()
		return true
	}
	j.state = jobDone
	j.result = res
	return true
}

// jobSnapshot is a consistent read of a job's mutable fields.
type jobSnapshot[P, R any] struct {
	State    string
	Progress P
	Result   R
	Err      string
	ElapsedS float64
	Phases   []telemetry.PhaseStat
}

// snapshot reads the job under its lock.
func (j *asyncJob[S, P, R]) snapshot() jobSnapshot[P, R] {
	j.mu.Lock()
	span := j.span
	end := j.finished
	if end.IsZero() {
		end = time.Now()
	}
	snap := jobSnapshot[P, R]{
		State:    j.state,
		Progress: j.progress,
		Result:   j.result,
		Err:      j.errText,
		ElapsedS: end.Sub(j.started).Seconds(),
	}
	j.mu.Unlock()
	// Breakdown takes the span's own lock; nil spans return nil.
	snap.Phases = span.Breakdown()
	return snap
}

// jobTable is a bounded map of asynchronous jobs keyed by
// normalized-spec digest. All methods are safe for concurrent use.
type jobTable[S, P, R any] struct {
	kind string // "campaign", "exploration": error text only
	max  int

	mu   sync.Mutex
	jobs map[string]*asyncJob[S, P, R]
}

// newJobTable builds a table bounded at max jobs.
func newJobTable[S, P, R any](kind string, max int) *jobTable[S, P, R] {
	return &jobTable[S, P, R]{kind: kind, max: max,
		jobs: make(map[string]*asyncJob[S, P, R])}
}

// startOrJoin resolves the job for id: an existing live job is joined
// (started false); a failed job is replaced in its own slot by a fresh
// one, so a retrying POST resumes it from whatever the store kept
// (started true); a new id reserves a slot, evicting the oldest finished
// job when the table is full. With every slot running, err is non-nil
// and the caller must reject the request (429).
func (t *jobTable[S, P, R]) startOrJoin(id string, spec S) (job *asyncJob[S, P, R], started bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if j, ok := t.jobs[id]; ok {
		j.mu.Lock()
		failed := j.state == jobFailed
		j.mu.Unlock()
		if !failed {
			return j, false, nil
		}
		// Retry in place: reuse the failed job's slot.
	} else if !t.reserveSlotLocked() {
		return nil, false, fmt.Errorf("%s job table full (%d running); retry when one finishes", t.kind, t.max)
	}
	now := time.Now()
	j := &asyncJob[S, P, R]{id: id, spec: spec, started: now, state: jobRunning, lastBeat: now}
	t.jobs[id] = j
	return j, true, nil
}

// reserveSlotLocked bounds the table (t.mu held): when full, the oldest
// finished job is evicted to make room — its persisted records outlive
// the slot, so its work remains resumable by a fresh POST. With every
// slot occupied by a running job the table cannot shrink.
func (t *jobTable[S, P, R]) reserveSlotLocked() bool {
	if len(t.jobs) < t.max {
		return true
	}
	var oldest *asyncJob[S, P, R]
	for _, j := range t.jobs {
		j.mu.Lock()
		done := j.state != jobRunning
		j.mu.Unlock()
		if done && (oldest == nil || j.started.Before(oldest.started)) {
			oldest = j
		}
	}
	if oldest == nil {
		return false
	}
	delete(t.jobs, oldest.id)
	return true
}

// failWedged sweeps the table for running jobs whose last progress
// report is older than timeout, cancels their work, and marks them
// failed so their slot can be reclaimed (and a fresh POST can retry
// them from whatever the store kept). Returns the ids it killed.
func (t *jobTable[S, P, R]) failWedged(timeout time.Duration) []string {
	t.mu.Lock()
	jobs := make([]*asyncJob[S, P, R], 0, len(t.jobs))
	for _, j := range t.jobs {
		jobs = append(jobs, j)
	}
	t.mu.Unlock()

	var killed []string
	cutoff := time.Now().Add(-timeout)
	for _, j := range jobs {
		j.mu.Lock()
		wedged := j.state == jobRunning && j.lastBeat.Before(cutoff)
		cancel := j.cancel
		j.mu.Unlock()
		if !wedged {
			continue
		}
		if cancel != nil {
			cancel()
		}
		var zero R
		if j.finish(zero, fmt.Errorf("watchdog: no progress in %v; job marked wedged", timeout)) {
			killed = append(killed, j.id)
		}
	}
	return killed
}

// get returns the job for id.
func (t *jobTable[S, P, R]) get(id string) (*asyncJob[S, P, R], bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.jobs[id]
	return j, ok
}

// all returns every job, newest first.
func (t *jobTable[S, P, R]) all() []*asyncJob[S, P, R] {
	t.mu.Lock()
	jobs := make([]*asyncJob[S, P, R], 0, len(t.jobs))
	for _, j := range t.jobs {
		jobs = append(jobs, j)
	}
	t.mu.Unlock()
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].started.After(jobs[b].started) })
	return jobs
}

// reporter is the result constraint of a job kind: a pointer type (nil
// until the job is done) whose finished value renders as a typed report.
type reporter interface {
	comparable
	Report() *report.Report
}

// asyncKind is the kind-independent face of a jobKind: journal replay
// finds a kind by name and re-adopts its entries through it, and the
// watchdog sweeps every kind's table through it.
type asyncKind interface {
	readopt(e journalEntry) error
	failWedged(timeout time.Duration) []string
}

// jobKind describes one asynchronous job kind over spec S, progress P
// and result R, and serves it. The embedded table's kind string is the
// kind's name: the journal kind, the metrics kind label, the job-id
// domain, and the noun in error texts.
type jobKind[S, P any, R reporter] struct {
	*jobTable[S, P, R]
	srv     *Server
	prefix  string // route prefix: "/campaigns", "/explorations"
	maxBody int64  // POST body limit in bytes
	// prepare normalizes a decoded request spec and applies the kind's
	// cost caps; any error is the client's (400).
	prepare func(raw S) (S, error)
	// run is the engine: it drives one job to its result on the server's
	// suite, reporting progress snapshots as it goes.
	run func(ctx context.Context, sims *sim.Suite, spec S, progress func(P)) (R, error)
	// status, when set, adds kind-specific fields to the status of a
	// finished job.
	status func(res R, st *jobStatus[S, P])
}

// jobStatus is the GET {prefix}/{id} (and list-entry) shape.
type jobStatus[S, P any] struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Spec  S      `json:"spec"`
	// Progress carries the kind's progress snapshot: trials done/total
	// with the running outcome counts and Wilson-bounded coverage for a
	// campaign, the evaluation phase and evaluations done/total for an
	// exploration, and resume provenance for both.
	Progress P      `json:"progress"`
	Error    string `json:"error,omitempty"`
	// Phases is the job's accumulated phase timing breakdown (queue wait,
	// the kind's own phases, and the sim stages underneath), in
	// first-recorded order.
	Phases []telemetry.PhaseStat `json:"phases,omitempty"`
	// Frontier summarizes a finished exploration: the Pareto-efficient
	// point specs in space order. Campaigns never set it.
	Frontier []string `json:"frontier,omitempty"`
	// Report is the typed report, present once the job is done.
	Report    json.RawMessage `json:"report,omitempty"`
	StartedAt time.Time       `json:"started_at"`
	ElapsedS  float64         `json:"elapsed_s"`
}

// jobID derives a job's identity from its normalized spec, so POSTing
// the same spec twice — defaults spelled out or omitted — joins the
// running (or finished) job instead of spawning a duplicate.
func jobID(kind string, spec any) string {
	return store.Digest("shrecd."+kind+".v1", spec)[:16]
}

// register mounts the kind's start, list and get routes.
func (k *jobKind[S, P, R]) register(mux *http.ServeMux) {
	mux.HandleFunc("POST "+k.prefix, k.handleStart)
	mux.HandleFunc("GET "+k.prefix, k.handleList)
	mux.HandleFunc("GET "+k.prefix+"/{id}", k.handleGet)
}

// statusOf snapshots the job for serving.
func (k *jobKind[S, P, R]) statusOf(j *asyncJob[S, P, R], withReport bool) jobStatus[S, P] {
	snap := j.snapshot()
	st := jobStatus[S, P]{
		ID:        j.id,
		State:     snap.State,
		Spec:      j.spec,
		Progress:  snap.Progress,
		Error:     snap.Err,
		Phases:    snap.Phases,
		StartedAt: j.started,
		ElapsedS:  snap.ElapsedS,
	}
	var none R
	if snap.Result != none {
		if k.status != nil {
			k.status(snap.Result, &st)
		}
		if withReport {
			if raw, err := json.Marshal(snap.Result.Report()); err == nil {
				st.Report = raw
			}
		}
	}
	return st
}

// handleStart serves POST {prefix}: decode and prepare the spec, then
// start (or join) the asynchronous job. Preparing first means statically
// impossible specs (unknown machine or benchmark, bad rate or window)
// fail with 400 instead of burning a job slot on a run that can only
// fail, the cost caps apply to the values as they will run (a zero
// trial count defaults to one that must not slip past an operator cap
// below the default), and the job id hashes the normalized spec so
// spelled-out defaults and omitted ones join the same job. The response
// is 202 with the job id and a polling URL; the job runs detached from
// the request context under the server's lifetime context, bounded by
// the suite's simulation parallelism rather than the request worker
// pool.
func (k *jobKind[S, P, R]) handleStart(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, k.maxBody)
	var raw S
	if err := json.NewDecoder(r.Body).Decode(&raw); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	spec, err := k.prepare(raw)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}

	id := jobID(k.kind, spec)
	job, started, err := k.startOrJoin(id, spec)
	if err != nil {
		k.srv.shedRequests.Add(1)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, err)
		return
	}
	if started {
		// Journal before the goroutine starts: once the 202 leaves, the
		// accepted job survives a crash. A journal write failure degrades
		// to the pre-journal behavior (the job runs, but is not resumed
		// after a crash) rather than rejecting the request.
		_ = k.srv.journal.record(k.kind, id, job.spec)
		go k.runJob(job)
	}
	writeJSON(w, http.StatusAccepted, map[string]any{
		"id": id, "state": job.snapshot().State, "url": k.prefix + "/" + id,
	})
}

// runJob drives one job to completion under its own cancelable child of
// the server's lifetime context (so the watchdog can stop just this
// job). The journal entry is settled only when the job finished on
// purpose: a run cut short by server shutdown stays pending, so the next
// process re-adopts it — exactly what a kill -9 leaves behind.
func (k *jobKind[S, P, R]) runJob(job *asyncJob[S, P, R]) {
	s := k.srv
	ctx, cancel := context.WithCancel(s.baseCtx)
	job.setCancel(cancel)
	defer cancel()
	ctx, done := s.startJobTelemetry(ctx, k.kind, job.id, job, job.started)
	res, err := k.run(ctx, s.sims, job.spec, job.setProgress)
	done(err)
	if job.finish(res, err) && !s.interrupted(err) {
		s.journal.finish(k.kind, job.id, err)
	}
}

// handleGet serves GET {prefix}/{id}: the job status with progress, plus
// the typed report once done. ?format=text|csv renders just the finished
// report instead (409 while still running).
func (k *jobKind[S, P, R]) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := k.get(id)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown %s %q", k.kind, id))
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "":
		writeJSON(w, http.StatusOK, k.statusOf(job, true))
	case "text", "csv":
		snap := job.snapshot()
		var none R
		if snap.Result == none {
			httpError(w, http.StatusConflict,
				fmt.Errorf("%s %q is %s; no report yet", k.kind, id, snap.State))
			return
		}
		rep := snap.Result.Report()
		if format == "csv" {
			w.Header().Set("Content-Type", "text/csv")
			_ = rep.CSV(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = rep.Text(w)
	default:
		httpError(w, http.StatusBadRequest, fmt.Errorf("unknown format %q (have text, csv)", format))
	}
}

// handleList serves GET {prefix}: every job, newest first, without the
// (potentially large) reports, under the key named by the route
// ("campaigns", "explorations").
func (k *jobKind[S, P, R]) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := k.all()
	out := make([]jobStatus[S, P], len(jobs))
	for i, j := range jobs {
		out[i] = k.statusOf(j, false)
	}
	writeJSON(w, http.StatusOK, map[string]any{"count": len(out), strings.TrimPrefix(k.prefix, "/"): out})
}
