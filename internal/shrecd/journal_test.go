package shrecd

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/explore"
	"repro/internal/sim"
	"repro/internal/store"
)

// crashSpec is the campaign used by the kill-and-rejoin tests: enough
// trials that the server can be killed mid-run with work both behind
// and ahead of it.
const crashSpec = `{"machine":"shrec","benchmark":"crafty","trials":256,"fault_rate":2e-4,"seed":11}`

// openJournalStores opens the result store and the fsync-always journal
// under dir, as cmd/shrecd does.
func openJournalStores(t *testing.T, dir string) (results, journal *store.Store) {
	t.Helper()
	rs, err := store.Open(filepath.Join(dir, "results"))
	if err != nil {
		t.Fatal(err)
	}
	js, err := store.OpenWith(filepath.Join(dir, "journal"), store.Options{Sync: store.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	return rs, js
}

// waitCampaignDone polls the job table until the campaign finishes.
func waitCampaignDone(t *testing.T, s *Server, id string, within time.Duration) *campaign.Result {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		if job, ok := s.campaigns.get(id); ok {
			snap := job.snapshot()
			switch snap.State {
			case jobDone:
				return snap.Result
			case jobFailed:
				t.Fatalf("campaign %s failed: %s", id, snap.Err)
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s did not finish within %v", id, within)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitJournalState polls the journal entry of job (kind, id) until its
// state reads want. A job publishes its final state before the server
// journals it, so a test that has just seen the state must wait for the
// record rather than read it once.
func waitJournalState(t *testing.T, js *store.Store, kind, id, want string, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		var e journalEntry
		ok, err := js.Get(journalKey(kind, id), &e)
		if err == nil && ok && e.State == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("journal entry %s/%s: ok=%v err=%v state=%q, want %q", kind, id, ok, err, e.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCrashRejoinResumesCampaign is the in-process kill-and-rejoin
// acceptance test: a campaign killed mid-run (the server closed between
// two trial writes, exactly what kill -9 leaves behind: a pending
// journal entry and a partial result store) is re-adopted by the next
// server from the journal alone — no client re-POST — finishes with
// strictly fewer trials re-executed, and produces trial records
// byte-identical to an uninterrupted run.
func TestCrashRejoinResumesCampaign(t *testing.T) {
	opt := sim.Options{WarmupInstrs: 2_000, MeasureInstrs: 5_000}

	// Golden: the same campaign, uninterrupted, no stores.
	gs := NewWith(Config{DefaultOptions: opt}, sim.NewSuite(opt))
	t.Cleanup(gs.Close)
	w := postJSON(t, gs.Handler(), "/campaigns", crashSpec)
	if w.Code != http.StatusAccepted {
		t.Fatalf("golden POST = %d: %s", w.Code, w.Body.String())
	}
	var started struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &started); err != nil {
		t.Fatal(err)
	}
	golden := waitCampaignDone(t, gs, started.ID, 60*time.Second)

	// Run 1: the same campaign over a journal + result store.
	dir := t.TempDir()
	rs1, js1 := openJournalStores(t, dir)
	s1 := NewWith(Config{DefaultOptions: opt, Store: rs1, Journal: js1}, sim.NewSuite(opt))
	if w := postJSON(t, s1.Handler(), "/campaigns", crashSpec); w.Code != http.StatusAccepted {
		t.Fatalf("run-1 POST = %d: %s", w.Code, w.Body.String())
	}

	// Kill the server once some — but not all — trials are done. Close
	// cancels the lifetime context mid-run; every finished trial is
	// already persisted, and the journal entry stays pending.
	killAt := time.Now().Add(30 * time.Second)
	for {
		job, ok := s1.campaigns.get(started.ID)
		if !ok {
			t.Fatal("run-1 job missing")
		}
		snap := job.snapshot()
		if snap.State == jobDone {
			t.Fatal("campaign finished before it could be killed; raise trials in crashSpec")
		}
		if snap.Progress.Done >= 2 {
			break
		}
		if time.Now().After(killAt) {
			t.Fatalf("no progress to kill at; last %+v", snap.Progress)
		}
		time.Sleep(200 * time.Microsecond)
	}
	s1.Close()
	// Wait for the run goroutine to observe the cancel (its finish call
	// is the last thing it does), then verify the journal still holds the
	// job as pending: an interrupted run must not be settled.
	waitFailed := time.Now().Add(30 * time.Second)
	for {
		job, _ := s1.campaigns.get(started.ID)
		if snap := job.snapshot(); snap.State == jobFailed {
			break
		} else if snap.State == jobDone {
			t.Fatal("campaign finished despite the kill")
		}
		if time.Now().After(waitFailed) {
			t.Fatal("killed campaign never settled")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if d := s1.journal.depth(); d != 1 {
		t.Fatalf("journal depth after kill = %d, want 1 (entry must stay pending)", d)
	}
	if err := rs1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := js1.Close(); err != nil {
		t.Fatal(err)
	}

	// Run 2: a fresh server over the same stores re-adopts the job from
	// the journal alone — no POST — and finishes it.
	rs2, js2 := openJournalStores(t, dir)
	s2 := NewWith(Config{DefaultOptions: opt, Store: rs2, Journal: js2}, sim.NewSuite(opt))
	t.Cleanup(s2.Close)
	if got := s2.journalReplayed.Load(); got != 1 {
		t.Fatalf("journal_replayed = %d, want 1", got)
	}
	if got := s2.jobsReadopted.Load(); got != 1 {
		t.Fatalf("jobs_readopted = %d, want 1", got)
	}
	res := waitCampaignDone(t, s2, started.ID, 60*time.Second)

	// Bounded lost work: finished trials were restored, not re-run.
	if res.Resumed < 2 || res.Executed >= len(res.Trials) {
		t.Fatalf("resume did not bound lost work: resumed %d, executed %d of %d",
			res.Resumed, res.Executed, len(res.Trials))
	}
	if res.Resumed+res.Executed != len(res.Trials) {
		t.Fatalf("resumed %d + executed %d != %d trials", res.Resumed, res.Executed, len(res.Trials))
	}

	// Byte-identical science: the recovered run's trial records match the
	// uninterrupted run exactly.
	gotTrials, _ := json.Marshal(res.Trials)
	wantTrials, _ := json.Marshal(golden.Trials)
	if string(gotTrials) != string(wantTrials) {
		t.Fatalf("recovered trials differ from uninterrupted run:\n got %s\nwant %s", gotTrials, wantTrials)
	}
	if res.Counts() != golden.Counts() {
		t.Fatalf("recovered counts %+v != golden %+v", res.Counts(), golden.Counts())
	}

	// The journal settled the entry as done, and /metrics shows the
	// recovery counters.
	waitJournalState(t, js2, "campaign", started.ID, journalDone, 10*time.Second)
	if d := s2.journal.depth(); d != 0 {
		t.Fatalf("journal depth after recovery = %d, want 0", d)
	}
	metrics := metricsText(t, s2)
	for _, want := range []string{"shrecd_journal_replayed_total 1", "shrecd_jobs_readopted_total 1", "shrecd_journal_depth 0"} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics lack %q:\n%s", want, metrics)
		}
	}
}

// metricsText fetches /metrics as text.
func metricsText(t *testing.T, s *Server) string {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", w.Code)
	}
	return w.Body.String()
}

// TestReplayStartsJobsAcceptedButNeverRun covers the other crash window:
// the journal write landed but the process died before (or just after)
// the job goroutine started. Replay must start both kinds from their
// journaled specs alone.
func TestReplayStartsJobsAcceptedButNeverRun(t *testing.T) {
	opt := sim.Options{WarmupInstrs: 2_000, MeasureInstrs: 5_000}
	dir := t.TempDir()
	_, js := openJournalStores(t, dir)

	var craw campaign.Spec
	if err := json.Unmarshal([]byte(`{"machine":"shrec","benchmark":"crafty","trials":4,"seed":3}`), &craw); err != nil {
		t.Fatal(err)
	}
	cspec, err := campaign.Normalize(craw, opt)
	if err != nil {
		t.Fatal(err)
	}
	var eraw explore.Spec
	if err := json.Unmarshal([]byte(`{"space":{"bases":["ss1","ss2"]},"seed":7}`), &eraw); err != nil {
		t.Fatal(err)
	}
	espec, err := explore.Normalize(eraw, opt)
	if err != nil {
		t.Fatal(err)
	}
	cid, eid := jobID("campaign", cspec), jobID("exploration", espec)
	j := newJobJournal(js)
	if err := j.record("campaign", cid, cspec); err != nil {
		t.Fatal(err)
	}
	if err := j.record("exploration", eid, espec); err != nil {
		t.Fatal(err)
	}

	s := NewWith(Config{DefaultOptions: opt, Journal: js}, sim.NewSuite(opt))
	t.Cleanup(s.Close)
	if got := s.jobsReadopted.Load(); got != 2 {
		t.Fatalf("jobs_readopted = %d, want 2", got)
	}
	waitCampaignDone(t, s, cid, 60*time.Second)
	deadline := time.Now().Add(60 * time.Second)
	for {
		job, ok := s.explorations.get(eid)
		if !ok {
			t.Fatal("exploration job not re-adopted")
		}
		snap := job.snapshot()
		if snap.State == jobDone {
			break
		}
		if snap.State == jobFailed {
			t.Fatalf("re-adopted exploration failed: %s", snap.Err)
		}
		if time.Now().After(deadline) {
			t.Fatal("re-adopted exploration did not finish")
		}
		time.Sleep(2 * time.Millisecond)
	}
	waitJournalState(t, js, "campaign", cid, journalDone, 10*time.Second)
	waitJournalState(t, js, "exploration", eid, journalDone, 10*time.Second)
	if d := j.depth(); d != 0 {
		t.Fatalf("journal depth = %d, want 0 after both jobs finished", d)
	}
}

// TestReplayUnknownKindMarkedFailed pins that a corrupt or
// unrecognizable journal entry cannot wedge startup or replay forever:
// it is marked failed once and skipped.
func TestReplayUnknownKindMarkedFailed(t *testing.T) {
	opt := sim.Options{WarmupInstrs: 2_000, MeasureInstrs: 5_000}
	dir := t.TempDir()
	_, js := openJournalStores(t, dir)
	if err := js.Put(journalKey("bogus", "x"), journalEntry{
		Kind: "bogus", ID: "x", State: journalPending,
	}); err != nil {
		t.Fatal(err)
	}
	s := NewWith(Config{DefaultOptions: opt, Journal: js}, sim.NewSuite(opt))
	t.Cleanup(s.Close)
	if got := s.jobsReadopted.Load(); got != 0 {
		t.Fatalf("jobs_readopted = %d, want 0", got)
	}
	var e journalEntry
	if ok, err := js.Get(journalKey("bogus", "x"), &e); err != nil || !ok || e.State != journalFailed {
		t.Fatalf("unknown-kind entry: ok=%v err=%v state=%q", ok, err, e.State)
	}
	if d := s.journal.depth(); d != 0 {
		t.Fatalf("journal depth = %d, want 0", d)
	}
}

// TestSheddingBoundsQueueWait pins load shedding: with the worker pool
// saturated, a POST /simulate queues at most ShedAfter and is shed with
// 429 + Retry-After, while /healthz (which never queues) keeps serving.
func TestSheddingBoundsQueueWait(t *testing.T) {
	opt := sim.Options{WarmupInstrs: 2_000, MeasureInstrs: 5_000}
	s := NewWith(Config{DefaultOptions: opt, MaxConcurrent: 1, ShedAfter: 20 * time.Millisecond}, sim.NewSuite(opt))
	t.Cleanup(s.Close)
	h := s.Handler()

	s.sem <- struct{}{} // saturate the only worker slot
	defer func() { <-s.sem }()

	w := postJSON(t, h, "/simulate", `{"machine":"shrec","benchmark":"swim"}`)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated POST /simulate = %d, want 429: %s", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("shed response lacks Retry-After")
	}
	if got := s.shedRequests.Load(); got != 1 {
		t.Fatalf("shed_requests = %d, want 1", got)
	}

	// Reads stay responsive while the pool is saturated.
	var health map[string]any
	if code := getJSON(t, h, "/healthz", &health); code != http.StatusOK {
		t.Fatalf("GET /healthz while saturated = %d", code)
	}
	if !strings.Contains(metricsText(t, s), "shrecd_shed_requests_total 1") {
		t.Fatal("metrics lack shrecd_shed_requests_total")
	}
}

// wedgeJob journals a job of kind k as accepted and reserves its slot
// without ever driving it — a perfectly wedged job — with its heartbeat
// an hour stale. It returns the job's status URL and a late completion
// with result late, reporting whether that completion settled the job.
func wedgeJob[S, P any, R reporter](t *testing.T, s *Server, k *jobKind[S, P, R], raw string, late R) (url string, finishLate func() bool) {
	t.Helper()
	var spec S
	if err := json.Unmarshal([]byte(raw), &spec); err != nil {
		t.Fatal(err)
	}
	spec, err := k.prepare(spec)
	if err != nil {
		t.Fatal(err)
	}
	id := jobID(k.kind, spec)
	if err := s.journal.record(k.kind, id, spec); err != nil {
		t.Fatal(err)
	}
	job, startedNew, err := k.startOrJoin(id, spec)
	if err != nil || !startedNew {
		t.Fatalf("startOrJoin: started=%v err=%v", startedNew, err)
	}
	job.mu.Lock()
	job.lastBeat = time.Now().Add(-time.Hour)
	job.mu.Unlock()
	return k.prefix + "/" + id, func() bool { return job.finish(late, nil) }
}

// TestWatchdogFailsWedgedJob pins the watchdog for both job kinds: a
// running job whose progress heartbeat goes stale is cancelled, marked
// failed with a watchdog error, journaled as failed, and its finish is
// idempotent against a late result racing in.
func TestWatchdogFailsWedgedJob(t *testing.T) {
	opt := sim.Options{WarmupInstrs: 2_000, MeasureInstrs: 5_000}
	for _, tc := range []struct {
		kind  string
		wedge func(*testing.T, *Server) (url string, finishLate func() bool)
	}{
		{"campaign", func(t *testing.T, s *Server) (string, func() bool) {
			return wedgeJob(t, s, s.campaigns, `{"machine":"shrec","benchmark":"crafty","trials":4,"seed":5}`, &campaign.Result{})
		}},
		{"exploration", func(t *testing.T, s *Server) (string, func() bool) {
			return wedgeJob(t, s, s.explorations, `{"space":{"bases":["ss1","ss2"]},"seed":5}`, &explore.Result{})
		}},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			_, js := openJournalStores(t, t.TempDir())
			s := NewWith(Config{DefaultOptions: opt, Journal: js, Watchdog: 100 * time.Millisecond}, sim.NewSuite(opt))
			t.Cleanup(s.Close)
			h := s.Handler()
			url, finishLate := tc.wedge(t, s)

			var status struct{ State, Error string }
			deadline := time.Now().Add(10 * time.Second)
			for {
				if code := getJSON(t, h, url, &status); code != http.StatusOK {
					t.Fatalf("GET %s = %d", url, code)
				}
				if status.State == jobFailed {
					if !strings.Contains(status.Error, "watchdog") {
						t.Fatalf("wedged job error %q lacks watchdog attribution", status.Error)
					}
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("watchdog never killed the wedged job; status %+v", status)
				}
				time.Sleep(5 * time.Millisecond)
			}
			// The watchdog counts the kill before it journals it.
			waitJournalState(t, js, tc.kind, path.Base(url), journalFailed, time.Until(deadline))
			if got := s.jobsWedged.Load(); got != 1 {
				t.Fatalf("jobs_wedged = %d, want 1", got)
			}
			// A late completion racing the watchdog must not flip the outcome.
			if finishLate() {
				t.Fatal("finish after watchdog kill reported it settled the job")
			}
			if getJSON(t, h, url, &status); status.State != jobFailed {
				t.Fatalf("late finish flipped state to %q", status.State)
			}
		})
	}
}
