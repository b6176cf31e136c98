package shrecd

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// TestMetricsExpositionLint drives real traffic through the server —
// a synchronous simulation, a full tiny campaign, and a 404 — then
// scrapes /metrics and holds the output to the Prometheus text
// exposition format via telemetry.Lint, line by line. This is the
// regression fence for the registry-rendered endpoint: a malformed
// HELP/TYPE pair, a broken histogram invariant, or an unescaped label
// fails here, not in a scraper.
func TestMetricsExpositionLint(t *testing.T) {
	s := campaignServer(t)
	h := s.Handler()

	if w := postJSON(t, h, "/simulate", `{"machine":"shrec","benchmark":"swim"}`); w.Code != http.StatusOK {
		t.Fatalf("POST /simulate = %d: %s", w.Code, w.Body.String())
	}
	w := postJSON(t, h, "/campaigns",
		`{"machine":"shrec","benchmark":"crafty","trials":4,"fault_rate":2e-4,"seed":11}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("POST /campaigns = %d: %s", w.Code, w.Body.String())
	}
	var started struct {
		ID  string `json:"id"`
		URL string `json:"url"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &started); err != nil {
		t.Fatal(err)
	}
	var status campaignStatus
	deadline := time.Now().Add(30 * time.Second)
	for {
		if code := getJSON(t, h, started.URL, &status); code != http.StatusOK {
			t.Fatalf("GET %s = %d", started.URL, code)
		}
		if status.State == jobDone {
			break
		}
		if status.State == jobFailed || time.Now().After(deadline) {
			t.Fatalf("campaign did not finish: %+v", status)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// One unmatched route, so the middleware's fallback label shows up.
	req := httptest.NewRequest(http.MethodGet, "/no/such/route", nil)
	h.ServeHTTP(httptest.NewRecorder(), req)

	req = httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != telemetry.ContentType {
		t.Errorf("Content-Type = %q, want %q", ct, telemetry.ContentType)
	}
	body := rec.Body.String()
	if err := telemetry.Lint(strings.NewReader(body)); err != nil {
		t.Fatalf("exposition lint failed:\n%v", err)
	}

	// The families the telemetry layer added, plus a sample of the suite
	// counter families (TestMetrics checks every one of those).
	for _, family := range []string{
		"shrecd_http_requests_total",
		"shrecd_http_request_seconds",
		"shrecd_http_in_flight",
		"shrecd_jobs_running",
		"shrecd_jobs_total",
		"shrecd_job_duration_seconds",
		"shrecd_job_phase_seconds",
		"sim_stage_seconds",
		"shrecd_results_cached",
		"shrecd_sim_runs_total",
		"shrecd_sim_cache_hits_total",
		"shrecd_shed_requests_total",
		"shrecd_journal_replayed_total",
	} {
		if !strings.Contains(body, "\n"+family) && !strings.HasPrefix(body, family) {
			t.Errorf("family %s missing from /metrics", family)
		}
	}
	// Series-level spot checks: routes are labeled by pattern (bounded
	// cardinality), jobs by kind and outcome, stages by name.
	for _, series := range []string{
		`shrecd_http_requests_total{route="POST /simulate",code="2xx"}`,
		`shrecd_http_requests_total{route="unmatched",code="4xx"}`,
		`shrecd_jobs_total{kind="campaign",outcome="done"}`,
		`sim_stage_seconds_bucket{stage="engine_run",`,
		`shrecd_job_phase_seconds_bucket{kind="campaign",phase="trial",`,
	} {
		if !strings.Contains(body, series) {
			t.Errorf("series %s missing from /metrics", series)
		}
	}

	// The campaign status must expose the per-phase breakdown the same
	// span fed into shrecd_job_phase_seconds.
	if len(status.Phases) == 0 {
		t.Fatal("finished campaign status has no phases")
	}
	phases := map[string]telemetry.PhaseStat{}
	for _, p := range status.Phases {
		phases[p.Phase] = p
	}
	for _, want := range []string{"queued", "golden_run", "trial"} {
		if _, ok := phases[want]; !ok {
			t.Errorf("phase %q missing from status phases %+v", want, status.Phases)
		}
	}
	if tr := phases["trial"]; tr.Count != 4 || tr.Seconds <= 0 {
		t.Errorf("trial phase = %+v, want 4 timed trials", tr)
	}
}

// TestMetricsResultsCachedGauge pins satellite semantics: the
// shrecd_results_cached gauge counts cached results without copying
// them (Suite.Len), and grows as distinct simulations land.
func TestMetricsResultsCachedGauge(t *testing.T) {
	s := testServer()
	h := s.Handler()
	for _, b := range []string{"swim", "mgrid"} {
		if w := postJSON(t, h, "/simulate", `{"machine":"ss1","benchmark":"`+b+`"}`); w.Code != http.StatusOK {
			t.Fatalf("simulate %s = %d", b, w.Code)
		}
	}
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if !strings.Contains(rec.Body.String(), "shrecd_results_cached 2") {
		t.Fatalf("shrecd_results_cached != 2:\n%s", rec.Body.String())
	}
}
