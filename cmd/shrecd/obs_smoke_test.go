// Observability smoke test: build the real shrecd binary, run a tiny
// campaign against it, and verify the telemetry surface end to end —
// /metrics passes the exposition lint and carries the request/job/stage
// families, the job status exposes its phase breakdown, /healthz
// answers, and the flag-gated pprof endpoints mount. This is the
// process-level counterpart of internal/shrecd's in-process metrics
// lint test: it exercises the actual flag wiring in main.
package main

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/telemetry"
)

func TestObsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildShrecd(t)
	dir := t.TempDir()
	p := startShrecd(t, bin, dir+"/store", dir+"/journal",
		"-pprof", "-log-level", "debug", "-log-format", "json")

	r, err := repro.NewRemote(p.baseURL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := t.Context()

	job, err := r.StartCampaign(ctx, repro.CampaignSpec{
		Machine: "shrec", Benchmark: "crafty", Trials: 8, FaultRate: 2e-4, Seed: 7,
	})
	if err != nil {
		t.Fatalf("starting campaign: %v", err)
	}
	if _, err := r.Wait(ctx, job); err != nil {
		t.Fatalf("campaign: %v\nstderr:\n%s", err, p.stderr)
	}

	// The finished job must carry its phase breakdown.
	var status struct {
		Phases []telemetry.PhaseStat `json:"phases"`
	}
	getInto(t, p.baseURL+"/campaigns/"+job.ID, &status)
	phases := map[string]bool{}
	for _, ph := range status.Phases {
		phases[ph.Phase] = true
	}
	for _, want := range []string{"queued", "golden_run", "trial"} {
		if !phases[want] {
			t.Errorf("phase %q missing from job status %+v", want, status.Phases)
		}
	}

	// /metrics: well-formed exposition carrying the telemetry families.
	body := getBody(t, p.baseURL+"/metrics")
	if err := telemetry.Lint(strings.NewReader(body)); err != nil {
		t.Fatalf("exposition lint failed:\n%v", err)
	}
	for _, family := range []string{
		"shrecd_http_requests_total",
		"shrecd_http_request_seconds",
		"shrecd_jobs_total",
		"shrecd_job_duration_seconds",
		"shrecd_job_phase_seconds",
		"sim_stage_seconds",
		"shrecd_results_cached",
		"shrecd_sim_runs_total",
	} {
		if !strings.Contains(body, family) {
			t.Errorf("family %s missing from /metrics", family)
		}
	}

	// /healthz still answers (and reports an ok store).
	var health struct {
		Status string `json:"status"`
	}
	getInto(t, p.baseURL+"/healthz", &health)
	if health.Status == "" {
		t.Error("healthz returned no status")
	}

	// -pprof mounted the profile index.
	if idx := getBody(t, p.baseURL+"/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Errorf("pprof index looks wrong:\n%.200s", idx)
	}

	// The structured logs went to stderr as JSON.
	if !strings.Contains(p.stderr.String(), `"msg":"job finished"`) {
		t.Errorf("no structured job-finished log on stderr:\n%.500s", p.stderr)
	}
}

// getBody fetches a URL and returns its body, failing the test on any
// error or non-200.
func getBody(t *testing.T, url string) string {
	t.Helper()
	hc := &http.Client{Timeout: 30 * time.Second}
	resp, err := hc.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d:\n%s", url, resp.StatusCode, raw)
	}
	return string(raw)
}

// getInto fetches a URL and decodes its JSON body into v.
func getInto(t *testing.T, url string, v any) {
	t.Helper()
	if err := json.Unmarshal([]byte(getBody(t, url)), v); err != nil {
		t.Fatalf("GET %s: decoding: %v", url, err)
	}
}
