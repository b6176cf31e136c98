package shrecd

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/explore"
	"repro/internal/sim"
)

// The status shapes of the two job kinds, as the tests decode them.
type (
	campaignStatus    = jobStatus[campaign.Spec, campaign.Progress]
	explorationStatus = jobStatus[explore.Spec, explore.Progress]
)

// campaignServer builds a server at tiny run lengths for campaign tests.
func campaignServer(t *testing.T) *Server {
	t.Helper()
	opt := sim.Options{WarmupInstrs: 2_000, MeasureInstrs: 5_000}
	s := NewWith(Config{DefaultOptions: opt, MaxConcurrent: 4}, sim.NewSuite(opt))
	t.Cleanup(s.Close)
	return s
}

// getJSON decodes a GET response into v.
func getJSON(t *testing.T, h http.Handler, path string, v any) int {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code == http.StatusOK {
		if err := json.Unmarshal(w.Body.Bytes(), v); err != nil {
			t.Fatalf("decoding %s: %v\n%s", path, err, w.Body.String())
		}
	}
	return w.Code
}

func TestCampaignEndpointLifecycle(t *testing.T) {
	s := campaignServer(t)
	h := s.Handler()

	body := `{"machine":"shrec","benchmark":"crafty","trials":8,"fault_rate":2e-4,"seed":7}`
	w := postJSON(t, h, "/campaigns", body)
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
	if started.ID == "" || started.URL != "/campaigns/"+started.ID {
		t.Fatalf("bad start response: %+v", started)
	}

	// A duplicate POST joins the same job instead of spawning a second —
	// including a normalized-equivalent spec with the defaults spelled
	// out explicitly.
	w2 := postJSON(t, h, "/campaigns",
		`{"machine":"shrec","benchmark":"crafty","trials":8,"fault_rate":2e-4,"seed":7,`+
			`"warmup_instrs":2000,"measure_instrs":5000,"window_hi":5000}`)
	var dup struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(w2.Body.Bytes(), &dup); err != nil {
		t.Fatal(err)
	}
	if dup.ID != started.ID {
		t.Fatalf("duplicate POST spawned a new job: %q vs %q", dup.ID, started.ID)
	}

	// Poll until done; the snapshot carries progress and, at the end, the
	// typed report with the Wilson-bounded coverage estimate.
	deadline := time.Now().Add(30 * time.Second)
	var status campaignStatus
	for {
		if code := getJSON(t, h, started.URL, &status); code != http.StatusOK {
			t.Fatalf("GET %s = %d", started.URL, code)
		}
		if status.State == jobDone {
			break
		}
		if status.State == jobFailed {
			t.Fatalf("campaign failed: %s", status.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign did not finish; last status %+v", status)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if status.Progress.Done != 8 || status.Progress.Total != 8 {
		t.Fatalf("final progress %+v", status.Progress)
	}
	if status.Progress.Coverage.N == 0 && status.Progress.Counts.Clean != 8 {
		t.Fatalf("no coverage estimate in %+v", status.Progress)
	}
	if len(status.Report) == 0 || !strings.Contains(string(status.Report), "Wilson") {
		t.Fatalf("done status lacks the report: %s", status.Report)
	}

	// The text rendering is served directly once done.
	req := httptest.NewRequest(http.MethodGet, started.URL+"?format=text", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "Trial outcomes") {
		t.Fatalf("text report = %d:\n%s", rec.Code, rec.Body.String())
	}

	// The list endpoint names the job.
	var list struct {
		Count     int              `json:"count"`
		Campaigns []campaignStatus `json:"campaigns"`
	}
	if code := getJSON(t, h, "/campaigns", &list); code != http.StatusOK {
		t.Fatalf("GET /campaigns = %d", code)
	}
	if list.Count != 1 || list.Campaigns[0].ID != started.ID {
		t.Fatalf("bad list: %+v", list)
	}
}

// TestCampaignEndpointRecovery pins the recovery wiring over HTTP: a
// campaign POSTed with a recovery mode normalizes it into the job
// identity, runs under the policy, and reports availability.
func TestCampaignEndpointRecovery(t *testing.T) {
	s := campaignServer(t)
	h := s.Handler()

	body := `{"machine":"shrec","benchmark":"crafty","trials":8,"fault_rate":2e-4,"seed":7,` +
		`"recovery":"ckpt@256+depth2"}`
	w := postJSON(t, h, "/campaigns", body)
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
	// The recovery policy is part of the job identity: the same campaign
	// without it is a different job.
	w2 := postJSON(t, h, "/campaigns",
		`{"machine":"shrec","benchmark":"crafty","trials":8,"fault_rate":2e-4,"seed":7}`)
	var plain struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(w2.Body.Bytes(), &plain); err != nil {
		t.Fatal(err)
	}
	if plain.ID == started.ID {
		t.Fatal("recovery policy did not split the job identity")
	}

	deadline := time.Now().Add(30 * time.Second)
	var status campaignStatus
	for {
		if code := getJSON(t, h, started.URL, &status); code != http.StatusOK {
			t.Fatalf("GET %s = %d", started.URL, code)
		}
		if status.State == jobDone {
			break
		}
		if status.State == jobFailed {
			t.Fatalf("campaign failed: %s", status.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign did not finish; last status %+v", status)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if status.Spec.Recovery != "ckpt@256+depth2" {
		t.Fatalf("served spec lost the recovery mode: %+v", status.Spec)
	}
	for _, want := range []string{"availability %", "rollbacks"} {
		if !strings.Contains(string(status.Report), want) {
			t.Fatalf("recovery report lacks %q: %s", want, status.Report)
		}
	}
	// A malformed recovery mode is rejected synchronously.
	bad := postJSON(t, h, "/campaigns",
		`{"machine":"shrec","benchmark":"crafty","trials":1,"recovery":"ckpt@64k+width2"}`)
	if bad.Code != http.StatusBadRequest {
		t.Fatalf("malformed recovery mode = %d, want 400: %s", bad.Code, bad.Body.String())
	}
}

func TestCampaignValidation(t *testing.T) {
	s := campaignServer(t)
	h := s.Handler()
	for _, body := range []string{
		`{"machine":"nope","benchmark":"crafty"}`,                              // unknown machine: rejected synchronously
		`{"machine":"shrec","benchmark":"nope"}`,                               // unknown benchmark
		`{"machine":"shrec","benchmark":"crafty","fault_rate":1.5}`,            // rate out of range
		`{"machine":"shrec","benchmark":"crafty","trials":999999}`,             // over MaxTrials
		`{"machine":"shrec","benchmark":"crafty","warmup_instrs":99999999999}`, // over MaxInstrs
		`not json`,
	} {
		if w := postJSON(t, h, "/campaigns", body); w.Code != http.StatusBadRequest {
			t.Fatalf("bad body %q = %d, want 400: %s", body, w.Code, w.Body.String())
		}
	}
	// No job-table slot was burned by any rejected spec.
	var list struct {
		Count int `json:"count"`
	}
	if code := getJSON(t, h, "/campaigns", &list); code != http.StatusOK || list.Count != 0 {
		t.Fatalf("rejected specs occupy the job table: code %d, count %d", code, list.Count)
	}
	if code := func() int {
		req := httptest.NewRequest(http.MethodGet, "/campaigns/doesnotexist", nil)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w.Code
	}(); code != http.StatusNotFound {
		t.Fatalf("unknown campaign id = %d, want 404", code)
	}
}

// TestCampaignCaps pins the cost caps: the trial cap applies to the
// normalized (defaulted) trial count, the hang budget is bounded, and
// the job table evicts finished jobs but rejects when saturated with
// running ones.
func TestCampaignCaps(t *testing.T) {
	opt := sim.Options{WarmupInstrs: 2_000, MeasureInstrs: 5_000}
	s := NewWith(Config{DefaultOptions: opt, MaxTrials: 50, MaxCampaigns: 2}, sim.NewSuite(opt))
	t.Cleanup(s.Close)
	h := s.Handler()

	// Omitting trials must not bypass a cap below DefaultTrials (100).
	w := postJSON(t, h, "/campaigns", `{"machine":"shrec","benchmark":"crafty"}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("defaulted trials over cap accepted: %d %s", w.Code, w.Body.String())
	}

	// An absurd client-supplied hang budget is rejected.
	w = postJSON(t, h, "/campaigns",
		`{"machine":"shrec","benchmark":"crafty","trials":1,"max_cycles":4611686018427387904}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("unbounded max_cycles accepted: %d %s", w.Code, w.Body.String())
	}

	// Fill the job table with two tiny campaigns and let them finish.
	for _, seed := range []string{"1", "2"} {
		w := postJSON(t, h, "/campaigns",
			`{"machine":"shrec","benchmark":"crafty","trials":2,"seed":`+seed+`}`)
		if w.Code != http.StatusAccepted {
			t.Fatalf("tiny campaign rejected: %d %s", w.Code, w.Body.String())
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		var list struct {
			Campaigns []campaignStatus `json:"campaigns"`
		}
		getJSON(t, h, "/campaigns", &list)
		done := 0
		for _, c := range list.Campaigns {
			if c.State == jobDone {
				done++
			}
		}
		if done == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaigns did not finish: %+v", list)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// A third campaign evicts the oldest finished job rather than being
	// rejected.
	w = postJSON(t, h, "/campaigns",
		`{"machine":"shrec","benchmark":"crafty","trials":2,"seed":3}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("eviction did not make room: %d %s", w.Code, w.Body.String())
	}
	var list struct {
		Count int `json:"count"`
	}
	getJSON(t, h, "/campaigns", &list)
	if list.Count != 2 {
		t.Fatalf("job table holds %d entries, want 2 (bounded)", list.Count)
	}
}
