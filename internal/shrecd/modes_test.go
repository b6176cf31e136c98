package shrecd

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"
)

// startCampaign POSTs a campaign body and returns the 202 id and URL.
func startCampaign(t *testing.T, h http.Handler, body string) (id, url string) {
	t.Helper()
	w := postJSON(t, h, "/campaigns", body)
	if w.Code != http.StatusAccepted {
		t.Fatalf("POST /campaigns %s = %d: %s", body, w.Code, w.Body.String())
	}
	var started struct {
		ID  string `json:"id"`
		URL string `json:"url"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &started); err != nil {
		t.Fatal(err)
	}
	return started.ID, started.URL
}

// waitCampaign polls a campaign job URL until done and returns the final
// status.
func waitCampaign(t *testing.T, h http.Handler, url string) campaignStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	var status campaignStatus
	for {
		if code := getJSON(t, h, url, &status); code != http.StatusOK {
			t.Fatalf("GET %s = %d", url, code)
		}
		if status.State == jobDone {
			return status
		}
		if status.State == jobFailed {
			t.Fatalf("campaign failed: %s", status.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign did not finish; last status %+v", status)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestCampaignEndpointNewModes runs one small campaign per new detection
// mode over HTTP — checker-lane MEEK, multi-context SHREC, region-gated
// FLEX — and pins that each finishes with a coverage estimate and a
// report. The flex machine's checking window covers the injection window
// here, so it must report like any fully-checked machine.
func TestCampaignEndpointNewModes(t *testing.T) {
	s := campaignServer(t)
	h := s.Handler()
	for _, machine := range []string{"meek@2", "shrec+ctx4", "flex@64k:on16k"} {
		_, url := startCampaign(t, h,
			`{"machine":"`+machine+`","benchmark":"crafty","trials":6,"fault_rate":2e-4,"seed":7}`)
		status := waitCampaign(t, h, url)
		if status.Progress.Done != 6 {
			t.Fatalf("%s: final progress %+v", machine, status.Progress)
		}
		if status.Progress.Counts.SDC != 0 {
			t.Fatalf("%s: campaign leaked %d SDC trials", machine, status.Progress.Counts.SDC)
		}
		if len(status.Report) == 0 || !strings.Contains(string(status.Report), "Wilson") {
			t.Fatalf("%s: done status lacks the report: %s", machine, status.Report)
		}
	}
}

// TestCampaignEndpointNewModeDedup pins job identity under the grammar:
// "meek", "MEEK@2", and "Meek@2" name the same machine, so POSTing any
// spelling joins the same job rather than re-running the campaign.
func TestCampaignEndpointNewModeDedup(t *testing.T) {
	s := campaignServer(t)
	h := s.Handler()
	first, _ := startCampaign(t, h,
		`{"machine":"meek","benchmark":"crafty","trials":4,"fault_rate":2e-4,"seed":7}`)
	for _, spelling := range []string{"MEEK@2", "Meek@2", "meek@2"} {
		id, _ := startCampaign(t, h,
			`{"machine":"`+spelling+`","benchmark":"crafty","trials":4,"fault_rate":2e-4,"seed":7}`)
		if id != first {
			t.Fatalf("spelling %q spawned job %q, want join of %q", spelling, id, first)
		}
	}
	// A different lane count is a different machine, hence a different job.
	other, _ := startCampaign(t, h,
		`{"machine":"meek@4","benchmark":"crafty","trials":4,"fault_rate":2e-4,"seed":7}`)
	if other == first {
		t.Fatal("meek@4 joined the meek@2 job")
	}
}

// TestCampaignEndpointFlexConditionalCoverage runs a FLEX campaign whose
// checking window ends before the warmup does, so every fault lands in a
// disabled region: the served report must carry the conditional-coverage
// rows that separate policy blindness from checker failure.
func TestCampaignEndpointFlexConditionalCoverage(t *testing.T) {
	s := campaignServer(t)
	h := s.Handler()
	_, url := startCampaign(t, h,
		`{"machine":"flex@64k:on1k","benchmark":"crafty","trials":8,"fault_rate":2e-4,"seed":7}`)
	status := waitCampaign(t, h, url)
	if status.Progress.Counts.SDC == 0 {
		t.Fatalf("off-region FLEX produced no SDC over HTTP: %+v", status.Progress.Counts)
	}
	for _, want := range []string{"conditional coverage", "faults landed unchecked"} {
		if !strings.Contains(string(status.Report), want) {
			t.Fatalf("report lacks %q:\n%s", want, status.Report)
		}
	}
}

// TestCampaignEndpointMalformedModeSpecs pins that malformed mode specs
// fail synchronously with 400 and a message naming the problem — not
// asynchronously in a job that can only fail — and burn no job slot.
func TestCampaignEndpointMalformedModeSpecs(t *testing.T) {
	s := campaignServer(t)
	h := s.Handler()
	cases := []struct{ machine, wantMsg string }{
		{"meek@0", "lane count"},
		{"meek@99", "lane count"},
		{"flex@", "flex"},
		{"flex@64k:on64k", "region policy"},
		{"ss1+ctx4", "SHREC-mode base"},
	}
	for _, tc := range cases {
		w := postJSON(t, h, "/campaigns",
			`{"machine":"`+tc.machine+`","benchmark":"crafty","trials":1}`)
		if w.Code != http.StatusBadRequest {
			t.Fatalf("machine %q = %d, want 400: %s", tc.machine, w.Code, w.Body.String())
		}
		if !strings.Contains(w.Body.String(), tc.wantMsg) {
			t.Fatalf("machine %q error does not name the problem (%q):\n%s", tc.machine, tc.wantMsg, w.Body.String())
		}
	}
	var list struct {
		Count int `json:"count"`
	}
	if code := getJSON(t, h, "/campaigns", &list); code != http.StatusOK || list.Count != 0 {
		t.Fatalf("rejected specs occupy the job table: code %d, count %d", code, list.Count)
	}
}

// TestExplorationEndpointModeAxes drives an exploration over the MEEK
// checker-lane axis end to end over HTTP, and pins that a mode-incompatible
// axis is rejected synchronously with 400.
func TestExplorationEndpointModeAxes(t *testing.T) {
	s := campaignServer(t)
	h := s.Handler()

	body := `{"space":{"bases":["meek"],"checker_lanes":[1,2]},"seed":7}`
	w := postJSON(t, h, "/explorations", body)
	if w.Code != http.StatusAccepted {
		t.Fatalf("POST /explorations = %d: %s", w.Code, w.Body.String())
	}
	var started struct {
		ID  string `json:"id"`
		URL string `json:"url"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &started); err != nil {
		t.Fatal(err)
	}
	// The identical space joins the same job.
	if w2 := postJSON(t, h, "/explorations", body); !strings.Contains(w2.Body.String(), started.ID) {
		t.Fatalf("duplicate POST spawned a new job: %s", w2.Body.String())
	}

	deadline := time.Now().Add(30 * time.Second)
	var status explorationStatus
	for {
		if code := getJSON(t, h, started.URL, &status); code != http.StatusOK {
			t.Fatalf("GET %s = %d", started.URL, code)
		}
		if status.State == jobDone {
			break
		}
		if status.State == jobFailed {
			t.Fatalf("exploration failed: %s", status.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("exploration did not finish; last status %+v", status)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if status.Progress.Done != 2 || len(status.Frontier) == 0 {
		t.Fatalf("final status %+v", status)
	}
	for _, spec := range status.Frontier {
		if !strings.HasPrefix(spec, "MEEK@") {
			t.Fatalf("frontier spec %q did not come from the lane axis", spec)
		}
	}

	// A lane axis over a non-MEEK base cannot enumerate; the POST must
	// fail synchronously naming the conflict.
	bad := postJSON(t, h, "/explorations", `{"space":{"bases":["ss1"],"checker_lanes":[2]}}`)
	if bad.Code != http.StatusBadRequest || !strings.Contains(bad.Body.String(), "checker_lanes") {
		t.Fatalf("incompatible axis = %d, want 400 naming checker_lanes: %s", bad.Code, bad.Body.String())
	}
}
