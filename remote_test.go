package repro

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/shrecd"
	"repro/internal/sim"
)

// remoteTestServer runs a real shrecd handler at tiny run lengths.
func remoteTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	opt := sim.Options{WarmupInstrs: 2_000, MeasureInstrs: 5_000}
	s := shrecd.NewWith(shrecd.Config{DefaultOptions: opt}, sim.NewSuite(opt))
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func TestRemoteSimulateAndCampaign(t *testing.T) {
	ts := remoteTestServer(t)
	r, err := NewRemote(ts.URL, WithPollInterval(10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	res, err := r.Simulate(ctx, "shrec", "swim")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.EqualFold(res.Machine, "shrec") || res.IPC <= 0 {
		t.Fatalf("bad remote simulation: %+v", res)
	}

	// Both job kinds go through the one Status/Wait path, polling the
	// status URL each 202 returned.
	var spec CampaignSpec
	if err := json.Unmarshal([]byte(`{"machine":"shrec","benchmark":"crafty","trials":8,"fault_rate":2e-4,"seed":7}`), &spec); err != nil {
		t.Fatal(err)
	}
	camp, err := r.StartCampaign(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	var espec ExploreSpec
	if err := json.Unmarshal([]byte(`{"space":{"bases":["ss1","ss2"]},"seed":7}`), &espec); err != nil {
		t.Fatal(err)
	}
	expl, err := r.StartExploration(ctx, espec)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		job    RemoteJob
		prefix string
		report string // a phrase only the kind's finished report carries
	}{
		{camp, "/campaigns/", "Wilson"},
		{expl, "/explorations/", "Pareto frontier"},
	} {
		if tc.job.ID == "" || tc.job.URL != tc.prefix+tc.job.ID {
			t.Fatalf("bad job handle: %+v", tc.job)
		}
		st, err := r.Status(ctx, tc.job)
		if err != nil || st.ID != tc.job.ID {
			t.Fatalf("Status(%+v) = %+v, %v", tc.job, st, err)
		}
		if st, err = r.Wait(ctx, tc.job); err != nil {
			t.Fatal(err)
		}
		if st.State != "done" || !strings.Contains(string(st.Report), tc.report) {
			t.Fatalf("%s status %q, report %q", tc.job.URL, st.State, st.Report)
		}
	}

	// The status URL is the server's input: anything but a path on the
	// server is refused before a request goes out.
	attempts := r.Metrics().Attempts
	for _, url := range []string{"", "campaigns/" + camp.ID, "http://127.0.0.1:1/campaigns/" + camp.ID,
		"//127.0.0.1:1/campaigns/" + camp.ID, "/campaigns/" + camp.ID + "?format=text"} {
		bad := RemoteJob{ID: camp.ID, URL: url}
		if _, err := r.Status(ctx, bad); err == nil {
			t.Fatalf("Status accepted status url %q", url)
		}
		if _, err := r.Wait(ctx, bad); err == nil {
			t.Fatalf("Wait accepted status url %q", url)
		}
	}
	if got := r.Metrics().Attempts; got != attempts {
		t.Fatalf("rejected status urls issued %d requests", got-attempts)
	}

	health, err := r.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(health), `"status"`) {
		t.Fatalf("bad health: %s", health)
	}
}

// TestRemoteRetriesSheddingWith429 pins the edge hardening: a server
// shedding load with 429 + Retry-After is retried (honoring the hint)
// until it recovers, without the caller noticing.
func TestRemoteRetriesSheddingWith429(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			_, _ = w.Write([]byte(`{"error":"shedding"}`))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"machine":"shrec","benchmark":"swim","ipc":1.5}`))
	}))
	t.Cleanup(ts.Close)

	r, err := NewRemote(ts.URL, WithRetryPolicy(5, time.Millisecond, 10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Simulate(context.Background(), "shrec", "swim")
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC != 1.5 || calls.Load() != 3 {
		t.Fatalf("ipc=%v calls=%d, want success on the third attempt", res.IPC, calls.Load())
	}
}

// TestRemoteDoesNotRetryClientErrors pins that validation failures are
// permanent: retrying a 400 would just re-send the same bad spec.
func TestRemoteDoesNotRetryClientErrors(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		_, _ = w.Write([]byte(`{"error":"unknown machine"}`))
	}))
	t.Cleanup(ts.Close)

	r, err := NewRemote(ts.URL, WithRetryPolicy(5, time.Millisecond, 10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Simulate(context.Background(), "nope", "swim")
	if err == nil || !strings.Contains(err.Error(), "unknown machine") {
		t.Fatalf("err = %v, want the server's validation message", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("400 was retried: %d calls", calls.Load())
	}
}

// TestRemoteRetriesServerErrors pins that 5xx responses retry and that
// exhaustion reports the attempt count.
func TestRemoteRetriesServerErrors(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
		_, _ = w.Write([]byte(`{"error":"boom"}`))
	}))
	t.Cleanup(ts.Close)

	r, err := NewRemote(ts.URL, WithRetryPolicy(3, time.Millisecond, 5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Health(context.Background())
	if err == nil || !strings.Contains(err.Error(), "3 attempts") {
		t.Fatalf("err = %v, want attempt-exhaustion", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("calls = %d, want 3", calls.Load())
	}
}

func TestNewRemoteValidatesURL(t *testing.T) {
	for _, bad := range []string{"", "not a url", "/just/a/path"} {
		if _, err := NewRemote(bad); err == nil {
			t.Fatalf("NewRemote(%q) accepted a bad base URL", bad)
		}
	}
}

// TestRemoteMetricsCountRetryOutcomes pins that the client's retry
// counters survive WithRetryPolicy (which replaces the policy value)
// and classify outcomes: transient 500s count as retried attempts, a
// 400 counts as a permanent failure, and running out of attempts
// counts as exhausted.
func TestRemoteMetricsCountRetryOutcomes(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/healthz" && calls.Add(1) <= 2:
			w.WriteHeader(http.StatusInternalServerError)
			_, _ = w.Write([]byte(`{"error":"boom"}`))
		case r.URL.Path == "/healthz":
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write([]byte(`{"status":"ok"}`))
		default: // POST /simulate
			w.WriteHeader(http.StatusBadRequest)
			_, _ = w.Write([]byte(`{"error":"unknown machine"}`))
		}
	}))
	t.Cleanup(ts.Close)

	r, err := NewRemote(ts.URL, WithRetryPolicy(5, time.Millisecond, 5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Health(context.Background()); err != nil {
		t.Fatalf("Health: %v", err)
	}
	if _, err := r.Simulate(context.Background(), "nope", "swim"); err == nil {
		t.Fatal("Simulate accepted an unknown machine")
	}

	m := r.Metrics()
	if m.Attempts != 4 { // 3 for /healthz + 1 for /simulate
		t.Errorf("Attempts = %d, want 4", m.Attempts)
	}
	if m.Retries != 2 {
		t.Errorf("Retries = %d, want 2", m.Retries)
	}
	if m.PermanentFailures != 1 {
		t.Errorf("PermanentFailures = %d, want 1", m.PermanentFailures)
	}
	if m.Exhausted != 0 {
		t.Errorf("Exhausted = %d, want 0", m.Exhausted)
	}
}
