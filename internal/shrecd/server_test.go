package shrecd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// testServer returns a server with tiny run lengths so handler tests
// finish in milliseconds.
func testServer() *Server {
	return New(Config{
		DefaultOptions: sim.Options{WarmupInstrs: 2000, MeasureInstrs: 5000, Parallelism: 8},
		MaxConcurrent:  8,
	})
}

func postJSON(t testing.TB, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestSimulateEndpoint(t *testing.T) {
	srv := testServer()
	h := srv.Handler()
	w := postJSON(t, h, "/simulate", `{"machine":"shrec","benchmark":"swim"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body)
	}
	checkCompactJSON(t, w)
	var resp struct {
		Machine   string     `json:"machine"`
		Benchmark string     `json:"benchmark"`
		IPC       float64    `json:"ipc"`
		CPI       float64    `json:"cpi"`
		Stats     core.Stats `json:"stats"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Machine != "SHREC" || resp.Benchmark != "swim" {
		t.Fatalf("labels = %s/%s", resp.Machine, resp.Benchmark)
	}
	if resp.IPC <= 0 || resp.CPI <= 0 {
		t.Fatalf("IPC=%v CPI=%v", resp.IPC, resp.CPI)
	}
	m, err := config.ByName("shrec")
	if err != nil {
		t.Fatal(err)
	}
	p, err := workload.ByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	want, err := srv.Sims().GetOpt(context.Background(), m, p, srv.cfg.DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stats != want.Stats {
		t.Fatalf("response stats %+v differ from the suite's %+v", resp.Stats, want.Stats)
	}

	// Errors go through the same encoder.
	bad := postJSON(t, h, "/simulate", `{"machine":"shrec","benchmark":"nope"}`)
	if bad.Code != http.StatusBadRequest {
		t.Fatalf("unknown benchmark: status = %d: %s", bad.Code, bad.Body)
	}
	checkCompactJSON(t, bad)
	var e map[string]string
	if err := json.Unmarshal(bad.Body.Bytes(), &e); err != nil || len(e) != 1 || !strings.Contains(e["error"], `"nope"`) {
		t.Fatalf("error body = %q (%v), want one \"error\" key naming the benchmark", bad.Body, err)
	}
}

// checkCompactJSON asserts a shrecd JSON response's format: one compact
// JSON line ending in a newline, typed application/json, with a
// Content-Length equal to the body length.
func checkCompactJSON(t *testing.T, w *httptest.ResponseRecorder) {
	t.Helper()
	body := w.Body.Bytes()
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	if cl := w.Header().Get("Content-Length"); cl != strconv.Itoa(len(body)) {
		t.Errorf("Content-Length = %q, body is %d bytes", cl, len(body))
	}
	line, ok := bytes.CutSuffix(body, []byte("\n"))
	if !ok || bytes.ContainsAny(line, "\n") {
		t.Fatalf("body is not one line ending in a newline: %q", body)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, line); err != nil {
		t.Fatalf("body is not JSON: %v: %q", err, body)
	}
	if !bytes.Equal(compact.Bytes(), line) {
		t.Fatalf("body is not compact JSON: %q", body)
	}
}

// A value that cannot be encoded is a 500 with an error body, never a
// truncated 200.
func TestWriteJSONEncodeError(t *testing.T) {
	w := httptest.NewRecorder()
	writeJSON(w, http.StatusOK, map[string]float64{"ipc": math.NaN()})
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", w.Code)
	}
	checkCompactJSON(t, w)
	if !strings.Contains(w.Body.String(), "encoding response") {
		t.Fatalf("body = %q", w.Body)
	}
}

func TestSimulateValidation(t *testing.T) {
	h := testServer().Handler()
	cases := []struct {
		name, body string
		status     int
	}{
		{"bad json", `{`, http.StatusBadRequest},
		{"bad machine", `{"machine":"ss9","benchmark":"swim"}`, http.StatusBadRequest},
		{"bad benchmark", `{"machine":"ss1","benchmark":"nope"}`, http.StatusBadRequest},
		{"instr cap", `{"machine":"ss1","benchmark":"swim","measure_instrs":999999999}`, http.StatusBadRequest},
		{"instr cap uint64 wrap", `{"machine":"ss1","benchmark":"swim","warmup_instrs":9223372036854775808,"measure_instrs":9223372036854775808}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		if w := postJSON(t, h, "/simulate", c.body); w.Code != c.status {
			t.Errorf("%s: status = %d, want %d (%s)", c.name, w.Code, c.status, w.Body)
		}
	}
	// GET on a POST route must not dispatch.
	req := httptest.NewRequest(http.MethodGet, "/simulate", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /simulate status = %d, want 405", w.Code)
	}
}

// Duplicate concurrent requests for the same key execute one simulation.
func TestSimulateDeduplicatesConcurrentRequests(t *testing.T) {
	srv := testServer()
	h := srv.Handler()
	const callers = 16
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := postJSON(t, h, "/simulate", `{"machine":"ss1","benchmark":"parser"}`)
			if w.Code != http.StatusOK {
				t.Errorf("status = %d: %s", w.Code, w.Body)
			}
		}()
	}
	wg.Wait()
	if runs := srv.Sims().Counters().Runs; runs != 1 {
		t.Fatalf("%d duplicate requests ran %d simulations, want 1", callers, runs)
	}
}

func TestExperimentEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment endpoint runs 100 simulations; skipped in short mode")
	}
	// One server throughout: after the first GET fills the cache, every
	// other rendering re-runs from cached results in milliseconds.
	srv := testServer()
	h := srv.Handler()
	get := func(path, accept string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w
	}

	// Default format is JSON: a structured report.
	w := get("/experiments/fig7", "")
	if w.Code != http.StatusOK || !strings.Contains(w.Header().Get("Content-Type"), "application/json") {
		t.Fatalf("GET json: %d %s", w.Code, w.Header().Get("Content-Type"))
	}
	var rep struct {
		Name   string `json:"name"`
		Title  string `json:"title"`
		Tables []struct {
			Title   string   `json:"title"`
			Columns []string `json:"columns"`
			Rows    []struct {
				Label  string    `json:"label"`
				Values []float64 `json:"values"`
			} `json:"rows"`
		} `json:"tables"`
		Notes []string          `json:"notes"`
		Meta  map[string]string `json:"meta"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Name != "fig7" || len(rep.Tables) != 2 || len(rep.Notes) != 2 {
		t.Fatalf("report shape: %+v", rep)
	}
	if got := rep.Tables[0].Columns; len(got) != 5 || got[0] != "benchmark" || got[2] != "SHREC" {
		t.Fatalf("columns = %v", got)
	}
	if len(rep.Tables[0].Rows) != 11+3 { // 11 integer benchmarks + 3 aggregates
		t.Fatalf("%d rows", len(rep.Tables[0].Rows))
	}
	if rep.Meta["measure_instrs"] != "5000" {
		t.Fatalf("meta = %v", rep.Meta)
	}

	// ?format=text is the report's text rendering, byte for byte.
	w = get("/experiments/fig7?format=text", "")
	want, err := srv.exp.Run(context.Background(), "fig7")
	if err != nil {
		t.Fatal(err)
	}
	if w.Code != http.StatusOK || w.Body.String() != want.String() {
		t.Fatalf("text format diverges from Report.String (%d)", w.Code)
	}

	// CSV via Accept-header negotiation.
	w = get("/experiments/fig7", "text/csv")
	if w.Code != http.StatusOK || !strings.Contains(w.Header().Get("Content-Type"), "text/csv") {
		t.Fatalf("GET csv: %d %s", w.Code, w.Header().Get("Content-Type"))
	}
	if !strings.HasPrefix(w.Body.String(), "experiment,table,label,class,high,aggregate,column,value\n") {
		t.Fatalf("csv header: %q", w.Body.String()[:80])
	}
	if !strings.Contains(w.Body.String(), "fig7,") {
		t.Fatal("csv missing fig7 rows")
	}

	// Unknown format is a 400 before any simulation runs.
	if w = get("/experiments/fig7?format=xml", ""); w.Code != http.StatusBadRequest {
		t.Fatalf("format=xml status = %d", w.Code)
	}

	// The pre-report POST shape is gone: the path only answers GET.
	if w = postJSON(t, h, "/experiments/fig7", ``); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /experiments/fig7 status = %d, want 405", w.Code)
	}
}

func TestExperimentCatalog(t *testing.T) {
	h := testServer().Handler()
	req := httptest.NewRequest(http.MethodGet, "/experiments", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	var resp struct {
		Experiments []struct {
			Name  string `json:"name"`
			Title string `json:"title"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Experiments) != 10 {
		t.Fatalf("catalog = %+v", resp.Experiments)
	}
	if resp.Experiments[0].Name != "fig2" || resp.Experiments[0].Title == "" {
		t.Fatalf("catalog[0] = %+v", resp.Experiments[0])
	}
}

func TestExperimentUnknown(t *testing.T) {
	h := testServer().Handler()
	req := httptest.NewRequest(http.MethodGet, "/experiments/fig99", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", w.Code)
	}
}

func TestResultsEndpoint(t *testing.T) {
	srv := testServer()
	h := srv.Handler()
	for _, b := range []string{"swim", "parser"} {
		w := postJSON(t, h, "/simulate", fmt.Sprintf(`{"machine":"ss1","benchmark":%q}`, b))
		if w.Code != http.StatusOK {
			t.Fatalf("simulate %s: %d", b, w.Code)
		}
	}

	req := httptest.NewRequest(http.MethodGet, "/results", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	var resp struct {
		Count   int `json:"count"`
		Runs    int `json:"runs"`
		Results []struct {
			Machine   string  `json:"machine"`
			Benchmark string  `json:"benchmark"`
			IPC       float64 `json:"ipc"`
		} `json:"results"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != 2 || resp.Runs != 2 || len(resp.Results) != 2 {
		t.Fatalf("results = %+v", resp)
	}
	// Sorted by machine then benchmark: parser before swim.
	if resp.Results[0].Benchmark != "parser" || resp.Results[1].Benchmark != "swim" {
		t.Fatalf("unsorted results: %+v", resp.Results)
	}
}

// TestHealthz pins the exact /healthz key set, for a bare server and for
// one with a result store and job journal attached (which add the store
// and journal objects).
func TestHealthz(t *testing.T) {
	counters := []string{
		"runs", "hits", "cache_hits", "cache_misses", "dedup_waits", "store_hits",
		"store_errors", "warmup_shares", "recovery_runs", "rollbacks",
		"tape_builds", "tape_hits",
	}
	base := append([]string{"status", "uptime_s", "max_concurrent", "shed_requests"}, counters...)
	rs, js := openJournalStores(t, t.TempDir())
	defer rs.Close()
	defer js.Close()
	opt := sim.Options{WarmupInstrs: 2000, MeasureInstrs: 5000}
	withStores := NewWith(Config{DefaultOptions: opt, Store: rs, Journal: js}, sim.NewSuite(opt))
	defer withStores.Close()

	for _, c := range []struct {
		name string
		srv  *Server
		keys []string
	}{
		{"bare", testServer(), base},
		{"store+journal", withStores, append([]string{"store", "journal"}, base...)},
	} {
		var health map[string]json.RawMessage
		if code := getJSON(t, c.srv.Handler(), "/healthz", &health); code != http.StatusOK {
			t.Fatalf("%s: healthz = %d", c.name, code)
		}
		if string(health["status"]) != `"ok"` {
			t.Errorf("%s: status = %s", c.name, health["status"])
		}
		got := slices.Sorted(maps.Keys(health))
		want := slices.Sorted(slices.Values(c.keys))
		if !slices.Equal(got, want) {
			t.Errorf("%s: healthz keys = %v, want %v", c.name, got, want)
		}
		if j, ok := health["journal"]; ok {
			var journal map[string]json.RawMessage
			if err := json.Unmarshal(j, &journal); err != nil {
				t.Fatal(err)
			}
			got := slices.Sorted(maps.Keys(journal))
			if want := []string{"depth", "readopted", "replayed", "store", "wedged"}; !slices.Equal(got, want) {
				t.Errorf("journal keys = %v, want %v", got, want)
			}
		}
	}
}

func TestMetrics(t *testing.T) {
	srv := testServer()
	h := srv.Handler()
	// One miss plus one duplicate make the counters observable.
	for i := 0; i < 2; i++ {
		if w := postJSON(t, h, "/simulate", `{"machine":"ss1","benchmark":"swim"}`); w.Code != http.StatusOK {
			t.Fatalf("simulate: %d", w.Code)
		}
	}
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	body := w.Body.String()
	// Every suite counter is exported as its own family, each sample equal
	// to the suite's snapshot after the requests above.
	raw, err := json.Marshal(srv.Sims().Counters())
	if err != nil {
		t.Fatal(err)
	}
	var counters map[string]uint64
	if err := json.Unmarshal(raw, &counters); err != nil {
		t.Fatal(err)
	}
	if counters["runs"] != 1 || counters["hits"] != 1 {
		t.Fatalf("counters = %v, want one run and one hit", counters)
	}
	families := []string{
		"shrecd_sim_runs_total",
		"shrecd_sim_hits_total",
		"shrecd_sim_cache_hits_total",
		"shrecd_sim_cache_misses_total",
		"shrecd_sim_dedup_waits_total",
		"shrecd_sim_store_hits_total",
		"shrecd_sim_store_errors_total",
		"shrecd_sim_warmup_shares_total",
		"shrecd_sim_recovery_runs_total",
		"shrecd_sim_rollbacks_total",
		"shrecd_sim_tape_builds_total",
		"shrecd_sim_tape_hits_total",
	}
	if len(counters) != len(families) {
		t.Fatalf("%d counters for %d pinned families: %v", len(counters), len(families), counters)
	}
	for _, family := range families {
		name := strings.TrimSuffix(strings.TrimPrefix(family, "shrecd_sim_"), "_total")
		v, ok := counters[name]
		if !ok {
			t.Errorf("family %s has no counter %q", family, name)
			continue
		}
		if want := fmt.Sprintf("\n%s %d\n", family, v); !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", strings.TrimSpace(want), body)
		}
	}
	for _, want := range []string{"shrecd_results_cached 1", "shrecd_uptime_seconds"} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}
