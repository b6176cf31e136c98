package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// serveLogged sends one request through a wrapped mux whose access log
// goes to a JSON handler at the given level, and returns the records.
func serveLogged(t *testing.T, level slog.Level) []map[string]any {
	t.Helper()
	var buf bytes.Buffer
	log := slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: level}))
	mux := http.NewServeMux()
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	})
	h := NewHTTPMetrics(NewRegistry(), "test", log).Wrap(mux)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/jobs/7", nil))
	if got := w.Header().Get("X-Request-Id"); got != "req-000001" {
		t.Errorf("X-Request-Id = %q, want req-000001", got)
	}
	var recs []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		recs = append(recs, rec)
	}
	return recs
}

// The access log builds its record only when the handler is enabled for
// the level, and then still carries every attribute.
func TestAccessLogEnabled(t *testing.T) {
	recs := serveLogged(t, slog.LevelDebug)
	if len(recs) != 1 || recs[0]["msg"] != "http request" {
		t.Fatalf("debug handler: records = %v, want one http request", recs)
	}
	rec := recs[0]
	want := map[string]any{
		"request_id": "req-000001",
		"method":     "GET",
		"path":       "/jobs/7",
		"route":      "GET /jobs/{id}",
		"status":     float64(http.StatusTeapot),
	}
	for k, v := range want {
		if rec[k] != v {
			t.Errorf("%s = %v, want %v", k, rec[k], v)
		}
	}
	if _, ok := rec["elapsed_ms"].(float64); !ok {
		t.Errorf("elapsed_ms = %v, want a number", rec["elapsed_ms"])
	}

	if recs := serveLogged(t, slog.LevelInfo); len(recs) != 0 {
		t.Fatalf("info handler: records = %v, want none", recs)
	}
}

func TestRequestID(t *testing.T) {
	for _, n := range []uint64{0, 1, 42, 999999, 1000000, 1<<64 - 1} {
		if got, want := requestID(n), fmt.Sprintf("req-%06d", n); got != want {
			t.Errorf("requestID(%d) = %q, want %q", n, got, want)
		}
	}
}

// The Enabled check is what keeps a request the access log drops from
// paying for its record: boxing the six attributes into the variadic
// slice costs allocations even when slog then discards the record. The
// bare mux serving the same request is the baseline, so only the
// wrapper's own allocations are counted: 7 with the check, 11 when the
// attributes are built unconditionally (Go 1.24).
func TestAccessLogDisabledAllocs(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {})
	log := slog.New(slog.NewJSONHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo}))
	h := NewHTTPMetrics(NewRegistry(), "test", log).Wrap(mux)
	req := httptest.NewRequest(http.MethodGet, "/jobs/7", nil)
	serve := func(h http.Handler) func() {
		return func() { h.ServeHTTP(httptest.NewRecorder(), req) }
	}
	serve(h)() // register the route's metric series
	wrapper := testing.AllocsPerRun(200, serve(h)) - testing.AllocsPerRun(200, serve(mux))
	if wrapper > 7 {
		t.Errorf("wrapper allocates %v per dropped request, want at most 7", wrapper)
	}
}
