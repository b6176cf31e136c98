package telemetry

import (
	"context"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// HTTPMetrics instruments an http.ServeMux: per-route request counts by
// status class, an in-flight gauge, per-route latency histograms, a
// request ID on every request (context + X-Request-Id header), and a
// structured access log carrying all of it.
type HTTPMetrics struct {
	requests *CounterVec   // {route, code}: code is the status class ("2xx")
	latency  *HistogramVec // {route}
	inflight *Gauge
	log      *slog.Logger
	nextID   atomic.Uint64
}

// NewHTTPMetrics registers the middleware's families on reg under the
// given namespace (e.g. "shrecd" → shrecd_http_requests_total). A nil
// logger discards the access log.
func NewHTTPMetrics(reg *Registry, namespace string, log *slog.Logger) *HTTPMetrics {
	if log == nil {
		log = NopLogger()
	}
	return &HTTPMetrics{
		requests: reg.CounterVec(namespace+"_http_requests_total",
			"HTTP requests served, by route pattern and status class.", "route", "code"),
		latency: reg.HistogramVec(namespace+"_http_request_seconds",
			"HTTP request latency by route pattern.", DefTimeBuckets(), "route"),
		inflight: reg.Gauge(namespace+"_http_in_flight",
			"HTTP requests currently being served."),
		log: log,
	}
}

type requestIDKey struct{}

// WithRequestID attaches a request ID to the context.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestIDFrom returns the context's request ID ("" when absent), so
// handlers can stamp it onto their own log records.
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// statusRecorder captures the response status for the metrics and log.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// Unwrap supports http.ResponseController passthrough.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// Wrap instruments the mux. The route label is the mux pattern that
// matched ("GET /campaigns/{id}"), never the raw URL — raw paths would
// explode label cardinality with every distinct job id scraped.
func (m *HTTPMetrics) Wrap(mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := requestID(m.nextID.Add(1))
		r = r.WithContext(WithRequestID(r.Context(), id))
		w.Header().Set("X-Request-Id", id)

		route := "unmatched"
		if _, pattern := mux.Handler(r); pattern != "" {
			route = pattern
		}
		rec := &statusRecorder{ResponseWriter: w}
		m.inflight.Add(1)
		start := time.Now()
		mux.ServeHTTP(rec, r)
		elapsed := time.Since(start)
		m.inflight.Add(-1)

		if rec.code == 0 {
			rec.code = http.StatusOK
		}
		m.requests.With(route, statusClass(rec.code)).Inc()
		m.latency.With(route).Observe(elapsed.Seconds())

		lv := slog.LevelDebug
		if rec.code >= 500 {
			lv = slog.LevelWarn
		}
		// Build the record's attributes only when a handler will take it:
		// at the default info level a non-5xx request logs nothing.
		if ctx := r.Context(); m.log.Enabled(ctx, lv) {
			m.log.Log(ctx, lv, "http request",
				"request_id", id,
				"method", r.Method,
				"path", r.URL.Path,
				"route", route,
				"status", rec.code,
				"elapsed_ms", float64(elapsed.Microseconds())/1000)
		}
	})
}

// requestID formats the n-th request's ID as "req-%06d" would, without
// going through fmt.
func requestID(n uint64) string {
	var b [20]byte
	digits := strconv.AppendUint(b[:0], n, 10)
	return "req-" + "000000"[:max(6-len(digits), 0)] + string(digits)
}

// statusClass buckets a status code ("2xx", "4xx", ...).
func statusClass(code int) string {
	if code < 100 || code > 599 {
		return "other"
	}
	return strconv.Itoa(code/100) + "xx"
}
