package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/retry"
)

// Remote is an HTTP client for a shrecd server, with the edge hardening
// a flaky network (or a loaded server) requires baked in: every request
// retries transient failures with jittered exponential backoff under the
// caller's context, honoring 429/503 Retry-After hints from the
// server's load shedding, while 4xx validation failures fail
// immediately. It lets a driver script treat a remote shrecd like the
// in-process Client: submit a campaign, poll or wait, read the report.
type Remote struct {
	base     *url.URL
	hc       *http.Client
	policy   retry.Policy
	poll     time.Duration
	counters retry.Counters
}

// RemoteOption configures a Remote.
type RemoteOption func(*Remote)

// WithHTTPClient substitutes the transport (default: a client with a
// 30s per-request timeout).
func WithHTTPClient(hc *http.Client) RemoteOption {
	return func(r *Remote) { r.hc = hc }
}

// WithRetryPolicy overrides the retry behavior (default: 5 attempts,
// 100ms base delay doubling to 5s, half jitter).
func WithRetryPolicy(maxAttempts int, baseDelay, maxDelay time.Duration) RemoteOption {
	return func(r *Remote) {
		r.policy = retry.Policy{MaxAttempts: maxAttempts, BaseDelay: baseDelay, MaxDelay: maxDelay, Jitter: 0.5}
	}
}

// WithPollInterval sets how often Wait polls the job status (default
// 250ms).
func WithPollInterval(d time.Duration) RemoteOption {
	return func(r *Remote) { r.poll = d }
}

// NewRemote builds a client for the shrecd server at baseURL
// (e.g. "http://localhost:8080").
func NewRemote(baseURL string, opts ...RemoteOption) (*Remote, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("repro: parsing base URL: %w", err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("repro: base URL %q needs a scheme and host", baseURL)
	}
	r := &Remote{
		base:   u,
		hc:     &http.Client{Timeout: 30 * time.Second},
		policy: retry.Default(),
		poll:   250 * time.Millisecond,
	}
	for _, o := range opts {
		o(r)
	}
	// Attach the counters after the options ran: WithRetryPolicy replaces
	// the whole policy value, and the counters must survive that.
	r.policy.Counters = &r.counters
	return r, nil
}

// RemoteMetrics is a snapshot of what the client's retry loops did
// across every request this Remote issued: how many HTTP attempts went
// out, how many were retries of a transient failure, and how many
// requests gave up (on a permanent 4xx-class error, or by exhausting
// the policy's attempts).
type RemoteMetrics struct {
	Attempts          uint64 `json:"attempts"`
	Retries           uint64 `json:"retries"`
	PermanentFailures uint64 `json:"permanent_failures"`
	Exhausted         uint64 `json:"exhausted"`
}

// Metrics reads the client's cumulative retry counters. Safe to call
// concurrently with in-flight requests.
func (r *Remote) Metrics() RemoteMetrics {
	return RemoteMetrics{
		Attempts:          r.counters.Attempts.Load(),
		Retries:           r.counters.Retries.Load(),
		PermanentFailures: r.counters.Permanent.Load(),
		Exhausted:         r.counters.Exhausted.Load(),
	}
}

// do issues one retried request: body (when non-nil) is sent as JSON,
// and the response body is decoded into out (when non-nil). Transient
// failures — network errors, 5xx, and shed 429s — are retried per the
// policy; a 429/503 Retry-After header overrides the backoff.
func (r *Remote) do(ctx context.Context, method, path string, body, out any) error {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return fmt.Errorf("repro: encoding %s %s body: %w", method, path, err)
		}
	}
	u := r.base.JoinPath(path).String()
	return r.policy.Do(ctx, func(ctx context.Context) error {
		var rd io.Reader
		if payload != nil {
			rd = bytes.NewReader(payload)
		}
		req, err := http.NewRequestWithContext(ctx, method, u, rd)
		if err != nil {
			return retry.Permanent(err)
		}
		if payload != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := r.hc.Do(req)
		if err != nil {
			return err // network errors are transient by default
		}
		defer resp.Body.Close()
		if resp.StatusCode >= 400 {
			return classifyHTTP(resp)
		}
		if out == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			return nil
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return retry.Permanent(fmt.Errorf("repro: decoding %s %s response: %w", method, path, err))
		}
		return nil
	})
}

// classifyHTTP turns an error response into a retryable or permanent
// error. 429 (shed/saturated) and 503 honor Retry-After; other 5xx
// retry on the computed backoff; remaining 4xx are the caller's fault
// and fail immediately.
func classifyHTTP(resp *http.Response) error {
	msg := errorMessage(resp)
	err := fmt.Errorf("repro: %s %s: %s (%s)",
		resp.Request.Method, resp.Request.URL.Path, resp.Status, msg)
	switch {
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		if d, ok := parseRetryAfter(resp.Header.Get("Retry-After")); ok {
			return retry.After(err, d)
		}
		return err
	case resp.StatusCode >= 500:
		return err
	default:
		return retry.Permanent(err)
	}
}

// errorMessage extracts the server's {"error": ...} body, bounded.
func errorMessage(resp *http.Response) string {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(raw))
}

// parseRetryAfter parses the delay-seconds form of Retry-After (the
// form shrecd emits); HTTP-date forms are ignored and fall back to the
// computed backoff.
func parseRetryAfter(v string) (time.Duration, bool) {
	if v == "" {
		return 0, false
	}
	secs, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || secs < 0 {
		return 0, false
	}
	return time.Duration(secs) * time.Second, true
}

// RemoteSimulation is the POST /simulate response.
type RemoteSimulation struct {
	Machine   string          `json:"machine"`
	Benchmark string          `json:"benchmark"`
	Class     string          `json:"class"`
	HighIPC   bool            `json:"high_ipc"`
	IPC       float64         `json:"ipc"`
	CPI       float64         `json:"cpi"`
	Options   Options         `json:"options"`
	Stats     json.RawMessage `json:"stats"`
}

// Simulate runs one (machine, benchmark) pair on the server.
func (r *Remote) Simulate(ctx context.Context, machine, benchmark string) (RemoteSimulation, error) {
	var out RemoteSimulation
	err := r.do(ctx, http.MethodPost, "/simulate",
		map[string]string{"machine": machine, "benchmark": benchmark}, &out)
	return out, err
}

// Health fetches /healthz as raw JSON (store integrity, journal depth,
// cache counters).
func (r *Remote) Health(ctx context.Context) (json.RawMessage, error) {
	var out json.RawMessage
	err := r.do(ctx, http.MethodGet, "/healthz", nil, &out)
	return out, err
}

// RemoteJob identifies an asynchronous job on the server: its id and
// the status URL (a path on the server) that Status and Wait poll, both
// as the server returned them when it accepted the job.
type RemoteJob struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// RemoteJobStatus is a campaign or exploration status snapshot: the
// kind-specific spec/progress/report stay raw so one shape serves both.
type RemoteJobStatus struct {
	ID       string          `json:"id"`
	State    string          `json:"state"`
	Error    string          `json:"error,omitempty"`
	Progress json.RawMessage `json:"progress,omitempty"`
	Report   json.RawMessage `json:"report,omitempty"`
}

// Done reports whether the job reached a terminal state.
func (s RemoteJobStatus) Done() bool { return s.State == "done" || s.State == "failed" }

// Err converts a failed status into an error.
func (s RemoteJobStatus) Err() error {
	if s.State == "failed" {
		return fmt.Errorf("repro: remote job %s failed: %s", s.ID, s.Error)
	}
	return nil
}

// StartCampaign submits a fault-injection campaign; duplicate
// submissions of the same normalized spec join the running job.
func (r *Remote) StartCampaign(ctx context.Context, spec CampaignSpec) (RemoteJob, error) {
	var out RemoteJob
	err := r.do(ctx, http.MethodPost, "/campaigns", spec, &out)
	return out, err
}

// StartExploration submits a design-space exploration.
func (r *Remote) StartExploration(ctx context.Context, spec ExploreSpec) (RemoteJob, error) {
	var out RemoteJob
	err := r.do(ctx, http.MethodPost, "/explorations", spec, &out)
	return out, err
}

// jobPath validates the status URL of a job handle: the url field
// comes from the server's response, so anything but a bare absolute
// path (no scheme, host, query or fragment) is refused rather than
// followed.
func jobPath(job RemoteJob) (string, error) {
	u, err := url.Parse(job.URL)
	if err != nil || u.Scheme != "" || u.Host != "" || u.RawQuery != "" || u.Fragment != "" ||
		!strings.HasPrefix(u.Path, "/") {
		return "", fmt.Errorf("repro: job %s: status url %q is not an absolute path", job.ID, job.URL)
	}
	return u.Path, nil
}

// Status polls one campaign or exploration at the status URL the server
// returned when it accepted the job.
func (r *Remote) Status(ctx context.Context, job RemoteJob) (RemoteJobStatus, error) {
	path, err := jobPath(job)
	if err != nil {
		return RemoteJobStatus{}, err
	}
	var out RemoteJobStatus
	err = r.do(ctx, http.MethodGet, path, nil, &out)
	return out, err
}

// Wait polls the job's status until it finishes (or ctx ends). A
// "failed" terminal state is returned as an error alongside the status.
// Transient poll failures are already retried inside each poll; a
// permanently failing poll aborts the wait.
func (r *Remote) Wait(ctx context.Context, job RemoteJob) (RemoteJobStatus, error) {
	t := time.NewTicker(r.poll)
	defer t.Stop()
	for {
		st, err := r.Status(ctx, job)
		if err != nil {
			return st, err
		}
		if st.Done() {
			return st, st.Err()
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-t.C:
		}
	}
}
