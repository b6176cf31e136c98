package telemetry

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Span accumulates named phase timings along one logical operation — a
// job, a request, a campaign. Phases are cumulative: recording the same
// phase twice adds to its count and total, so a campaign of 500 trials
// reports one "trial" phase with count 500. All methods are nil-safe
// no-ops, so code paths instrument unconditionally and pay nothing when
// no span is attached.
type Span struct {
	mu     sync.Mutex
	phases map[string]*spanPhase
	order  []*spanPhase
	tee    func(phase string, seconds float64)
}

// spanPhase is one named phase's accumulator. The atomics let concurrent
// trial goroutines record without serializing on the span lock once the
// phase exists.
type spanPhase struct {
	name  string
	count atomic.Uint64
	nanos atomic.Int64
}

// NewSpan builds an empty span.
func NewSpan() *Span {
	return &Span{phases: make(map[string]*spanPhase)}
}

// Tee forwards every Record to fn as well (phase name, duration in
// seconds) — the shrecd server uses it to aggregate per-job phase
// timings into registry histograms. Returns s for chaining.
func (s *Span) Tee(fn func(phase string, seconds float64)) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	s.tee = fn
	s.mu.Unlock()
	return s
}

// Record adds one observation of d to the named phase.
func (s *Span) Record(phase string, d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	p, ok := s.phases[phase]
	if !ok {
		p = &spanPhase{name: phase}
		s.phases[phase] = p
		s.order = append(s.order, p)
	}
	tee := s.tee
	s.mu.Unlock()
	p.count.Add(1)
	p.nanos.Add(int64(d))
	if tee != nil {
		tee(phase, d.Seconds())
	}
}

// PhaseStat is one phase of a span breakdown, as surfaced in job status
// JSON.
type PhaseStat struct {
	Phase   string  `json:"phase"`
	Count   uint64  `json:"count"`
	Seconds float64 `json:"seconds"`
}

// Breakdown snapshots every phase in first-recorded order. Nil and empty
// spans return nil.
func (s *Span) Breakdown() []PhaseStat {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	order := append([]*spanPhase(nil), s.order...)
	s.mu.Unlock()
	out := make([]PhaseStat, 0, len(order))
	for _, p := range order {
		out = append(out, PhaseStat{
			Phase:   p.name,
			Count:   p.count.Load(),
			Seconds: time.Duration(p.nanos.Load()).Seconds(),
		})
	}
	return out
}

// Context threading: spans and stage observers ride the context through
// the request path (HTTP handler → job goroutine → campaign trials →
// sim.Suite stages → recovery rollbacks), so deeply nested layers
// instrument without new parameters.

type spanKey struct{}
type stageObserverKey struct{}

// WithSpan attaches a span to the context.
func WithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFrom returns the context's span, or nil (whose methods no-op).
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// WithStageObserver attaches a stage-timing observer to the context.
// sim.Suite installs its registry histogram here before running an
// engine, so layers below it (recovery rollbacks) can feed the same
// sim_stage_seconds family without importing the suite.
func WithStageObserver(ctx context.Context, fn func(stage string, seconds float64)) context.Context {
	return context.WithValue(ctx, stageObserverKey{}, fn)
}

// ObserveStage records one stage duration into both the context's stage
// observer (registry histograms) and its span (job phase breakdowns).
func ObserveStage(ctx context.Context, stage string, d time.Duration) {
	if fn, _ := ctx.Value(stageObserverKey{}).(func(string, float64)); fn != nil {
		fn(stage, d.Seconds())
	}
	SpanFrom(ctx).Record(stage, d)
}
