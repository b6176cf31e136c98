// Package telemetry is the dependency-free observability kernel of the
// repro stack: a typed metrics registry (atomic counters, gauges,
// exponential-bucket histograms, and labeled families of all three) with
// a Prometheus text-format renderer, a lightweight span API for
// accumulating named phase timings along a request or job path, an
// exposition-format linter the tests pin the renderer with, structured
// logging construction for the CLIs, and HTTP server middleware
// (per-route counts, in-flight gauge, latency histograms, request IDs).
//
// Everything here is stdlib-only and safe for concurrent use. The hot
// observation paths (Counter.Add, Gauge.Set, Histogram.Observe,
// Span.Record) are allocation-free so instrumentation can ride run
// boundaries without disturbing the engine's zero-alloc guarantees;
// registration and rendering may allocate freely.
package telemetry

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric and label names follow the Prometheus exposition charset.
var (
	nameRE  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRE = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// Counter is a monotonically increasing counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down. It stores a float64.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram: observations are counted into
// the first bucket whose upper bound is >= the value, with an implicit
// +Inf bucket catching the rest. Buckets are cumulative only at render
// time, so Observe is a couple of atomic adds.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// BucketCount is one cumulative histogram bucket in a snapshot.
type BucketCount struct {
	UpperBound float64 // +Inf for the last bucket
	Count      uint64  // observations <= UpperBound
}

// HistogramSnapshot is a consistent-enough read of a histogram (buckets
// are read without a global lock, so a snapshot taken mid-observation
// can be off by the in-flight sample — fine for monitoring).
type HistogramSnapshot struct {
	Count   uint64
	Sum     float64
	Buckets []BucketCount // cumulative, ending with +Inf
}

// Snapshot reads the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:   h.count.Load(),
		Sum:     math.Float64frombits(h.sum.Load()),
		Buckets: make([]BucketCount, len(h.counts)),
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		ub := math.Inf(1)
		if i < len(h.bounds) {
			ub = h.bounds[i]
		}
		s.Buckets[i] = BucketCount{UpperBound: ub, Count: cum}
	}
	return s
}

// Quantile estimates the q-quantile (q in [0,1]) by linear interpolation
// within the containing bucket, the same estimate Prometheus's
// histogram_quantile computes. Returns NaN on an empty histogram; a
// quantile landing in the +Inf bucket returns the last finite bound.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	for i, b := range s.Buckets {
		if float64(b.Count) < rank {
			continue
		}
		if math.IsInf(b.UpperBound, 1) {
			if i == 0 {
				return math.NaN()
			}
			return s.Buckets[i-1].UpperBound
		}
		lo, prev := 0.0, uint64(0)
		if i > 0 {
			lo, prev = s.Buckets[i-1].UpperBound, s.Buckets[i-1].Count
		}
		in := b.Count - prev
		if in == 0 {
			return b.UpperBound
		}
		return lo + (b.UpperBound-lo)*(rank-float64(prev))/float64(in)
	}
	return s.Buckets[len(s.Buckets)-1].UpperBound
}

// ExponentialBuckets returns n upper bounds starting at start, each
// factor times the previous — the standard shape for latency
// distributions spanning several orders of magnitude.
func ExponentialBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("telemetry: invalid exponential buckets (start=%g factor=%g n=%d)", start, factor, n))
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// DefTimeBuckets covers 100µs to ~52s doubling — per-stage and
// per-request latencies.
func DefTimeBuckets() []float64 { return ExponentialBuckets(100e-6, 2, 20) }

// WideTimeBuckets covers 1ms to ~1.2h quadrupling — whole-job durations.
func WideTimeBuckets() []float64 { return ExponentialBuckets(1e-3, 4, 12) }

// Metric kinds.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// series is one label combination of a family: exactly one of the value
// fields is set.
type series struct {
	labelValues []string
	counter     *Counter
	gauge       *Gauge
	hist        *Histogram
	counterFn   func() uint64
	gaugeFn     func() float64
}

// family is one named metric with all its label combinations.
type family struct {
	name   string
	help   string
	kind   string
	labels []string
	bounds []float64 // histogram families only

	mu     sync.Mutex
	series map[string]*series
}

// labelKey joins label values into the series map key.
func labelKey(values []string) string { return strings.Join(values, "\x00") }

// with returns (creating if needed) the series for the given values.
func (f *family) with(values []string, make func() *series) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: metric %s expects %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	k := labelKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[k]; ok {
		return s
	}
	s := make()
	s.labelValues = append([]string(nil), values...)
	f.series[k] = s
	return s
}

// sorted returns the family's series sorted by label values for
// deterministic rendering.
func (f *family) sorted() []*series {
	f.mu.Lock()
	out := make([]*series, 0, len(f.series))
	for _, s := range f.series {
		out = append(out, s)
	}
	f.mu.Unlock()
	sort.Slice(out, func(a, b int) bool {
		return labelKey(out[a].labelValues) < labelKey(out[b].labelValues)
	})
	return out
}

// Registry holds metric families and renders them in Prometheus text
// format. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// register returns the family for name, creating it on first use, and
// panics on a respelled re-registration (different kind or labels): that
// is a programming error the first scrape would otherwise render as
// malformed exposition text.
func (r *Registry) register(name, help, kind string, labels []string, bounds []float64) *family {
	if !nameRE.MatchString(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !labelRE.MatchString(l) {
			panic(fmt.Sprintf("telemetry: metric %s: invalid label name %q", name, l))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != kind || !equalStrings(f.labels, labels) {
			panic(fmt.Sprintf("telemetry: metric %s re-registered as %s%v, was %s%v",
				name, kind, labels, f.kind, f.labels))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind,
		labels: append([]string(nil), labels...),
		bounds: append([]float64(nil), bounds...),
		series: make(map[string]*series)}
	r.fams[name] = f
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Counter registers (or returns) the unlabeled counter name.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, kindCounter, nil, nil)
	return f.with(nil, func() *series { return &series{counter: &Counter{}} }).counter
}

// CounterFunc registers a counter whose value is sampled from fn at
// render time — for existing atomics owned by another subsystem.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	f := r.register(name, help, kindCounter, nil, nil)
	f.with(nil, func() *series { return &series{counterFn: fn} })
}

// Gauge registers (or returns) the unlabeled gauge name.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, kindGauge, nil, nil)
	return f.with(nil, func() *series { return &series{gauge: &Gauge{}} }).gauge
}

// GaugeFunc registers a gauge sampled from fn at render time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, kindGauge, nil, nil)
	f.with(nil, func() *series { return &series{gaugeFn: fn} })
}

// Histogram registers (or returns) the unlabeled histogram name with the
// given bucket upper bounds (nil means DefTimeBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefTimeBuckets()
	}
	f := r.register(name, help, kindHistogram, nil, bounds)
	return f.with(nil, func() *series { return &series{hist: newHistogram(f.bounds)} }).hist
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// CounterVec registers (or returns) the counter family name with the
// given label names.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, kindCounter, labels, nil)}
}

// With returns the counter for the given label values, creating it on
// first use.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.with(values, func() *series { return &series{counter: &Counter{}} }).counter
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// HistogramVec registers (or returns) the histogram family name with the
// given buckets (nil means DefTimeBuckets) and label names.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if bounds == nil {
		bounds = DefTimeBuckets()
	}
	return &HistogramVec{r.register(name, help, kindHistogram, labels, bounds)}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.with(values, func() *series { return &series{hist: newHistogram(v.f.bounds)} }).hist
}

// LabeledHistogram pairs one series' label values with its snapshot.
type LabeledHistogram struct {
	Labels   []string
	Snapshot HistogramSnapshot
}

// Snapshots reads every series of the family, sorted by label values —
// the facade's stage summaries are built from this.
func (v *HistogramVec) Snapshots() []LabeledHistogram {
	var out []LabeledHistogram
	for _, s := range v.f.sorted() {
		out = append(out, LabeledHistogram{Labels: s.labelValues, Snapshot: s.hist.Snapshot()})
	}
	return out
}
