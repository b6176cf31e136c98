package sim

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Concurrent callers requesting the same (machine, benchmark, options)
// key must share exactly one underlying run (singleflight), and all
// observe identical results. Run with -race in CI.
func TestConcurrentGetSingleflight(t *testing.T) {
	s := NewSuite(tinyOpts())
	m := config.SHREC()
	p, err := workload.ByName("swim")
	if err != nil {
		t.Fatal(err)
	}

	const callers = 64
	results := make([]Result, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := s.Get(context.Background(), m, p)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()

	c := s.Counters()
	if c.Runs != 1 {
		t.Fatalf("%d concurrent callers triggered %d runs, want exactly 1", callers, c.Runs)
	}
	if c.Hits != callers-1 {
		t.Fatalf("hits = %d, want %d", c.Hits, callers-1)
	}
	// The split counters must agree: exactly one cache miss (the owner),
	// and every other caller either joined the in-flight run or hit the
	// cache after it finished.
	if c.CacheMisses != 1 {
		t.Fatalf("cache misses = %d, want 1", c.CacheMisses)
	}
	if c.CacheHits+c.DedupWaits != callers-1 {
		t.Fatalf("cache hits %d + dedup waits %d != %d", c.CacheHits, c.DedupWaits, callers-1)
	}
	for i := 1; i < callers; i++ {
		if results[i].Stats != results[0].Stats {
			t.Fatalf("caller %d observed a different result", i)
		}
	}
}

// The cache-effectiveness counters must classify each serving path:
// in-memory hit, miss-to-run, and miss-to-store.
func TestCacheCounterSplit(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(filepath.Join(dir, "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	s := NewSuite(tinyOpts()).WithStore(st)
	m := config.SS1()
	p, _ := workload.ByName("gzip-graphic")
	ctx := context.Background()

	if _, err := s.Get(ctx, m, p); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(ctx, m, p); err != nil {
		t.Fatal(err)
	}
	if got, want := s.Counters(), (Counters{Runs: 1, Hits: 1, CacheHits: 1, CacheMisses: 1, TapeBuilds: 1}); got != want {
		t.Fatalf("after warm get: %+v, want %+v", got, want)
	}

	// A fresh suite over the same store must classify the serve as a
	// cache miss satisfied by the store, not a run.
	s2 := NewSuite(tinyOpts()).WithStore(st)
	if _, err := s2.Get(ctx, m, p); err != nil {
		t.Fatal(err)
	}
	if got, want := s2.Counters(), (Counters{Hits: 1, CacheMisses: 1, StoreHits: 1}); got != want {
		t.Fatalf("store-backed get: %+v, want %+v", got, want)
	}
}

// Every Counters field carries the JSON and help tags its /metrics
// family and JSON key derive from, and Summary renders runs plus the
// nonzero counters in declaration order.
func TestCounterFields(t *testing.T) {
	seen := map[string]bool{}
	for _, f := range CounterFields {
		if f.Name == "" || f.Help == "" || seen[f.Name] {
			t.Errorf("counter field %+v: missing or duplicate tag", f)
		}
		seen[f.Name] = true
	}
	if len(CounterFields) != reflect.TypeFor[Counters]().NumField() {
		t.Fatalf("%d counter fields for %d struct fields", len(CounterFields), reflect.TypeFor[Counters]().NumField())
	}
	c := Counters{Hits: 3, StoreHits: 3}
	if got, want := c.Summary(), "runs=0 hits=3 store_hits=3"; got != want {
		t.Fatalf("Summary() = %q, want %q", got, want)
	}
	for _, f := range CounterFields {
		if f.Name == "store_hits" && f.Value(c) != 3 {
			t.Fatalf("store_hits field reads %d, want 3", f.Value(c))
		}
	}
}

// Different options must not share a run: the key includes run lengths.
func TestDistinctOptionsDistinctRuns(t *testing.T) {
	s := NewSuite(tinyOpts())
	m := config.SS1()
	p, _ := workload.ByName("gzip-graphic")
	ctx := context.Background()

	short := tinyOpts()
	long := tinyOpts()
	long.MeasureInstrs *= 2

	a, err := s.GetOpt(ctx, m, p, short)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.GetOpt(ctx, m, p, long)
	if err != nil {
		t.Fatal(err)
	}
	if s.Counters().Runs != 2 {
		t.Fatalf("runs = %d, want 2 (distinct options)", s.Counters().Runs)
	}
	if a.Stats.Retired >= b.Stats.Retired {
		t.Fatalf("longer run retired fewer instructions: %d vs %d",
			a.Stats.Retired, b.Stats.Retired)
	}
}

// Concurrent Batch and Get callers over overlapping pairs must still run
// each pair exactly once.
func TestBatchGetDeduplication(t *testing.T) {
	s := NewSuite(tinyOpts())
	machines := []config.Machine{config.SS1(), config.SHREC()}
	profiles := workload.Integer()[:3]
	ctx := context.Background()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Batch(ctx, machines, profiles); err != nil {
				t.Error(err)
			}
		}()
	}
	for _, m := range machines {
		for _, p := range profiles {
			wg.Add(1)
			go func(m config.Machine, p trace.Profile) {
				defer wg.Done()
				if _, err := s.Get(ctx, m, p); err != nil {
					t.Error(err)
				}
			}(m, p)
		}
	}
	wg.Wait()

	want := uint64(len(machines) * len(profiles))
	if got := s.Counters().Runs; got != want {
		t.Fatalf("runs = %d, want %d (one per unique pair)", got, want)
	}
}

// Batch must aggregate every worker failure, not just the first.
func TestBatchAggregatesAllErrors(t *testing.T) {
	s := NewSuite(tinyOpts())
	badA := config.SS1()
	badA.Name = "badA"
	badA.IssueWidth = 0
	badB := config.SS1()
	badB.Name = "badB"
	badB.ROBSize = 0
	machines := []config.Machine{badA, config.SS1(), badB}
	profiles := workload.Integer()[:1]

	_, err := s.Batch(context.Background(), machines, profiles)
	if err == nil {
		t.Fatal("invalid machines accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, "badA") || !strings.Contains(msg, "badB") {
		t.Fatalf("error dropped a failure: %v", err)
	}
	// The valid machine's result must still have been computed and cached.
	if _, err := s.Get(context.Background(), config.SS1(), profiles[0]); err != nil {
		t.Fatalf("healthy run poisoned by sibling errors: %v", err)
	}
	if s.Counters().Runs != 1 {
		t.Fatalf("runs = %d, want 1", s.Counters().Runs)
	}
}

// A cancelled context stops Batch and surfaces the context error.
func TestBatchCancellation(t *testing.T) {
	s := NewSuite(Options{WarmupInstrs: 100_000, MeasureInstrs: 10_000_000, Parallelism: 2})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.Batch(ctx, []config.Machine{config.SS1(), config.SHREC()}, workload.Integer()[:4])
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled batch reported success")
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("error does not carry cancellation: %v", err)
		}
		// The cancellation cascade must collapse to one error, not one
		// "context canceled" line per outstanding job.
		if n := strings.Count(err.Error(), "context canceled"); n != 1 {
			t.Fatalf("cancellation error mentions the context %d times:\n%v", n, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("batch did not stop after cancellation")
	}
}

// A waiter whose own context expires while joined to another caller's
// in-flight run must return promptly with its own context error.
func TestWaiterCancellation(t *testing.T) {
	s := NewSuite(Options{WarmupInstrs: 100_000, MeasureInstrs: 50_000_000, Parallelism: 2})
	m := config.SS1()
	p, _ := workload.ByName("swim")

	bg, bgCancel := context.WithCancel(context.Background())
	defer bgCancel()
	owner := make(chan struct{})
	go func() {
		defer close(owner)
		_, _ = s.Get(bg, m, p) // long run, cancelled at test end
	}()

	time.Sleep(20 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := s.Get(ctx, m, p)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waiter error = %v, want deadline exceeded", err)
	}
	bgCancel()
	<-owner
}

// Results persisted through a store must be reused by a second suite
// (simulating a second process) without re-running.
func TestSuiteStoreReuse(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	m := config.SHREC()
	p, _ := workload.ByName("parser")
	ctx := context.Background()

	st1, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s1 := NewSuite(tinyOpts()).WithStore(st1)
	res1, err := s1.Get(ctx, m, p)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Counters().Runs != 1 {
		t.Fatalf("first suite runs = %d", s1.Counters().Runs)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	s2 := NewSuite(tinyOpts()).WithStore(st2)
	res2, err := s2.Get(ctx, m, p)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Counters().Runs != 0 {
		t.Fatalf("second suite re-ran a stored result (%d runs)", s2.Counters().Runs)
	}
	if res1.Stats != res2.Stats {
		t.Fatal("stored result does not round-trip")
	}
}

// Results returns a stable, sorted snapshot of everything cached.
func TestResultsSnapshot(t *testing.T) {
	s := NewSuite(tinyOpts())
	ctx := context.Background()
	profiles := workload.Integer()[:2]
	if _, err := s.Batch(ctx, []config.Machine{config.SS1(), config.SHREC()}, profiles); err != nil {
		t.Fatal(err)
	}
	out := s.Results()
	if len(out) != 4 {
		t.Fatalf("results = %d, want 4", len(out))
	}
	for i := 1; i < len(out); i++ {
		a, b := out[i-1], out[i]
		if a.Machine > b.Machine || (a.Machine == b.Machine && a.Benchmark > b.Benchmark) {
			t.Fatalf("results unsorted at %d: %s/%s after %s/%s",
				i, b.Machine, b.Benchmark, a.Machine, a.Benchmark)
		}
	}
}
