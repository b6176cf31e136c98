package sim

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/workload"
)

func tinyOpts() Options {
	return Options{WarmupInstrs: 5000, MeasureInstrs: 10000, Parallelism: 8}
}

func TestRunProducesResult(t *testing.T) {
	p, err := workload.ByName("gzip-graphic")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunContext(context.Background(), config.SS1(), p, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Benchmark != "gzip-graphic" || res.Machine != "SS1" {
		t.Fatalf("labels = %s/%s", res.Benchmark, res.Machine)
	}
	if res.IPC() <= 0 || res.CPI() <= 0 {
		t.Fatalf("IPC=%v CPI=%v", res.IPC(), res.CPI())
	}
	if res.Stats.Retired < tinyOpts().MeasureInstrs {
		t.Fatal("run shorter than requested")
	}
}

func TestRunDeterministic(t *testing.T) {
	p, _ := workload.ByName("parser")
	a, err := RunContext(context.Background(), config.SHREC(), p, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), config.SHREC(), p, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats != b.Stats {
		t.Fatal("identical runs diverged")
	}
}

func TestSuiteBatchAndCache(t *testing.T) {
	s := NewSuite(tinyOpts())
	machines := []config.Machine{config.SS1(), config.SS2(config.Factors{})}
	profiles := workload.Integer()[:3]
	cold, err := s.Batch(context.Background(), machines, profiles)
	if err != nil {
		t.Fatal(err)
	}
	// Cached access must return identical values, and Batch returns them
	// machines-major: cold[i*len(profiles)+j] is machines[i] on profiles[j].
	r1, err := s.GetOpt(context.Background(), machines[1], profiles[2], s.Options())
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := s.GetOpt(context.Background(), machines[1], profiles[2], s.Options())
	if r1.Stats != r2.Stats || cold[1*len(profiles)+2].Stats != r1.Stats {
		t.Fatal("cache returned different results")
	}
	// Batch again runs nothing (all cached), counts no hits, and returns
	// the same results.
	before := s.Counters()
	warm, err := s.Batch(context.Background(), machines, profiles)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Counters(); got != before {
		t.Fatalf("warm batch moved the counters: %+v -> %+v", before, got)
	}
	for i := range cold {
		if warm[i].Stats != cold[i].Stats {
			t.Fatalf("warm batch result %d differs from the cold one", i)
		}
	}
}

func TestErrorsPropagate(t *testing.T) {
	p, _ := workload.ByName("swim")
	bad := config.SS1()
	bad.Name = "bad"
	bad.IssueWidth = 0
	if _, err := RunContext(context.Background(), bad, p, tinyOpts()); err == nil {
		t.Fatal("invalid machine not rejected")
	}
}

// TestJoinFanOut pins how FanOut reports its calls' failures: all of
// them joined in index order, except that after a cancellation the
// errors that only cascade ctx.Err() collapse into one interruption
// error.
func TestJoinFanOut(t *testing.T) {
	live := context.Background()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	boom := errors.New("boom")
	cascade := fmt.Errorf("worker: %w", context.Canceled)
	for _, tc := range []struct {
		name string
		ctx  context.Context
		errs []error
		want string // "" means nil
	}{
		{"all nil", cancelled, []error{nil, nil, nil}, ""},
		{"genuine failure", live, []error{nil, boom, nil}, "boom"},
		{"pure cascade", cancelled, []error{nil, cascade, cascade}, "test: interrupted with 1 of 3 jobs done: context canceled"},
		{"failure and cascade", cancelled, []error{boom, nil, cascade, nil},
			"boom\ntest: interrupted with 2 of 4 jobs done: context canceled"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSuite(Options{Parallelism: 2})
			err := s.FanOut(tc.ctx, "test", "jobs", len(tc.errs), func(i int) error { return tc.errs[i] })
			if tc.want == "" {
				if err != nil {
					t.Fatalf("err = %v, want nil", err)
				}
				return
			}
			if err == nil || err.Error() != tc.want {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
}

// FanOut calls fn exactly once per index, never on more goroutines at
// once than the suite's parallelism, and joins failures in index order
// whatever order the calls finish in.
func TestFanOut(t *testing.T) {
	const n, par = 200, 3
	s := NewSuite(Options{Parallelism: par})
	calls := make([]atomic.Int32, n)
	var running, peak atomic.Int32
	err := s.FanOut(context.Background(), "test", "jobs", n, func(i int) error {
		r := running.Add(1)
		for p := peak.Load(); r > p && !peak.CompareAndSwap(p, r); p = peak.Load() {
		}
		defer running.Add(-1)
		calls[i].Add(1)
		time.Sleep(time.Duration(n-i) * time.Microsecond)
		if i%50 == 7 {
			return fmt.Errorf("job %d", i)
		}
		return nil
	})
	for i := range calls {
		if c := calls[i].Load(); c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}
	if p := peak.Load(); p > par {
		t.Fatalf("%d concurrent calls, parallelism %d", p, par)
	}
	if got, want := fmt.Sprint(err), "job 7\njob 57\njob 107\njob 157"; got != want {
		t.Fatalf("err = %q, want %q", got, want)
	}
	if err := s.FanOut(context.Background(), "test", "jobs", 0, nil); err != nil {
		t.Fatalf("empty fan-out: %v", err)
	}
}

func TestDefaultAndQuickOptions(t *testing.T) {
	d, q := DefaultOptions(), QuickOptions()
	if d.MeasureInstrs <= q.MeasureInstrs {
		t.Fatal("default must measure more than quick")
	}
	if d.WarmupInstrs == 0 || q.WarmupInstrs == 0 {
		t.Fatal("warmup must be enabled in both presets")
	}
}

func TestKeyUniqueness(t *testing.T) {
	opt := tinyOpts()
	a := key(config.SS1(), workload.All()[0], opt)
	b := key(config.SS2(config.Factors{}), workload.All()[0], opt)
	c := key(config.SS1(), workload.All()[1], opt)
	big := opt
	big.MeasureInstrs *= 2
	d := key(config.SS1(), workload.All()[0], big)
	if a == b || a == c || a == d || !strings.Contains(a, "\x00") {
		t.Fatal("cache keys collide")
	}
}
