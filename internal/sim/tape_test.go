package sim

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Every machine of a batch replays its profile's one tape, and each result
// equals a run on a fresh generator.
func TestSuiteSharesTapes(t *testing.T) {
	var machines []config.Machine
	for _, name := range []string{"ss1", "ss2+s", "shrec", "o3rs"} {
		m, err := config.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		machines = append(machines, m)
	}
	var profiles []trace.Profile
	for _, name := range []string{"swim", "crafty"} {
		p, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		profiles = append(profiles, p)
	}
	opt := Options{WarmupInstrs: 2000, MeasureInstrs: 6000, Parallelism: 2}
	s := NewSuite(opt)
	got, err := s.Batch(context.Background(), machines, profiles)
	if err != nil {
		t.Fatal(err)
	}
	c := s.Counters()
	if c.TapeBuilds != uint64(len(profiles)) || c.TapeHits != uint64(len(got)-len(profiles)) {
		t.Fatalf("%d tape builds and %d hits for %d machines on %d profiles", c.TapeBuilds, c.TapeHits, len(machines), len(profiles))
	}
	for i, m := range machines {
		for j, p := range profiles {
			want, err := RunContext(context.Background(), m, p, opt)
			if err != nil {
				t.Fatal(err)
			}
			if r := got[i*len(profiles)+j]; !reflect.DeepEqual(r, want) {
				t.Errorf("%s on %s: replayed result %+v, want %+v", m.Name, p.Name, r.Stats, want.Stats)
			}
		}
	}
}

// A recovery run whose tape ends mid-run rolls back to checkpoints taken
// before the tape's end after it has crossed onto the generator, and still
// matches a run on a fresh generator. The tape's length is set by the
// first request for its profile, so a short run first makes it short.
func TestTapeRecoveryIdentity(t *testing.T) {
	p, err := workload.ByName("parser")
	if err != nil {
		t.Fatal(err)
	}
	s := NewSuite(Options{Parallelism: 1})
	ctx := context.Background()
	if _, err := s.GetOpt(ctx, config.SS1(), p, Options{WarmupInstrs: 1000, MeasureInstrs: 2000}); err != nil {
		t.Fatal(err)
	}
	m := config.SHREC().WithCkptInterval(1024).WithCkptDepth(2)
	m.FaultRate, m.FaultSeed = 1e-3, 7
	m.FaultWindowLo, m.FaultWindowHi = 0, 40_000
	for _, opt := range []Options{
		{WarmupInstrs: 2000, MeasureInstrs: 16_000}, // a trial whose window opens in its warmup
		{MeasureInstrs: 16_000},                     // no warmup to share
	} {
		got, err := s.GetOpt(ctx, m, p, opt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := RunContext(ctx, m, p, opt)
		if err != nil {
			t.Fatal(err)
		}
		if want.Recovery == nil || want.Recovery.Rollbacks == 0 {
			t.Fatalf("%+v: no rollbacks; raise the fault rate", opt)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: replayed recovery run diverged\n got:  %+v %+v\n want: %+v %+v", opt, got.Stats, got.Recovery, want.Stats, want.Recovery)
		}
	}
	if c := s.Counters(); c.TapeBuilds != 1 || c.TapeHits != 2 {
		t.Fatalf("%d tape builds and %d hits, want the first run's build replayed twice", c.TapeBuilds, c.TapeHits)
	}
}

// A build that dies on its caller's context leaves no entry behind: the
// next request rebuilds.
func TestTapeBuildCancelledRebuilds(t *testing.T) {
	p, err := workload.ByName("gzip-graphic")
	if err != nil {
		t.Fatal(err)
	}
	s := NewSuite(Options{})
	opt := Options{MeasureInstrs: 100_000}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if tape := s.tapeFor(ctx, p, opt); tape != nil {
		t.Fatal("a cancelled build returned a tape")
	}
	if len(s.tapes) != 0 {
		t.Fatalf("a cancelled build left %d entries", len(s.tapes))
	}
	tape := s.tapeFor(context.Background(), p, opt)
	if tape == nil || tape.Len() != 100_000+tapeSlack {
		t.Fatal("the rebuild after a cancelled build failed")
	}
	if c := s.Counters(); c.TapeBuilds != 1 || c.TapeHits != 0 {
		t.Fatalf("%d builds and %d hits, want one build", c.TapeBuilds, c.TapeHits)
	}
}

// The tape cache evicts least recently requested tapes down to its budget
// but always keeps the newest, even when it alone is over budget.
func TestTapeEviction(t *testing.T) {
	s := NewSuite(Options{})
	add := func(k string, bytes int) *tapeEntry {
		s.tapeClock++
		e := &tapeEntry{used: s.tapeClock, bytes: bytes}
		s.tapes[k] = e
		s.tapeBytes += bytes
		s.evictTapes(e)
		return e
	}
	add("a", tapeBudget/4)
	add("b", tapeBudget/4)
	add("c", tapeBudget/4)
	s.tapeClock++
	s.tapes["a"].used = s.tapeClock // a hit makes a the most recent
	add("d", tapeBudget/2)
	if _, ok := s.tapes["b"]; ok || len(s.tapes) != 3 || s.tapeBytes != tapeBudget {
		t.Fatalf("after d: %d tapes of %d bytes, want b evicted", len(s.tapes), s.tapeBytes)
	}
	add("huge", 2*tapeBudget)
	if _, ok := s.tapes["huge"]; !ok || len(s.tapes) != 1 || s.tapeBytes != 2*tapeBudget {
		t.Fatalf("after an over-budget tape: %d tapes of %d bytes, want it alone", len(s.tapes), s.tapeBytes)
	}
}
