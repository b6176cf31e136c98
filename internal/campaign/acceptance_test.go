package campaign

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/store"
)

// TestThousandTrialCampaign is the full-tier acceptance run: a 1000-trial
// campaign on one machine/workload that is killed mid-flight, resumed
// from the store without re-running a single finished trial (verified by
// the resume counters), and reports coverage with Wilson confidence
// bounds. Roughly 12s of single-core simulation; skipped under -short.
func TestThousandTrialCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-trial campaign is full-tier only")
	}
	const trials = 1000
	spec := quickSpec("shrec", trials)
	path := filepath.Join(t.TempDir(), "campaign.jsonl")

	// Phase 1: run until ~200 trials have finished, then kill.
	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var killedAt int
	_, err = New(quickSuite().WithStore(st)).Run(ctx, spec, func(p Progress) {
		if p.Done >= 200 && killedAt == 0 {
			killedAt = p.Done
			cancel()
		}
	})
	cancel()
	if err == nil {
		t.Fatal("killed campaign reported success")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: resume. Every trial finished before the kill must be
	// restored from the store, not re-simulated.
	st2, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	sims := quickSuite()
	res, err := New(sims.WithStore(st2)).Run(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumed < killedAt {
		t.Fatalf("resumed %d trials, but %d had finished before the kill", res.Resumed, killedAt)
	}
	if res.Resumed+res.Executed != trials {
		t.Fatalf("resumed %d + executed %d != %d", res.Resumed, res.Executed, trials)
	}
	// The suite's own counters agree: it simulated exactly the remaining
	// trials (the golden run is a store hit).
	if got, want := sims.Counters().Runs, uint64(res.Executed); got != want {
		t.Fatalf("suite executed %d simulations, want %d (executed trials)", got, want)
	}
	if len(res.Trials) != trials {
		t.Fatalf("result holds %d trials, want %d", len(res.Trials), trials)
	}
	for i, tr := range res.Trials {
		if tr.Index != i {
			t.Fatalf("trial %d carries index %d", i, tr.Index)
		}
		if tr.Seed != TrialSeed(spec.Seed, i) {
			t.Fatalf("trial %d seed drifted", i)
		}
	}

	// Statistical shape: SHREC must detect faults and never corrupt.
	c := res.Counts()
	if c.SDC != 0 || c.Hang != 0 {
		t.Fatalf("protected machine produced %d SDC / %d hangs", c.SDC, c.Hang)
	}
	if c.Detected == 0 {
		t.Fatal("campaign detected nothing")
	}
	cov := res.Coverage()
	if cov.N != c.Faulted() || cov.N == 0 {
		t.Fatalf("coverage over N=%d, faulted=%d", cov.N, c.Faulted())
	}
	if cov.Point != 1 || cov.Lo >= 1 || cov.Lo <= 0.9 {
		// ~500+ faulted trials, zero escapes: the Wilson lower bound must
		// be high but strictly below certainty.
		t.Fatalf("implausible coverage estimate: %+v", cov)
	}

	// The report carries the bounds and the resume provenance.
	text := res.Report().String()
	for _, want := range []string{"coverage lo % (Wilson 95)", "coverage hi % (Wilson 95)", "Trial outcomes"} {
		if !strings.Contains(text, want) {
			t.Fatalf("report lacks %q:\n%s", want, text)
		}
	}
	found := false
	for _, n := range res.Report().Notes {
		if strings.Contains(n, "resumed") {
			found = true
		}
	}
	if !found {
		t.Fatal("report notes lack the resume line")
	}
}
