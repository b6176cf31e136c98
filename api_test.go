package repro

import (
	"context"
	"encoding/json"
	"maps"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// testClientOptions are tiny run lengths keeping client tests fast.
var testClientOptions = Options{WarmupInstrs: 2000, MeasureInstrs: 5000, Parallelism: 8}

func TestClientSimulate(t *testing.T) {
	c, err := NewClient(WithOptions(testClientOptions))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	res, err := c.Simulate(ctx, SHREC(), "swim")
	if err != nil {
		t.Fatal(err)
	}
	if res.Machine != "SHREC" || res.Benchmark != "swim" || res.IPC() <= 0 {
		t.Fatalf("result = %+v", res)
	}
	if _, err := c.Simulate(ctx, SS1(), "nope"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	// The second identical call must come from the cache.
	if _, err := c.Simulate(ctx, SHREC(), "swim"); err != nil {
		t.Fatal(err)
	}
	m := c.Metrics()
	if m.Runs != 1 || m.Hits != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestClientSweep(t *testing.T) {
	c, err := NewClient(WithOptions(testClientOptions), WithParallelism(8))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	machines := []Machine{SS1(), SHREC()}
	profiles := []Profile{mustProfile(t, "swim"), mustProfile(t, "parser")}
	results, err := c.Sweep(context.Background(), machines, profiles)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("%d results", len(results))
	}
	// Machines-major order: results[i*len(profiles)+j].
	for i, m := range machines {
		for j, p := range profiles {
			r := results[i*len(profiles)+j]
			if r.Machine != m.Name || r.Benchmark != p.Name {
				t.Fatalf("results[%d] = %s/%s, want %s/%s", i*len(profiles)+j,
					r.Machine, r.Benchmark, m.Name, p.Name)
			}
		}
	}
	if got := len(c.Results()); got != 4 {
		t.Fatalf("cached results = %d", got)
	}
	// The readback must not masquerade as cache hits: a fresh sweep is
	// 4 runs, 0 hits, and repeating it reads the cache without counting.
	// The two machines share each profile's tape: one build, one replay.
	want := Counters{Runs: 4, CacheMisses: 4, TapeBuilds: 2, TapeHits: 2}
	if got := c.Metrics().Counters; got != want {
		t.Fatalf("counters after fresh sweep = %+v, want %+v", got, want)
	}
	again, err := c.Sweep(context.Background(), machines, profiles)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Metrics().Counters; got != want {
		t.Fatalf("counters after repeated sweep = %+v, want %+v", got, want)
	}
	for i := range results {
		if again[i].Stats != results[i].Stats {
			t.Fatalf("repeated sweep result %d differs", i)
		}
	}
}

func TestClientExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs 100 simulations; skipped in short mode")
	}
	c, err := NewClient(WithOptions(testClientOptions))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rep, err := c.Experiment(context.Background(), "fig5")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Name != "fig5" || len(rep.Tables) != 1 {
		t.Fatalf("report = %+v", rep)
	}
	out := rep.String()
	if !strings.Contains(out, "Stagger") || !strings.Contains(out, "Integer Low") {
		t.Fatalf("fig5 text malformed:\n%s", out)
	}
	if _, err := c.Experiment(context.Background(), "fig99"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestClientStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.db")
	c, err := NewClient(WithOptions(testClientOptions), WithStore(path))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Simulate(context.Background(), SS1(), "swim"); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh client over the same store must serve the run as a hit.
	c2, err := NewClient(WithOptions(testClientOptions), WithStore(path))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Simulate(context.Background(), SS1(), "swim"); err != nil {
		t.Fatal(err)
	}
	if m := c2.Metrics(); m.Runs != 0 || m.Hits != 1 {
		t.Fatalf("store not consulted: %+v", m)
	}
}

func mustProfile(t *testing.T, name string) Profile {
	t.Helper()
	p, err := WorkloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestFacadeMachines(t *testing.T) {
	if SS1().Name != "SS1" || SHREC().Name != "SHREC" {
		t.Fatal("machine constructors broken")
	}
	if SS2(Factors{S: true, C: true}).Name != "SS2+SC" {
		t.Fatalf("SS2 factor naming: %s", SS2(Factors{S: true, C: true}).Name)
	}
	if len(AllFactorCombinations()) != 16 {
		t.Fatal("factor enumeration broken")
	}
}

func TestFacadeWorkloads(t *testing.T) {
	if len(Workloads()) != 25 {
		t.Fatalf("workloads = %d", len(Workloads()))
	}
	if len(IntegerWorkloads()) != 11 || len(FloatingPointWorkloads()) != 14 {
		t.Fatal("class splits broken")
	}
	p, err := WorkloadByName("swim")
	if err != nil || p.Name != "swim" {
		t.Fatal("lookup broken")
	}
	if _, err := WorkloadByName("mcf"); err == nil {
		t.Fatal("mcf must stay excluded")
	}
}

func TestFacadeExperimentNames(t *testing.T) {
	names := ExperimentNames()
	if len(names) != 10 {
		t.Fatalf("experiments = %v", names)
	}
	// Catalog and Names derive from one registry and must agree.
	cat := ExperimentCatalog()
	if len(cat) != len(names) {
		t.Fatalf("catalog (%d) and names (%d) disagree", len(cat), len(names))
	}
	for i, info := range cat {
		if info.Name != names[i] || info.Title == "" {
			t.Fatalf("catalog[%d] = %+v, want name %s", i, info, names[i])
		}
	}
	for _, want := range []string{"fig2", "table2", "table3", "fig5", "fig7", "fig8"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("missing experiment %s", want)
		}
	}
}

func TestClientCampaign(t *testing.T) {
	dir := t.TempDir()
	c, err := NewClient(
		WithOptions(Options{WarmupInstrs: 2_000, MeasureInstrs: 5_000}),
		WithStore(filepath.Join(dir, "trials.db")),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	spec := CampaignSpec{Machine: "shrec", Benchmark: "crafty", Trials: 6, FaultRate: 2e-4, Seed: 9}
	var snaps int
	ctx := context.Background()
	res, err := c.StartCampaign(ctx, spec, WithProgress(func(CampaignProgress) { snaps++ })).Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) != 6 || res.Executed != 6 || snaps == 0 {
		t.Fatalf("campaign: %d trials, %d executed, %d snapshots", len(res.Trials), res.Executed, snaps)
	}
	if c := res.Counts(); c.SDC != 0 {
		t.Fatalf("SHREC produced SDC: %+v", c)
	}
	rep := res.Report()
	if rep.Name != "campaign" || len(rep.Tables) == 0 {
		t.Fatalf("bad report: %+v", rep)
	}

	// A second client over the same store resumes every trial.
	c2, err := NewClient(
		WithOptions(Options{WarmupInstrs: 2_000, MeasureInstrs: 5_000}),
		WithStore(filepath.Join(dir, "trials.db")),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	res2, err := c2.StartCampaign(ctx, spec).Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Resumed != 6 || res2.Executed != 0 {
		t.Fatalf("resume: resumed %d, executed %d", res2.Resumed, res2.Executed)
	}
}

func TestClientExplore(t *testing.T) {
	dir := t.TempDir()
	c, err := NewClient(
		WithOptions(Options{WarmupInstrs: 2_000, MeasureInstrs: 5_000}),
		WithStore(filepath.Join(dir, "evals.db")),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	spec := ExploreSpec{
		Space: ExploreSpace{
			Bases:   []string{"ss2", "shrec"},
			XScales: []float64{0.5, 1},
		},
		Strategy: "halving",
		Seed:     9,
	}
	var snaps int
	ctx := context.Background()
	res, err := c.StartExplore(ctx, spec, WithProgress(func(ExploreProgress) { snaps++ })).Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Points != 4 || len(res.Evals) != 2 || snaps == 0 {
		t.Fatalf("explore: %d points, %d evals, %d snapshots", res.Points, len(res.Evals), snaps)
	}
	if len(res.Frontier) == 0 {
		t.Fatal("empty frontier")
	}
	rep := res.Report()
	if rep.Name != "explore" || len(rep.Tables) != 2 {
		t.Fatalf("bad report: %+v", rep)
	}
	// Every frontier point's spec round-trips through the facade parser.
	for _, ev := range res.FrontierEvals() {
		m, err := MachineByName(ev.Spec)
		if err != nil {
			t.Fatalf("frontier spec %q does not parse: %v", ev.Spec, err)
		}
		if MachineSpec(m) != ev.Spec {
			t.Fatalf("spec not canonical: %q -> %q", ev.Spec, MachineSpec(m))
		}
	}

	// A second client over the same store resumes every evaluation.
	c2, err := NewClient(
		WithOptions(Options{WarmupInstrs: 2_000, MeasureInstrs: 5_000}),
		WithStore(filepath.Join(dir, "evals.db")),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	res2, err := c2.StartExplore(ctx, spec).Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Resumed != res.Resumed+res.Executed || res2.Executed != 0 {
		t.Fatalf("resume: resumed %d, executed %d", res2.Resumed, res2.Executed)
	}
}

// TestClientMetricsStages pins that the client's telemetry registry is
// threaded into its suite: after a simulation, Metrics().Stages reports
// the engine_run stage (and cache_lookup from the request path) with
// plausible timings, and the metrics keep their JSON key set.
func TestClientMetricsStages(t *testing.T) {
	c, err := NewClient(WithOptions(testClientOptions))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Simulate(context.Background(), SHREC(), "swim"); err != nil {
		t.Fatal(err)
	}
	stages := map[string]StageSummary{}
	for _, s := range c.Metrics().Stages {
		stages[s.Stage] = s
	}
	run, ok := stages["engine_run"]
	if !ok {
		t.Fatalf("no engine_run stage in %+v", stages)
	}
	if run.Count != 1 || run.TotalSeconds <= 0 || run.MeanSeconds != run.TotalSeconds {
		t.Fatalf("engine_run = %+v, want one timed run", run)
	}
	if _, ok := stages["cache_lookup"]; !ok {
		t.Fatalf("no cache_lookup stage in %+v", stages)
	}

	// The wire shape: the embedded Counters flatten into the same
	// top-level keys ClientMetrics has always had, next to stages.
	raw, err := json.Marshal(c.Metrics())
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	keys := slices.Sorted(maps.Keys(got))
	want := []string{
		"cache_hits", "cache_misses", "clean_skips", "dedup_waits", "hits", "recovery_runs",
		"rollbacks", "runs", "stages", "store_errors", "store_hits", "tape_builds", "tape_hits",
		"warmup_shares",
	}
	if !slices.Equal(keys, want) {
		t.Fatalf("ClientMetrics JSON keys = %v, want %v", keys, want)
	}
	if string(got["runs"]) != "1" {
		t.Fatalf("runs = %s, want 1", got["runs"])
	}
}
