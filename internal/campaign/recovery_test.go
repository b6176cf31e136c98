package campaign

import (
	"context"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/store"
)

// recoverySpec is quickSpec under a checkpoint/rollback policy tight
// enough that trial-sized runs exercise rollbacks.
func recoverySpec(trials int) Spec {
	spec := quickSpec("shrec", trials)
	spec.Recovery = "ckpt@256+depth2"
	return spec
}

// TestRecoveryCampaignWarmsUpOnce pins that a recovery campaign simulates
// its fault-free warmup once: the golden run builds the warmup checkpoint
// and every trial resumes it, so a fresh suite counts one warmup share per
// run.
func TestRecoveryCampaignWarmsUpOnce(t *testing.T) {
	sims := quickSuite()
	spec := quickSpec("shrec", 4)
	spec.Recovery = "ckpt@4k+depth2"
	if _, err := New(sims).Run(context.Background(), spec, nil); err != nil {
		t.Fatal(err)
	}
	if got := sims.Counters().WarmupShares; got != 5 {
		t.Errorf("WarmupShares = %d, want 5 (the golden run and 4 trials)", got)
	}
}

// TestRecoveryCampaign pins the end-to-end recovery path: trials carry
// per-fault recovery outcomes, the summary aggregates them, and the
// campaign reports availability and MTTF with confidence bounds.
func TestRecoveryCampaign(t *testing.T) {
	res, err := New(quickSuite()).Run(context.Background(), recoverySpec(40), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Spec.Recovery != "ckpt@256+depth2" {
		t.Fatalf("normalized recovery mode %q", res.Spec.Recovery)
	}
	// The golden run itself ran under the policy (so its signature is the
	// recovery run's committed stream) but injected nothing.
	if res.Golden.Recovery == nil || res.Golden.Recovery.Detected() != 0 {
		t.Fatalf("golden recovery trace: %+v", res.Golden.Recovery)
	}

	rs := res.RecoverySummary()
	if rs == nil {
		t.Fatal("recovery campaign produced no summary")
	}
	if rs.Policy.Interval != 256 || rs.Policy.Depth != 2 {
		t.Fatalf("summary policy %+v", rs.Policy)
	}
	if rs.Rollbacks == 0 {
		t.Fatalf("campaign produced no rollbacks (summary %+v); fixture exercises nothing", rs)
	}
	if rs.LostWork <= 0 || rs.Checkpoints == 0 {
		t.Fatalf("implausible summary: %+v", rs)
	}
	if rs.MeanRecoveryLatency <= float64(rs.Policy.RestoreCost) {
		t.Errorf("mean recovery latency %g does not exceed the restore cost", rs.MeanRecoveryLatency)
	}
	if rs.CkptOverhead <= 0 || rs.FaultsPerCycle <= 0 {
		t.Errorf("degenerate rates in summary: %+v", rs)
	}

	// Trial records agree with the summary totals.
	var rollbacks, detected uint64
	for _, tr := range res.Trials {
		rollbacks += tr.Rollbacks
		detected += tr.Detected
		if tr.Rollbacks > 0 && tr.Outcome != OutcomeDetected && tr.Outcome != OutcomeSDC && tr.Outcome != OutcomeHang {
			t.Errorf("trial %d rolled back but classified %s", tr.Index, tr.Outcome)
		}
		if tr.Rollbacks > 0 && tr.DetectLatency <= 0 {
			t.Errorf("trial %d rolled back with zero detect latency", tr.Index)
		}
	}
	if rollbacks != rs.Rollbacks {
		t.Errorf("trial rollbacks sum %d != summary %d", rollbacks, rs.Rollbacks)
	}
	if detected < rs.Detected() {
		t.Errorf("trial detected sum %d < summary detections %d", detected, rs.Detected())
	}

	// SHREC never corrupts silently, but a recovery trial can legitimately
	// hang: each rollback re-randomizes the rest of the run, so a trial
	// can storm through rollbacks until its lost work exhausts the cycle
	// budget — the recovery-livelock class the watchdog exists for. Such
	// trials must carry their rollback provenance.
	c := res.Counts()
	if c.SDC != 0 {
		t.Errorf("recovery campaign produced silent corruption: %+v", c)
	}
	for _, tr := range res.Trials {
		if tr.Outcome == OutcomeHang && tr.Rollbacks == 0 {
			t.Errorf("hung trial %d carries no rollbacks; not a recovery storm: %+v", tr.Index, tr)
		}
	}
	if cov := res.Coverage(); cov.Point <= 0.9 {
		t.Errorf("recovery campaign broke coverage: %+v", cov)
	}
	av, ok := res.Availability(DefaultRepairCycles)
	if !ok {
		t.Fatal("Availability reported no recovery policy")
	}
	if av.Point <= 0 || av.Point >= 1 {
		t.Errorf("availability %g out of (0,1): overhead must degrade it without zeroing it", av.Point)
	}
	if !(av.Lo <= av.Point && av.Point <= av.Hi) {
		t.Errorf("availability bounds disordered: %+v", av)
	}
	if rs.Overruns+rs.Unrecoverable == 0 && av.MTTFCycles != 0 {
		t.Errorf("no fatal failures but finite MTTF %g", av.MTTFCycles)
	}

	text := res.Report().String()
	for _, want := range []string{"availability %", "mean recovery latency (cycles)", "rollbacks"} {
		if !strings.Contains(text, want) {
			t.Fatalf("report lacks %q:\n%s", want, text)
		}
	}
}

// TestRecoveryCampaignMachineSpecPolicy pins the other entry point: a
// checkpoint-bearing machine spec implies the recovery policy at default
// costs.
func TestRecoveryCampaignMachineSpecPolicy(t *testing.T) {
	spec := quickSpec("shrec+ckpt256", 1)
	ns, err := Normalize(spec, quickSuite().Options())
	if err != nil {
		t.Fatal(err)
	}
	if ns.Recovery != "ckpt@256" {
		t.Fatalf("machine-implied recovery mode %q, want ckpt@256", ns.Recovery)
	}
	// And a malformed mode is rejected statically.
	bad := quickSpec("shrec", 1)
	bad.Recovery = "ckpt@64k+width2"
	if _, err := Normalize(bad, quickSuite().Options()); err == nil {
		t.Fatal("malformed recovery mode accepted")
	}
}

// TestRecoveryCampaignKillAndResume is the determinism acceptance pin: a
// recovery campaign killed mid-flight and resumed from the store is
// byte-identical to the uninterrupted campaign — rollback re-execution
// included.
func TestRecoveryCampaignKillAndResume(t *testing.T) {
	const trials = 30
	spec := recoverySpec(trials)

	whole, err := New(quickSuite()).Run(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "campaign.jsonl")
	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var killedAt int
	_, err = New(quickSuite().WithStore(st)).Run(ctx, spec, func(p Progress) {
		if p.Done >= 5 && killedAt == 0 {
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

	st2, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	resumed, err := New(quickSuite().WithStore(st2)).Run(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Resumed < killedAt {
		t.Fatalf("resumed %d trials, but %d had finished before the kill", resumed.Resumed, killedAt)
	}
	if resumed.Resumed+resumed.Executed != trials {
		t.Fatalf("resumed %d + executed %d != %d", resumed.Resumed, resumed.Executed, trials)
	}
	if !reflect.DeepEqual(whole.Trials, resumed.Trials) {
		t.Fatal("resumed recovery campaign diverged from the uninterrupted one")
	}
	if !reflect.DeepEqual(whole.RecoverySummary(), resumed.RecoverySummary()) {
		t.Fatal("resumed recovery summary diverged")
	}
}

// TestCampaignOneRecordPerSimulation pins the single persistence layer: a
// campaign leaves one store record per simulation — the golden run and
// each trial — and a rerun on a fresh suite over the same store simulates
// nothing and counts every trial resumed.
func TestCampaignOneRecordPerSimulation(t *testing.T) {
	const trials = 4
	spec := quickSpec("shrec", trials)
	spec.Recovery = "ckpt@4k+depth2"
	path := filepath.Join(t.TempDir(), "campaign.db")

	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	first, err := New(quickSuite().WithStore(st)).Run(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.Executed != trials {
		t.Fatalf("fresh campaign executed %d trials, want %d", first.Executed, trials)
	}
	if got := st.Len(); got != trials+1 {
		t.Fatalf("store holds %d records, want %d (golden + one per trial)", got, trials+1)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	sims := quickSuite().WithStore(st2)
	again, err := New(sims).Run(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.Resumed != trials || again.Executed != 0 {
		t.Fatalf("rerun resumed %d, executed %d, want %d/0", again.Resumed, again.Executed, trials)
	}
	if runs := sims.Counters().Runs; runs != 0 {
		t.Fatalf("rerun simulated %d runs, want 0", runs)
	}
	if got := st2.Len(); got != trials+1 {
		t.Fatalf("rerun grew the store to %d records, want %d", got, trials+1)
	}
}

// TestCampaignIdentityAcrossResumeAndParallelism is the metamorphic pin of
// campaign identity: the trial records and outcome counts are the same
// for a fresh run, a run resumed from the store on a fresh suite (every
// trial rebuilt from a JSON-decoded sim.Result, recovery trace and its
// detect latencies included), and a run at parallelism 1 instead of 2.
func TestCampaignIdentityAcrossResumeAndParallelism(t *testing.T) {
	spec := recoverySpec(12)
	st, err := store.Open(filepath.Join(t.TempDir(), "campaign.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	fresh, err := New(suiteAt(2).WithStore(st)).Run(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := New(suiteAt(2).WithStore(st)).Run(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Resumed != spec.Trials {
		t.Fatalf("store-backed rerun resumed %d of %d trials", resumed.Resumed, spec.Trials)
	}
	serial, err := New(suiteAt(1)).Run(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}

	rolledBack := false
	for _, tr := range fresh.Trials {
		rolledBack = rolledBack || (tr.Rollbacks > 0 && tr.DetectLatency > 0)
	}
	if !rolledBack {
		t.Fatal("no trial rolled back; the recovery-trace latency path is not exercised")
	}
	for name, r := range map[string]*Result{"store-resumed": resumed, "parallelism 1": serial} {
		if !reflect.DeepEqual(fresh.Trials, r.Trials) {
			t.Errorf("%s run's trials diverged from the fresh run", name)
		}
		if !reflect.DeepEqual(fresh.Counts(), r.Counts()) {
			t.Errorf("%s run's counts %+v != fresh %+v", name, r.Counts(), fresh.Counts())
		}
	}
}
