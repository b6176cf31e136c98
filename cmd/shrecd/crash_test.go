// Process-level crash-recovery acceptance test: build the real shrecd
// binary, SIGKILL it mid-campaign, restart it on the same store and
// journal directories, and check that the re-adopted campaign finishes
// with the same outcomes as an uninterrupted run while re-executing
// strictly fewer trials. This is the end-to-end counterpart of the
// in-process kill-and-rejoin test in internal/shrecd.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro"
	"repro/internal/campaign"
)

// crashCampaign must run long enough at the tiny run lengths below to
// be killed mid-flight, and deterministically enough that the recovered
// outcome counts match an uninterrupted golden run exactly.
const crashCampaign = `{"machine":"shrec","benchmark":"crafty","trials":256,"fault_rate":2e-4,"seed":11}`

// buildShrecd compiles the server binary into a scratch directory.
func buildShrecd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "shrecd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building shrecd: %v\n%s", err, out)
	}
	return bin
}

// shrecdProc is one running shrecd child process.
type shrecdProc struct {
	cmd     *exec.Cmd
	baseURL string
	stderr  *bytes.Buffer
}

// startShrecd launches the binary on ":0" against the given store and
// journal directories and waits for the printed bound address. Extra
// flags (e.g. -pprof for the observability smoke test) are appended.
func startShrecd(t *testing.T, bin, storeDir, journalDir string, extra ...string) *shrecdProc {
	t.Helper()
	p := &shrecdProc{stderr: &bytes.Buffer{}}
	args := []string{
		"-addr", "127.0.0.1:0",
		"-store", storeDir,
		"-journal", journalDir,
		"-warmup", "2000", "-n", "5000",
	}
	args = append(args, extra...)
	p.cmd = exec.Command(bin, args...)
	p.cmd.Stderr = p.stderr
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.kill(t) })

	addrCh := make(chan string, 1)
	go func() {
		// Keep draining stdout past the address line so the child never
		// blocks on a full pipe.
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "shrecd: listening on "); ok {
				addr, _, _ := strings.Cut(rest, " ")
				select {
				case addrCh <- addr:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		p.baseURL = "http://" + addr
	case <-time.After(30 * time.Second):
		t.Fatalf("shrecd never printed its listening address; stderr:\n%s", p.stderr)
	}
	return p
}

// kill SIGKILLs the child and reaps it. Safe to call twice.
func (p *shrecdProc) kill(t *testing.T) {
	t.Helper()
	if p.cmd.Process != nil {
		_ = p.cmd.Process.Signal(syscall.SIGKILL)
	}
	_ = p.cmd.Wait() // second calls error harmlessly
}

// campaignProgress decodes the raw progress of a remote job status.
func campaignProgress(t *testing.T, st repro.RemoteJobStatus) campaign.Progress {
	t.Helper()
	var prog campaign.Progress
	if err := json.Unmarshal(st.Progress, &prog); err != nil {
		t.Fatalf("decoding campaign progress %s: %v", st.Progress, err)
	}
	return prog
}

// remoteFor builds a client for a child process with fast polling.
func remoteFor(t *testing.T, p *shrecdProc) *repro.Remote {
	t.Helper()
	r, err := repro.NewRemote(p.baseURL, repro.WithPollInterval(10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestCrashRecoverySIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and SIGKILLs real shrecd processes; skipped in -short")
	}
	bin := buildShrecd(t)
	var spec repro.CampaignSpec
	if err := json.Unmarshal([]byte(crashCampaign), &spec); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	// Golden: the same campaign on a fresh server, never interrupted.
	goldenDir := t.TempDir()
	gp := startShrecd(t, bin, filepath.Join(goldenDir, "results"), filepath.Join(goldenDir, "journal"))
	gr := remoteFor(t, gp)
	gjob, err := gr.StartCampaign(ctx, spec)
	if err != nil {
		t.Fatalf("starting golden campaign: %v; stderr:\n%s", err, gp.stderr)
	}
	gst, err := gr.Wait(ctx, gjob)
	if err != nil {
		t.Fatalf("golden campaign: %v; stderr:\n%s", err, gp.stderr)
	}
	golden := campaignProgress(t, gst)
	gp.kill(t)

	// Crash run: same campaign on its own store, killed mid-flight.
	crashDir := t.TempDir()
	storeDir := filepath.Join(crashDir, "results")
	journalDir := filepath.Join(crashDir, "journal")
	p1 := startShrecd(t, bin, storeDir, journalDir)
	r1 := remoteFor(t, p1)
	job, err := r1.StartCampaign(ctx, spec)
	if err != nil {
		t.Fatalf("starting crash campaign: %v; stderr:\n%s", err, p1.stderr)
	}
	if job.ID != gjob.ID {
		t.Fatalf("campaign id %q differs from golden %q; ids must be spec-derived", job.ID, gjob.ID)
	}
	for {
		st, err := r1.Status(ctx, job)
		if err != nil {
			t.Fatalf("polling crash campaign: %v; stderr:\n%s", err, p1.stderr)
		}
		if st.Done() {
			t.Fatal("campaign finished before it could be killed; raise trials in crashCampaign")
		}
		if campaignProgress(t, st).Done >= 2 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	p1.kill(t) // no drain, no goodbye: the case the journal exists for

	// Restart on the same directories: the journal re-adopts the job
	// before the listener comes up, so the first status poll finds it.
	p2 := startShrecd(t, bin, storeDir, journalDir)
	r2 := remoteFor(t, p2)
	st, err := r2.Wait(ctx, job)
	if err != nil {
		t.Fatalf("waiting for re-adopted campaign: %v; stderr:\n%s", err, p2.stderr)
	}
	prog := campaignProgress(t, st)
	if prog.Resumed < 2 {
		t.Fatalf("resumed %d trials, want >= 2: the killed run's persisted trials were not reused", prog.Resumed)
	}
	if prog.Resumed >= prog.Total {
		t.Fatalf("resumed %d of %d trials: nothing was left to execute, kill came too late", prog.Resumed, prog.Total)
	}
	if prog.Done != prog.Total || prog.Total != golden.Total {
		t.Fatalf("recovered campaign done=%d total=%d, golden total=%d", prog.Done, prog.Total, golden.Total)
	}

	// Recovery must be invisible in the results: outcome counts and the
	// coverage estimate match the uninterrupted run exactly.
	gotCounts, _ := json.Marshal(prog.Counts)
	wantCounts, _ := json.Marshal(golden.Counts)
	if !bytes.Equal(gotCounts, wantCounts) {
		t.Fatalf("recovered counts %s != golden counts %s", gotCounts, wantCounts)
	}
	gotCov, _ := json.Marshal(prog.Coverage)
	wantCov, _ := json.Marshal(golden.Coverage)
	if !bytes.Equal(gotCov, wantCov) {
		t.Fatalf("recovered coverage %s != golden coverage %s", gotCov, wantCov)
	}
	if !strings.Contains(string(st.Report), "resumed") {
		t.Fatalf("recovered report does not note the resume: %s", st.Report)
	}

	// The settled journal leaves nothing pending for a third restart.
	health, err := r2.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var h struct {
		Journal struct {
			Depth int `json:"depth"`
		} `json:"journal"`
	}
	if err := json.Unmarshal(health, &h); err != nil {
		t.Fatalf("decoding health %s: %v", health, err)
	}
	if h.Journal.Depth != 0 {
		t.Fatalf("journal depth %d after completion, want 0", h.Journal.Depth)
	}
}
