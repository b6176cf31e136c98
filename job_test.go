package repro

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func jobClient(t *testing.T) *Client {
	t.Helper()
	c, err := NewClient(WithOptions(Options{WarmupInstrs: 2_000, MeasureInstrs: 5_000}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestCampaignJob(t *testing.T) {
	c := jobClient(t)
	spec := CampaignSpec{Machine: "shrec", Benchmark: "crafty", Trials: 6, FaultRate: 2e-4, Seed: 9}

	var snaps atomic.Int64
	job := c.StartCampaign(context.Background(), spec,
		WithProgress(func(CampaignProgress) { snaps.Add(1) }))

	if got := job.Spec(); got != spec {
		t.Errorf("Spec() = %+v, want the spec as given", got)
	}
	res, err := job.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) != 6 || snaps.Load() == 0 {
		t.Fatalf("campaign job: %d trials, %d snapshots", len(res.Trials), snaps.Load())
	}
	select {
	case <-job.Done():
	default:
		t.Error("Done not closed after Wait returned")
	}
	res2, err := job.Result()
	if err != nil || res2 != res {
		t.Errorf("Result() = (%p, %v), want the same outcome Wait returned (%p)", res2, err, res)
	}
}

func TestExploreJob(t *testing.T) {
	c := jobClient(t)
	spec := ExploreSpec{
		Space:    ExploreSpace{Bases: []string{"ss2", "shrec"}, XScales: []float64{0.5, 1}},
		Strategy: "halving",
		Seed:     9,
	}
	job := c.StartExplore(context.Background(), spec)
	res, err := job.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Points != 4 || len(res.Frontier) == 0 {
		t.Fatalf("explore job: %d points, %d frontier entries", res.Points, len(res.Frontier))
	}
}

func TestJobResultWhileRunning(t *testing.T) {
	c := jobClient(t)
	spec := CampaignSpec{Machine: "shrec", Benchmark: "crafty", Trials: 20, FaultRate: 2e-4, Seed: 3}
	job := c.StartCampaign(context.Background(), spec)
	if _, err := job.Result(); err != nil && !errors.Is(err, ErrJobRunning) {
		t.Errorf("Result mid-run: %v, want ErrJobRunning (or completion)", err)
	}
	if _, err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestJobCancel(t *testing.T) {
	c := jobClient(t)
	spec := CampaignSpec{Machine: "shrec", Benchmark: "crafty", Trials: 500, FaultRate: 2e-4, Seed: 5}
	job := c.StartCampaign(context.Background(), spec)
	job.Cancel()
	_, err := job.Wait(context.Background())
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled job returned %v, want context.Canceled", err)
	}
	// Cancel is idempotent and safe after completion.
	job.Cancel()
}

func TestJobWaitHonorsContext(t *testing.T) {
	c := jobClient(t)
	spec := CampaignSpec{Machine: "shrec", Benchmark: "crafty", Trials: 500, FaultRate: 2e-4, Seed: 7}
	job := c.StartCampaign(context.Background(), spec)
	defer func() {
		job.Cancel()
		job.Wait(context.Background())
	}()
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if _, err := job.Wait(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait under expired ctx returned %v, want DeadlineExceeded", err)
	}
}
