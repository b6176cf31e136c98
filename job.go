package repro

import (
	"context"
	"errors"
	"sync/atomic"

	"repro/internal/campaign"
	"repro/internal/explore"
)

// ---------------------------------------------------------------------------
// Job: the unified async-operation API.
//
// Campaigns and explorations are the client's two long-running operations;
// both used to be synchronous methods with an ad-hoc progress callback
// parameter. Job unifies them: StartCampaign and StartExplore return
// immediately with a typed handle that the caller can wait on, poll, or
// cancel, and progress delivery is a functional option (WithProgress)
// rather than a positional parameter. The old synchronous methods remain
// as thin wrappers.

// ErrJobRunning is returned by Job.Result while the job is still running.
var ErrJobRunning = errors.New("repro: job still running")

// Job is a handle to one asynchronous operation started by the client.
// S is the operation's spec type, P its progress-snapshot type, and R its
// result type. A Job is safe for concurrent use.
type Job[S, P, R any] struct {
	spec   S
	done   chan struct{}
	cancel context.CancelFunc
	// finished guards res/err: they are written exactly once, strictly
	// before done closes, and read only after Done (or through Result's
	// finished check).
	finished atomic.Bool
	res      *R
	err      error
}

// CampaignJob is the handle of a running fault-injection campaign.
type CampaignJob = Job[CampaignSpec, CampaignProgress, CampaignResult]

// ExploreJob is the handle of a running design-space exploration.
type ExploreJob = Job[ExploreSpec, ExploreProgress, ExploreResult]

// jobConfig collects the functional options of a job start.
type jobConfig[P any] struct {
	progress func(P)
}

// JobOption configures a started job; P is the job's progress type.
type JobOption[P any] func(*jobConfig[P])

// WithProgress delivers a serialized snapshot to fn after every unit of
// work (a finished trial or point evaluation). fn runs on the job's own
// goroutine, so a slow callback backpressures the job rather than racing
// it; keep it quick or hand off to a channel.
func WithProgress[P any](fn func(P)) JobOption[P] {
	return func(c *jobConfig[P]) { c.progress = fn }
}

// startJob launches run on its own goroutine under a cancelable child of
// ctx and returns the handle.
func startJob[S, P, R any](ctx context.Context, spec S, opts []JobOption[P],
	run func(ctx context.Context, progress func(P)) (*R, error)) *Job[S, P, R] {
	var cfg jobConfig[P]
	for _, o := range opts {
		o(&cfg)
	}
	jctx, cancel := context.WithCancel(ctx)
	j := &Job[S, P, R]{spec: spec, done: make(chan struct{}), cancel: cancel}
	go func() {
		defer cancel()
		j.res, j.err = run(jctx, cfg.progress)
		j.finished.Store(true)
		close(j.done)
	}()
	return j
}

// Spec returns the spec the job was started with, as given (engines
// normalize defaults internally; the normalized form is on the result).
func (j *Job[S, P, R]) Spec() S { return j.spec }

// Done returns a channel closed when the job has finished (successfully,
// with an error, or by cancellation), for use in select loops.
func (j *Job[S, P, R]) Done() <-chan struct{} { return j.done }

// Wait blocks until the job finishes or ctx is done, whichever comes
// first, and returns the outcome. A ctx expiry in Wait does not cancel
// the job — use Cancel for that (or start the job under a bounded ctx).
func (j *Job[S, P, R]) Wait(ctx context.Context) (*R, error) {
	select {
	case <-j.done:
		return j.res, j.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Result returns the outcome without blocking: ErrJobRunning while the
// job is still running, otherwise exactly what Wait would return.
func (j *Job[S, P, R]) Result() (*R, error) {
	if !j.finished.Load() {
		return nil, ErrJobRunning
	}
	return j.res, j.err
}

// Cancel asks the job to stop at its next cancellation checkpoint. The
// job still finishes (Done closes, with a context error); finished work
// persisted to an attached store survives for a later resume. Cancel is
// idempotent and safe after completion.
func (j *Job[S, P, R]) Cancel() { j.cancel() }

// StartCampaign launches a Monte Carlo fault-injection campaign and
// returns immediately. Trials fan out through the client's shared
// simulation cache and parallelism bound; with a store attached
// (WithStore), finished trials persist as simulation results, so a
// canceled or interrupted campaign resumes where it left off instead of
// re-simulating.
func (c *Client) StartCampaign(ctx context.Context, spec CampaignSpec, opts ...JobOption[CampaignProgress]) *CampaignJob {
	eng := campaign.New(c.sims)
	return startJob[CampaignSpec, CampaignProgress, CampaignResult](ctx, spec, opts,
		func(ctx context.Context, progress func(CampaignProgress)) (*CampaignResult, error) {
			return eng.Run(ctx, spec, progress)
		})
}

// StartExplore launches a design-space exploration and returns
// immediately. The space's points are evaluated through the client's
// shared simulation cache and parallelism bound — exhaustively, or
// screened by seeded successive halving — and the Pareto-efficient
// configurations are extracted. With a store attached (WithStore), the
// simulations behind finished point evaluations persist, so a canceled
// or interrupted exploration resumes where it left off instead of
// re-simulating.
func (c *Client) StartExplore(ctx context.Context, spec ExploreSpec, opts ...JobOption[ExploreProgress]) *ExploreJob {
	eng := explore.New(c.sims)
	return startJob[ExploreSpec, ExploreProgress, ExploreResult](ctx, spec, opts,
		func(ctx context.Context, progress func(ExploreProgress)) (*ExploreResult, error) {
			return eng.Run(ctx, spec, progress)
		})
}
