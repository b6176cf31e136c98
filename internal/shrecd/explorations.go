package shrecd

import (
	"fmt"

	"repro/internal/explore"
)

// explorationKind is the POST /explorations job kind: asynchronous
// design-space explorations, polled for the evaluation phase and, once
// done, the Pareto frontier.
func (s *Server) explorationKind() *jobKind[explore.Spec, explore.Progress, *explore.Result] {
	return &jobKind[explore.Spec, explore.Progress, *explore.Result]{
		jobTable: newJobTable[explore.Spec, explore.Progress, *explore.Result]("exploration", s.cfg.MaxExplorations),
		srv:      s,
		prefix:   "/explorations",
		maxBody:  256 << 10,
		prepare:  s.prepareExploration,
		run:      explore.Run,
		status: func(res *explore.Result, st *jobStatus[explore.Spec, explore.Progress]) {
			for _, ev := range res.FrontierEvals() {
				st.Frontier = append(st.Frontier, ev.Spec)
			}
		},
	}
}

// prepareExploration normalizes an exploration spec and caps its cost:
// space size, budget, trials, and run lengths.
func (s *Server) prepareExploration(raw explore.Spec) (explore.Spec, error) {
	spec, err := explore.Normalize(raw, s.cfg.DefaultOptions)
	if err != nil {
		return spec, err
	}
	if size := spec.Space.Size(); size > s.cfg.MaxPoints {
		return spec, fmt.Errorf("space of %d points exceeds the server cap of %d", size, s.cfg.MaxPoints)
	}
	// Enumerate the (capped) space once: a base whose modifiers collide
	// with an axis produces points without a canonical spec, which must
	// fail here with 400 rather than land the async job in "failed".
	if _, err := spec.Space.Points(); err != nil {
		return spec, err
	}
	if spec.Budget > s.cfg.MaxPoints {
		return spec, fmt.Errorf("budget %d exceeds the server cap of %d", spec.Budget, s.cfg.MaxPoints)
	}
	if spec.Trials > s.cfg.MaxTrials {
		return spec, fmt.Errorf("trials %d outside [1, %d]", spec.Trials, s.cfg.MaxTrials)
	}
	if cap := s.cfg.MaxInstrs; cap > 0 {
		if spec.WarmupInstrs > uint64(cap) || spec.MeasureInstrs > uint64(cap) ||
			spec.WarmupInstrs+spec.MeasureInstrs > uint64(cap) {
			return spec, fmt.Errorf("requested instruction count exceeds the server cap of %d", cap)
		}
	}
	return spec, nil
}
