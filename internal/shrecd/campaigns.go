package shrecd

import (
	"fmt"

	"repro/internal/campaign"
)

// campaignKind is the POST /campaigns job kind: asynchronous Monte Carlo
// fault-injection campaigns, polled for trials done/total and running
// coverage.
func (s *Server) campaignKind() *jobKind[campaign.Spec, campaign.Progress, *campaign.Result] {
	return &jobKind[campaign.Spec, campaign.Progress, *campaign.Result]{
		jobTable: newJobTable[campaign.Spec, campaign.Progress, *campaign.Result]("campaign", s.cfg.MaxCampaigns),
		srv:      s,
		prefix:   "/campaigns",
		maxBody:  64 << 10,
		prepare:  s.prepareCampaign,
		run:      campaign.Run,
	}
}

// prepareCampaign normalizes a campaign spec and caps its cost: the
// trial count, the run lengths, and the hang budget.
func (s *Server) prepareCampaign(raw campaign.Spec) (campaign.Spec, error) {
	spec, err := campaign.Normalize(raw, s.cfg.DefaultOptions)
	if err != nil {
		return spec, err
	}
	if spec.Trials > s.cfg.MaxTrials {
		return spec, fmt.Errorf("trials %d outside [1, %d]", spec.Trials, s.cfg.MaxTrials)
	}
	if cap := s.cfg.MaxInstrs; cap > 0 {
		if spec.WarmupInstrs > uint64(cap) || spec.MeasureInstrs > uint64(cap) ||
			spec.WarmupInstrs+spec.MeasureInstrs > uint64(cap) {
			return spec, fmt.Errorf("requested instruction count exceeds the server cap of %d", cap)
		}
		// The hang budget is a cost cap of the same kind: an uncapped
		// client-supplied MaxCycles would let one trial simulate
		// arbitrarily many cycles regardless of the instruction caps.
		// Cycle counts are the same order as instruction counts, so a
		// generous multiple of MaxInstrs bounds it without constraining
		// legitimate watchdog headroom.
		if maxBudget := 64 * cap; spec.MaxCycles > maxBudget {
			return spec, fmt.Errorf("max_cycles %d exceeds the server cap of %d", spec.MaxCycles, maxBudget)
		}
	}
	return spec, nil
}
