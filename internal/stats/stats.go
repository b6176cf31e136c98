// Package stats provides the small statistical toolkit the paper's
// methodology requires: harmonic means for IPC aggregation (CPI is additive
// across equal instruction counts, so IPCs combine harmonically), percentage
// changes, and Wilson confidence intervals for fault-campaign coverage.
package stats

import (
	"fmt"
	"math"
)

// Wilson returns the Wilson score interval for a binomial proportion:
// successes out of n trials, at the confidence whose standard-normal
// quantile is z (1.96 for 95%). Unlike the naive normal approximation it
// never leaves [0, 1] and stays informative at proportions near 0 or 1 —
// exactly where fault-campaign coverage estimates live (a campaign that
// detects 400 of 400 faults has a lower bound meaningfully below 100%).
// With n == 0 nothing is known and the interval is the whole [0, 1].
func Wilson(successes, n int, z float64) (lo, hi float64) {
	if n <= 0 {
		return 0, 1
	}
	p := float64(successes) / float64(n)
	nf := float64(n)
	z2 := z * z
	denom := 1 + z2/nf
	center := p + z2/(2*nf)
	pm := z * math.Sqrt(p*(1-p)/nf+z2/(4*nf*nf))
	lo = (center - pm) / denom
	hi = (center + pm) / denom
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// HarmonicMean returns the harmonic mean of xs. It returns 0 for an empty
// slice and panics if any value is not strictly positive, because a zero or
// negative IPC indicates a simulator bug rather than a degenerate average.
func HarmonicMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var inv float64
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: HarmonicMean of non-positive value %v", x))
		}
		inv += 1 / x
	}
	return float64(len(xs)) / inv
}

// PctChange returns the percentage change from base to v: positive when v
// is larger. It panics if base is zero.
func PctChange(base, v float64) float64 {
	if base == 0 {
		panic("stats: PctChange with zero base")
	}
	return 100 * (v - base) / base
}

// PctPenalty returns how many percent v falls below base (a positive
// "performance penalty"): PctPenalty(4.0, 3.0) = 25.
func PctPenalty(base, v float64) float64 { return -PctChange(base, v) }
