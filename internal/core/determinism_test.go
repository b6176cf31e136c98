package core

import (
	"context"
	"testing"

	"repro/internal/config"
	"repro/internal/trace"
)

// TestDeterminism asserts that two freshly-built engines with the same
// machine, seed, and workload produce identical Stats after Warmup+Run.
// This guards the dyn freelist and generation recycling (and now the
// wakeup cache and event heap) against state leaking between
// instructions: any reuse bug shows up as a divergence between a fresh
// allocation pattern and a recycled one long before it corrupts an
// experiment.
func TestDeterminism(t *testing.T) {
	machines := equivalenceMachines()
	workloads := []trace.Profile{testWorkload(21), memWorkload(21)}
	if testing.Short() {
		workloads = workloads[:1]
	}
	run := func(m config.Machine, p trace.Profile) Stats {
		e := New(m, trace.New(p))
		if err := e.WarmupContext(context.Background(), 4000); err != nil {
			t.Fatalf("%s on %s: warmup: %v", m.Name, p.Name, err)
		}
		st, err := e.RunBudget(context.Background(), 12000, 0)
		if err != nil {
			t.Fatalf("%s on %s: %v", m.Name, p.Name, err)
		}
		return st
	}
	for _, m := range machines {
		for _, p := range workloads {
			t.Run(m.Name+"/"+p.Name, func(t *testing.T) {
				a, b := run(m, p), run(m, p)
				if a != b {
					t.Errorf("%s on %s: identical engines diverge\n first: %+v\nsecond: %+v", m.Name, p.Name, a, b)
				}
			})
		}
	}
}
