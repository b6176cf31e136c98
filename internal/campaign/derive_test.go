package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/sim"
)

// deriveMachines are the core conformance suite's machines: one
// representative of every execution mode, including the modifier variants
// with their own issue- or retire-stage code paths.
func deriveMachines() []config.Machine {
	return []config.Machine{
		config.SS1(),
		config.SS2(config.Factors{}),
		config.SS2(config.Factors{S: true}),
		config.SHREC(),
		config.DIVA(),
		config.O3RS(),
		config.MEEK(2),
		config.MEEK(4),
		config.SHREC().WithContexts(4),
		config.DIVA().WithContexts(2),
		config.FlexMachine(512, 128),
		config.FLEX(),
	}
}

// TestCleanTrialDerivationIdentity pins the clean-trial rule in both
// directions, over the conformance machines on two profiles, four rates
// (realistic to certain), three windows (the measured region, a narrow one
// and a single instruction), and both recovery settings, 16 seeds per
// cell: every trial derived from its golden run has the same sim.Result
// bytes as a fresh simulation of its key on a suite that never ran the
// golden, and every trial the rule calls faulty does inject (or roll back
// a detection) once simulated. Each window gets its own suite, since a
// golden run counts one window's sites.
func TestCleanTrialDerivationIdentity(t *testing.T) {
	machines := deriveMachines()
	profiles := []string{"crafty", "swim"}
	if testing.Short() { // make engine-identity runs the whole cross
		machines = []config.Machine{config.SS2(config.Factors{S: true}), config.FlexMachine(512, 128)}
		profiles = profiles[:1]
	}
	rates := []float64{1e-6, 2e-5, 1e-4, 1}
	recoveries := []string{"none", "ckpt@4k+depth2"}
	const seeds = 16
	windows := []struct {
		name string
		// lo and width give WindowLo and the instructions in the window
		// past the fetch horizon; width 0 selects the default window.
		lo, width uint64
	}{{"default", 0, 0}, {"narrow", 1000, 300}, {"one", 2000, 1}}

	ctx := context.Background()
	ref := suiteAt(2) // never runs a golden, so every trial simulates
	derived, faulty := 0, 0
	for _, w := range windows {
		sims := suiteAt(2)
		for _, m := range machines {
			for _, bench := range profiles {
				for _, rec := range recoveries {
					for _, rate := range rates {
						spec := quickSpec(m.Spec(), seeds)
						spec.Benchmark, spec.Recovery, spec.FaultRate = bench, rec, rate
						if w.width > 0 {
							spec.WindowLo = w.lo
							spec.WindowHi = w.lo + fetchHorizon(m) + w.width
						}
						name := fmt.Sprintf("%s/%s/%s/%s/%g", w.name, m.Spec(), bench, rec, rate)
						d, f := checkDerivation(t, ctx, name, sims, ref, spec)
						derived += d
						faulty += f
					}
				}
			}
		}
	}
	if derived == 0 || faulty == 0 {
		t.Fatalf("%d derived and %d faulty trials: the cross misses a direction", derived, faulty)
	}
	t.Logf("%d trials derived, %d simulated as faulty", derived, faulty)
}

// checkDerivation runs spec on sims and checks each trial against ref,
// returning how many trials were derived and how many simulated.
func checkDerivation(t *testing.T, ctx context.Context, name string, sims, ref *sim.Suite, spec Spec) (derived, faulty int) {
	t.Helper()
	before := sims.Counters().CleanSkips
	res, err := Run(ctx, sims, spec, nil)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	ns, m, p, opt := goldenKey(t, sims, spec)
	lo, hi := ns.WarmupInstrs+fetchHorizon(m)+ns.WindowLo, ns.WarmupInstrs+ns.WindowHi
	_, sites, known, err := sims.FetchGolden(ctx, m, p, opt, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if !known || !fitsBudget(res.Golden, res.MaxCycles) {
		t.Fatalf("%s: golden run gives no derivation (sites known %v)", name, known)
	}
	var wg sync.WaitGroup
	for i, tr := range res.Trials {
		mc := m
		mc.FaultRate, mc.FaultSeed = ns.FaultRate, tr.Seed
		mc.FaultWindowLo, mc.FaultWindowHi = lo, hi
		topt := opt
		topt.MaxCycles = res.MaxCycles
		if core.FirstFaultSite(mc.FaultRate, mc.FaultSeed, sites) < sites {
			faulty++
			if tr.Outcome == OutcomeClean {
				t.Errorf("%s: trial %d called faulty simulated clean: %+v", name, i, tr)
			}
			continue
		}
		derived++
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, ran, err := sims.Fetch(ctx, mc, p, topt)
			if err != nil || ran {
				t.Errorf("%s: trial %d not cached (ran %v): %v", name, i, ran, err)
				return
			}
			want, ran, err := ref.Fetch(ctx, mc, p, topt)
			if err != nil || !ran {
				t.Errorf("%s: trial %d reference not simulated (ran %v): %v", name, i, ran, err)
				return
			}
			gb, _ := json.Marshal(got)
			wb, _ := json.Marshal(want)
			if !bytes.Equal(gb, wb) {
				t.Errorf("%s: derived trial %d differs from its simulation:\n derived %s\n simulated %s", name, i, gb, wb)
			}
		}()
	}
	wg.Wait()
	if skips := int(sims.Counters().CleanSkips - before); skips != derived {
		t.Errorf("%s: %d clean skips, want %d", name, skips, derived)
	}
	return derived, faulty
}
