package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"weak"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/recovery"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestSuiteWarmupSharing pins the fault-campaign fast path: two trials
// that differ only in their injection seed must both resume the shared
// warmup checkpoint, and each must be byte-identical to its cold run.
func TestSuiteWarmupSharing(t *testing.T) {
	p, err := workload.ByName("parser")
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{WarmupInstrs: 4000, MeasureInstrs: 12000, Parallelism: 4}
	trial := func(seed uint64) config.Machine {
		m := config.SHREC()
		m.FaultRate = 2e-4
		m.FaultSeed = seed
		// The window must start past the warmup's fetch frontier for the
		// shared checkpoint to be sound; leave generous slack.
		m.FaultWindowLo, m.FaultWindowHi = 8000, 16000
		return m
	}

	s := NewSuite(opt)
	ctx := context.Background()
	for _, seed := range []uint64{1, 2} {
		m := trial(seed)
		warm, err := s.GetOpt(ctx, m, p, opt)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := RunContext(ctx, m, p, opt)
		if err != nil {
			t.Fatal(err)
		}
		if warm.Stats != cold.Stats || warm.Hung != cold.Hung {
			t.Errorf("seed %d: checkpoint-resumed trial diverged from cold run\nwarm: %+v\ncold: %+v",
				seed, warm.Stats, cold.Stats)
		}
	}
	if got := s.Counters().WarmupShares; got != 2 {
		t.Errorf("WarmupShares = %d, want 2 (both trials must resume the shared checkpoint)", got)
	}
}

// TestWarmupSharingRefusedWhenWindowOverlaps pins the soundness guard: a
// trial whose injection window opens before the warmup's fetch frontier
// must run cold rather than resume a checkpoint that may already have
// needed fault randomness.
func TestWarmupSharingRefusedWhenWindowOverlaps(t *testing.T) {
	p, _ := workload.ByName("parser")
	opt := Options{WarmupInstrs: 4000, MeasureInstrs: 8000}
	m := config.SHREC()
	m.FaultRate = 2e-4
	m.FaultSeed = 7
	m.FaultWindowLo, m.FaultWindowHi = 1000, 16000

	s := NewSuite(opt)
	warm, err := s.GetOpt(context.Background(), m, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := RunContext(context.Background(), m, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats != cold.Stats {
		t.Errorf("overlapping-window trial diverged from cold run\ngot:  %+v\ncold: %+v", warm.Stats, cold.Stats)
	}
	if got := s.Counters().WarmupShares; got != 0 {
		t.Errorf("WarmupShares = %d, want 0 (window overlaps warmup)", got)
	}
}

// identityMachines are the core conformance suite's machines: one
// representative of every execution mode, including the modifier variants
// with their own issue- or retire-stage code paths.
func identityMachines() []config.Machine {
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

// campaignRuns issues one fault campaign's requests to s as
// campaign.Run does: the fault-free golden run of m, counting the
// injection sites of the trials' window, then one fault-injected trial per
// seed, concurrently, under a hang budget of four golden runs. It returns
// every result as JSON, the golden run's first.
func campaignRuns(t *testing.T, s *Suite, m config.Machine, p trace.Profile, opt Options, rate float64, seeds []uint64) [][]byte {
	t.Helper()
	ctx := context.Background()
	lo := opt.WarmupInstrs + uint64(m.ROBSize+m.RetireWidth+64)
	hi := opt.WarmupInstrs + opt.MeasureInstrs
	golden, _, _, err := s.FetchGolden(ctx, m, p, opt, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, 1+len(seeds))
	out[0] = resultJSON(t, golden)
	topt := opt
	topt.MaxCycles = 4 * golden.Stats.Cycles
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mc := m
			mc.FaultRate, mc.FaultSeed = rate, seed
			mc.FaultWindowLo, mc.FaultWindowHi = lo, hi
			r, err := s.GetOpt(ctx, mc, p, topt)
			if err != nil {
				t.Error(err)
				return
			}
			out[1+i] = resultJSON(t, r)
		}()
	}
	wg.Wait()
	return out
}

// resultJSON marshals r, failing the test (from any goroutine) if it
// cannot.
func resultJSON(t *testing.T, r Result) []byte {
	b, err := json.Marshal(r)
	if err != nil {
		t.Errorf("marshalling %s on %s: %v", r.Machine, r.Benchmark, err)
	}
	return b
}

// generatorWarmup gives s the warmup checkpoint of m on p at opt built on
// a fresh generator, so s's runs resume it instead of building one on the
// profile's tape.
func generatorWarmup(t *testing.T, s *Suite, m config.Machine, p trace.Profile, opt Options) {
	t.Helper()
	base, ck := warmupKey(m, p, opt)
	e := core.New(base, trace.New(p))
	if err := e.WarmupContext(context.Background(), opt.WarmupInstrs); err != nil {
		t.Fatal(err)
	}
	entry := &cpEntry{}
	entry.once.Do(func() { entry.cp, entry.err = e.Checkpoint() })
	if entry.err != nil {
		t.Fatal(entry.err)
	}
	s.cpMu.Lock()
	s.cps[ck] = entry
	s.cpMu.Unlock()
}

func profilesByName(t *testing.T, names ...string) []trace.Profile {
	t.Helper()
	var out []trace.Profile
	for _, name := range names {
		p, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

// TestTapeWarmupIdentity pins warmup checkpoints on tapes: every golden
// run and trial of a campaign whose warmup checkpoint replays the
// profile's tape has the sim.Result bytes of the same campaign on a
// checkpoint warmed on a fresh generator, over the conformance machines on
// two profiles, without recovery and under ckpt@4k+depth2, at two rates
// with three seeds each. Three tapes are crossed: one the campaign's first
// run builds, which covers every run; one a short run built first, which
// ends 2000 instructions into the measured phase, so runs and their
// rollbacks cross its end; and one that ends before the warmup checkpoint,
// whose cursor is already past the tape when the trials clone it.
func TestTapeWarmupIdentity(t *testing.T) {
	machines := identityMachines()
	profiles := profilesByName(t, "crafty", "swim")
	if testing.Short() { // make engine-identity runs the whole cross
		machines = []config.Machine{config.SS2(config.Factors{S: true}), config.SHREC(), config.FlexMachine(512, 128)}
	}
	ckpt, err := recovery.ParseMode("ckpt@4k+depth2")
	if err != nil {
		t.Fatal(err)
	}
	policies := []recovery.Policy{{}, ckpt}
	rates := []float64{2e-5, 1e-3}
	opt := Options{WarmupInstrs: 6000, MeasureInstrs: 8000}

	// each runs every campaign of the cross on s, in one order.
	each := func(s *Suite, f func(name string, runs [][]byte)) {
		c := uint64(0)
		for _, m := range machines {
			for _, p := range profiles {
				for _, pol := range policies {
					for _, rate := range rates {
						mp := pol.Apply(m)
						seeds := []uint64{3*c + 1, 3*c + 2, 3*c + 3}
						c++
						f(fmt.Sprintf("%s/%s/%s/%g", m.Spec(), p.Name, pol, rate), campaignRuns(t, s, mp, p, opt, rate, seeds))
					}
				}
			}
		}
	}

	ref := NewSuite(Options{Parallelism: 2})
	for _, m := range machines {
		for _, p := range profiles {
			generatorWarmup(t, ref, m, p, opt)
		}
	}
	want := map[string][][]byte{}
	each(ref, func(name string, runs [][]byte) { want[name] = runs })
	if ref.Counters().WarmupShares == 0 {
		t.Fatal("no reference run resumed a warmup checkpoint")
	}

	for _, v := range []struct {
		name string
		pre  Options // the short run that builds the tape first, if any
		tape int     // the tape's length
	}{
		{"own tape", Options{}, int(opt.WarmupInstrs+opt.MeasureInstrs) + tapeSlack},
		{"tape ends mid-run", Options{WarmupInstrs: 3000, MeasureInstrs: 1000}, 4000 + tapeSlack},
		{"tape ends in warmup", Options{WarmupInstrs: 500, MeasureInstrs: 500}, 1000 + tapeSlack},
	} {
		s := NewSuite(Options{Parallelism: 2})
		if v.pre.MeasureInstrs > 0 {
			for _, p := range profiles {
				if _, err := s.GetOpt(context.Background(), config.SS1(), p, v.pre); err != nil {
					t.Fatal(err)
				}
			}
		}
		each(s, func(name string, runs [][]byte) {
			for i := range runs {
				if !bytes.Equal(runs[i], want[name][i]) {
					t.Errorf("%s: %s: run %d (0 is the golden run) on the tape differs from the generator-warmed run:\n tape      %s\n generator %s",
						v.name, name, i, runs[i], want[name][i])
				}
			}
		})
		c, r := s.Counters(), ref.Counters()
		if c.TapeBuilds != uint64(len(profiles)) || c.WarmupShares != r.WarmupShares {
			t.Errorf("%s: %d tape builds and %d warmup shares, want %d and %d", v.name, c.TapeBuilds, c.WarmupShares, len(profiles), r.WarmupShares)
		}
		for _, p := range profiles {
			if n := s.tapes[tapeKey(p)].tape.Len(); n != v.tape {
				t.Errorf("%s: %s's tape holds %d instructions, want %d", v.name, p.Name, n, v.tape)
			}
		}
	}
}

// checkTapeBytes checks the tape cache's LRU rule: tapeBytes is the sum
// of the built tapes' bytes, and it fits tapeBudget unless the one tape
// left exceeds it alone. No evicted tape is also cached.
func checkTapeBytes(t *testing.T, s *Suite) {
	t.Helper()
	sum, built := 0, 0
	for k, e := range s.tapes {
		sum += e.bytes
		if e.bytes > 0 {
			built++
		}
		if _, ok := s.evicted[k]; ok {
			t.Errorf("tape %x is both cached and evicted", k[:8])
		}
	}
	if sum != s.tapeBytes || (s.tapeBytes > tapeBudget && built > 1) {
		t.Errorf("%d tapes of %d bytes counted as %d against a budget of %d", built, sum, s.tapeBytes, tapeBudget)
	}
}

// TestTapeRevival pins the bound on a suite's live tapes: at most one per
// profile. A tape the LRU evicts while a warmup checkpoint still replays
// it is revived by the next request for its profile, not rebuilt, and
// re-enters the LRU's byte count; the campaign that revived it matches a
// generator-warmed one. A tape nothing holds any more is collected and
// rebuilt.
func TestTapeRevival(t *testing.T) {
	ps := profilesByName(t, "crafty", "swim", "gcc-166")
	crafty, swim, gcc := ps[0], ps[1], ps[2]
	ckpt, err := recovery.ParseMode("ckpt@4k+depth2")
	if err != nil {
		t.Fatal(err)
	}
	m := ckpt.Apply(config.SHREC())
	ctx := context.Background()
	s := NewSuite(Options{Parallelism: 2})

	// The first campaign's warmup checkpoint replays crafty's tape; swim's
	// tape serves one cold run and then nothing.
	campaignRuns(t, s, m, crafty, Options{WarmupInstrs: 4000, MeasureInstrs: 8000}, 1e-3, []uint64{1, 2})
	if _, err := s.GetOpt(ctx, config.SS1(), swim, Options{WarmupInstrs: 1000, MeasureInstrs: 1000}); err != nil {
		t.Fatal(err)
	}
	held := weak.Make(s.tapes[tapeKey(crafty)].tape)
	// gcc-166's tape alone exceeds the budget: its build evicts both.
	if s.tapeFor(ctx, gcc, Options{MeasureInstrs: 1000}) == nil {
		t.Fatal("gcc-166's tape build failed")
	}
	if len(s.tapes) != 1 || len(s.evicted) != 2 {
		t.Fatalf("%d tapes cached and %d evicted, want gcc-166's cached and the other two evicted", len(s.tapes), len(s.evicted))
	}
	checkTapeBytes(t, s)
	runtime.GC()

	// A second campaign on crafty, at another warmup length, builds its own
	// warmup checkpoint and so asks for crafty's tape.
	m2 := ckpt.Apply(config.SHREC().WithContexts(4))
	opt := Options{WarmupInstrs: 4001, MeasureInstrs: 8000}
	before := s.Counters()
	got := campaignRuns(t, s, m2, crafty, opt, 1e-3, []uint64{3, 4})
	after := s.Counters()
	if after.TapeBuilds != before.TapeBuilds || after.TapeHits != before.TapeHits+1 {
		t.Errorf("the second campaign made %d tape builds and %d hits, want crafty's tape revived: 0 and 1",
			after.TapeBuilds-before.TapeBuilds, after.TapeHits-before.TapeHits)
	}
	e, ok := s.tapes[tapeKey(crafty)]
	if !ok || e.tape != held.Value() || e.bytes != e.tape.Bytes() {
		t.Fatal("crafty's evicted tape was not revived into the cache")
	}
	if _, ok := s.tapes[tapeKey(gcc)]; ok {
		t.Error("the revived tape did not evict gcc-166's to fit the budget")
	}
	checkTapeBytes(t, s)

	ref := NewSuite(Options{Parallelism: 2})
	generatorWarmup(t, ref, m2, crafty, opt)
	want := campaignRuns(t, ref, m2, crafty, opt, 1e-3, []uint64{3, 4})
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("run %d on the revived tape differs from the generator-warmed run:\n tape      %s\n generator %s", i, got[i], want[i])
		}
	}

	// Nothing holds swim's tape: it is collected, and rebuilt on demand.
	runtime.GC()
	before = s.Counters()
	if _, err := s.GetOpt(ctx, config.SS1(), swim, Options{WarmupInstrs: 1000, MeasureInstrs: 2000}); err != nil {
		t.Fatal(err)
	}
	if after := s.Counters(); after.TapeBuilds != before.TapeBuilds+1 {
		t.Errorf("swim's collected tape was not rebuilt: %d builds", after.TapeBuilds-before.TapeBuilds)
	}
	checkTapeBytes(t, s)
}
