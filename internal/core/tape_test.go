package core

import (
	"context"
	"testing"

	"repro/internal/config"
	"repro/internal/trace"
)

// conformTapeSlack is the suite's margin of tape past a run's warmup and
// measured instructions (sim's tapeSlack).
const conformTapeSlack = 4096

// TestConformanceTapeReplay: a machine replaying a profile's tape, as
// sim.Suite's cold runs do, commits byte-identical Stats to one on a fresh
// generator: on a tape as long as the suite builds for the run, on a tape
// that ends mid-run (the cursor crosses onto the generator saved at its
// end), and across a checkpoint taken before the tape's end and restored
// after the run has crossed it.
func TestConformanceTapeReplay(t *testing.T) {
	for _, m := range conformanceMachines() {
		t.Run(m.Name, func(t *testing.T) {
			p := testWorkload(13)
			want := warmedPlain(t, m, trace.New(p))
			for _, n := range []int{conformWarm + conformRun + conformTapeSlack, conformRun / 2} {
				e := New(m, tapeCursor(t, p, n))
				warmAudited(t, e, conformWarm)
				if got := runAudited(t, e, conformRun, false); got != want {
					t.Errorf("%d-instruction tape diverged from the generator\n want: %+v\n got:  %+v", n, want, got)
				}
			}

			// Checkpoint at about a fifth of the short tape, run past its
			// end, rewind and run again. A run cut at the checkpoint folds
			// its signature differently from an uncut one (see sigLimit),
			// so the reference is cut at the same point.
			cut := func(src trace.Source) (*Engine, *Checkpoint) {
				e := New(m, src)
				warmAudited(t, e, conformWarm)
				runAudited(t, e, conformRun/10, false)
				cp, err := e.Checkpoint()
				if err != nil {
					t.Fatal(err)
				}
				return e, cp
			}
			ref, _ := cut(trace.New(p))
			want = ref.runPlain(t, conformRun)
			e, cp := cut(tapeCursor(t, p, conformRun/2))
			if got := runAudited(t, e, conformRun, false); got != want {
				t.Errorf("cut run on the short tape diverged\n want: %+v\n got:  %+v", want, got)
			}
			e.Restore(cp)
			if got := runAudited(t, e, conformRun, false); got != want {
				t.Errorf("run restored from before the tape's end diverged\n want: %+v\n got:  %+v", want, got)
			}
		})
	}
}

// runPlain is the production RunBudget.
func (e *Engine) runPlain(t *testing.T, n uint64) Stats {
	t.Helper()
	st, err := e.RunBudget(context.Background(), n, 0)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// warmedPlain is the production warmup and measured run on src.
func warmedPlain(t *testing.T, m config.Machine, src trace.Source) Stats {
	t.Helper()
	e := New(m, src)
	if err := e.WarmupContext(context.Background(), conformWarm); err != nil {
		t.Fatal(err)
	}
	return e.runPlain(t, conformRun)
}

func tapeCursor(t *testing.T, p trace.Profile, n int) *trace.Cursor {
	t.Helper()
	tape, err := trace.BuildTape(context.Background(), p, n)
	if err != nil {
		t.Fatal(err)
	}
	return tape.Cursor()
}
