// Command perfbench is the repository's end-to-end benchmark. It drives
// one of three closed-loop workloads from a single caller through the
// program's public entry points, checks every output, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer ladder) as one
// JSON line:
//
//	sweep     cold (machine, profile) simulations through sim.Suite.GetOpt
//	campaign  fault-injection campaigns under checkpoint recovery through
//	          repro.Client.StartCampaign(...).Wait
//	serve     POST /simulate against an in-process shrecd whose results
//	          are all precomputed into its store
//
// See NOTES.md for why each workload exists and which layer metric is
// expected to move which end-to-end metric. Run it through run.py, which
// builds it inside the checkout:
//
//	python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// merge copies every metric of o that m does not already hold.
func (m metrics) merge(o metrics) {
	for k, v := range o {
		if _, ok := m[k]; !ok {
			m[k] = v
		}
	}
}

// result is the final JSON line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// env is what every workload needs from the command line.
type env struct {
	seed    uint64
	seconds float64
	workdir string // scratch space inside the checkout
	build   string // hash of the running binary, naming its digest records
}

// tally counts ops and the output checks they failed.
type tally struct {
	attempted, failed int
	errs              []string
}

// fail records one failed output check.
func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.errs) < 20 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, e := range o.errs {
		if len(t.errs) < 20 {
			t.errs = append(t.errs, e)
		}
	}
}

// bench is one benchmark workload. run measures the end-to-end
// metrics; traced measures the workload's own per-layer metrics (full
// scale) and probe measures the same layer metrics at a small fixed size,
// so a traced run of any workload reports the whole ladder.
type bench struct {
	name   string
	run    func(e env) (metrics, tally, error)
	traced func(e env) (metrics, tally, error)
	probe  func(e env) (metrics, tally, error)
}

var workloads = []bench{
	{"sweep", runSweep, tracedSweep, probeSweep},
	{"campaign", runCampaign, tracedCampaign, probeCampaign},
	{"serve", runServe, tracedServe, probeServe},
}

// endToEnd and perLayer are the metric names BENCHMARK.json declares; a
// run that misses one fails loudly instead of printing a partial result.
var endToEnd = []string{"setup_s", "work_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb"}

var perLayer = []string{
	"trace.next_ns",
	"core.new_ms", "core.warmup_ms", "core.ns_per_cycle", "core.skip_frac",
	"core.run_allocs.ss1", "core.run_allocs.ss2", "core.run_allocs.shrec",
	"core.run_allocs.meek", "core.run_allocs.flex", "core.run_allocs.o3rs",
	"core.checkpoint_ms", "core.restore_ms", "core.ipc",
	"cache.l1d_misses_per_kinstr", "cache.l2_misses_per_kinstr", "cache.mshr_alloc_fails",
	"bpred.mispredicts_per_kinstr", "fu.refusals_per_kinstr",
	"sim.cold_run_ms", "sim.overhead_ms", "sim.cache_hit_us", "sim.store_hit_us",
	"sim.warmup_share_frac",
	"sim.stage.cache_lookup_s", "sim.stage.store_fetch_s", "sim.stage.store_write_s",
	"sim.stage.warmup_share_s", "sim.stage.engine_run_s", "sim.stage.recovery_rollback_s",
	"recovery.rollbacks", "recovery.checkpoints", "recovery.lost_work_cycles",
	"campaign.golden_ms", "campaign.trial_ms", "campaign.trials_executed",
	"store.put_us", "store.get_us", "store.open_ms", "store.records",
	"shrecd.handler_p50_us", "shrecd.client_gap_us", "shrecd.non2xx",
	"telemetry.overhead_frac", "unaccounted_frac",
}

func main() {
	name := flag.String("workload", "", "workload: sweep, campaign, or serve")
	seed := flag.Uint64("seed", 1, "workload seed (inputs are a pure function of it)")
	seconds := flag.Float64("seconds", 30, "seconds to measure")
	trace := flag.Int("trace", 0, "1 prints the per-layer ladder instead of end-to-end metrics")
	flag.Parse()

	var w *bench
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload sweep|campaign|serve --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	tmp := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(tmp, w.name+"-")
	if err != nil {
		fatal(err)
	}
	build, err := buildID()
	if err != nil {
		fatal(err)
	}
	e := env{seed: *seed, seconds: *seconds, workdir: dir, build: build}
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%g trace=%d\n", w.name, *seed, *seconds, *trace)

	var (
		m    metrics
		t    tally
		want []string
	)
	if *trace == 0 {
		m, t, err = w.run(e)
		want = endToEnd
	} else {
		m, t, err = w.traced(e)
		for _, o := range workloads {
			if o.name == w.name || err != nil {
				continue
			}
			fmt.Printf("probe: %s layers at a fixed small size\n", o.name)
			var pm metrics
			var pt tally
			if pm, pt, err = o.probe(e); err == nil {
				m.merge(pm)
				t.add(pt)
			}
		}
		want = perLayer
	}
	os.RemoveAll(dir)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", w.name, err))
	}
	for _, k := range want {
		if _, ok := m[k]; !ok {
			fatal(fmt.Errorf("%s: metric %s was not measured", w.name, k))
		}
	}
	out := metrics{}
	for _, k := range want {
		out[k] = m[k]
	}
	for _, msg := range t.errs {
		fmt.Fprintln(os.Stderr, "check failed:", msg)
	}
	res := result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: out}
	if res.Attempted < 1 {
		fatal(errors.New("no ops attempted"))
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// ---------------------------------------------------------------------------
// Closed-loop phases.

// A clock reads elapsed time; a phase times its ops and rounds on one.
type clock struct {
	name string
	now  func() time.Duration
}

var epoch = time.Now()

// wallClock is the monotonic wall clock.
var wallClock = clock{"wall", func() time.Duration { return time.Since(epoch) }}

// cpuClock is the CPU time of all the process's threads. Unlike the wall
// clock it does not count the time the hypervisor ran other guests on
// this guest's vCPUs, which on a shared host slowed single-threaded ops
// by up to a fifth.
var cpuClock = clock{"process CPU", func() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}}

// phase is one closed-loop measurement: per-op latencies, work done in
// the workload's domain unit, wall-clock, and the time spent in rounds.
type phase struct {
	clock  string
	lat    []float64 // ms per op on the phase's clock, in op order
	work   float64
	wall   time.Duration
	busy   time.Duration // time inside rounds on the phase's clock, without the between calls
	rounds int
	steal  float64 // share of the host's CPU time stolen by other guests
	tally
}

// rate is the phase's throughput over whole rounds.
func (p phase) rate() float64 { return p.work / p.busy.Seconds() }

// loop runs op(i) for i = 0, 1, ... from one caller, each call starting
// after the previous one returned, until at least seconds have passed, at
// least minOps ops ran, and the op count is a multiple of round (so every
// phase covers whole rounds of the workload's fixed op mix). op returns
// the work it did and an error when its output check failed; latency is
// timed around the call on clk. between, when non-nil, runs before every
// round but the first, outside the ops' latencies and the phase's busy
// time.
func loop(clk clock, seconds float64, minOps, round int, between func(), op func(i int) (float64, error)) phase {
	p := phase{clock: clk.name}
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	roundStart := clk.now()
	steal0, total0 := cpuTicks()
	for i := 0; ; i++ {
		if i > 0 && i%round == 0 {
			p.busy += clk.now() - roundStart
			p.rounds++
			if i >= minOps && !time.Now().Before(deadline) {
				break
			}
			if between != nil {
				between()
			}
			roundStart = clk.now()
		}
		t0 := clk.now()
		work, err := op(i)
		p.lat = append(p.lat, float64((clk.now()-t0).Nanoseconds())/1e6)
		p.attempted++
		if err != nil {
			p.fail("op %d: %v", i, err)
			continue
		}
		p.work += work
	}
	p.wall = time.Since(start)
	steal1, total1 := cpuTicks()
	p.steal = (steal1 - steal0) / (total1 - total0)
	return p
}

// tailPct is the tail percentile a phase of at least minOps ops reports:
// the highest of p99.9, p99, p90, p75 and p50 that leaves at least ten ops
// beyond it. Fixing it from the workload's minimum op count keeps it the
// same percentile on every run.
func tailPct(minOps int) float64 {
	for _, p := range []float64{99.9, 99, 90, 75} {
		if float64(minOps)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

// endToEndMetrics reports a phase's end-to-end metrics; unit names the
// workload's domain unit of work.
func endToEndMetrics(name string, p phase, minOps int, setup []float64, unit string) metrics {
	m := metrics{}
	wps := p.rate()
	tp := tailPct(minOps)
	tail := percentile(p.lat, tp)
	beyond := 0
	for _, l := range p.lat {
		if l > tail {
			beyond++
		}
	}
	fmt.Printf("%s: %d ops in %d rounds, %.2fs busy of %.2fs wall, %.4g %s/s; op p50 %.4gms, p%g %.4gms (%d ops beyond); %s clock\n",
		name, len(p.lat), p.rounds, p.busy.Seconds(), p.wall.Seconds(), wps, unit, percentile(p.lat, 50), tp, tail, beyond, p.clock)
	fmt.Printf("%s: %.2f%% of the host's CPU time was stolen by other guests during the phase\n", name, 100*p.steal)
	fmt.Printf("%s: latency ladder ms: p90 %.4g, p99 %.4g, p99.9 %.4g, max %.4g\n", name,
		percentile(p.lat, 90), percentile(p.lat, 99), percentile(p.lat, 99.9), percentile(p.lat, 100))
	fmt.Printf("%s: setup median %.6gs over %d set-ups\n", name, median(setup), len(setup))
	m.set("setup_s", median(setup), "s")
	m.set("work_per_s", wps, "work/s")
	m.set("op_p50_ms", percentile(p.lat, 50), "ms")
	m.set("op_tail_ms", tail, "ms")
	m.set("peak_rss_mb", peakRSSMB(), "MB")
	return m
}

// overheadFrac is the share of throughput the traced phase lost against
// the untraced one, printed with both rates.
func overheadFrac(name string, untraced, traced float64) float64 {
	f := 1 - traced/untraced
	fmt.Printf("%s: telemetry overhead %.4f (untraced %.5g work/s, traced %.5g work/s)\n", name, f, untraced, traced)
	return f
}

// reconcile prints wall-clock against the summed layer times and returns
// the unaccounted share.
func reconcile(name string, wall float64, layers map[string]float64) float64 {
	keys := make([]string, 0, len(layers))
	sum := 0.0
	for k, v := range layers {
		keys = append(keys, k)
		sum += v
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%.4gs", k, layers[k])
	}
	f := 1 - sum/wall
	fmt.Printf("reconcile %s: wall %.4gs, layers %.4gs (%s ), unaccounted_frac %.4f\n", name, wall, sum, b.String()[1:], f)
	return f
}

// ---------------------------------------------------------------------------
// Statistics and process state.

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// percentile interpolates linearly between closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(r))
	hi := int(math.Ceil(r))
	return s[lo] + (s[hi]-s[lo])*(r-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// resetPeakRSS restarts the peak-RSS high-water mark (Linux clear_refs
// "5") after collecting garbage, so that harness preparation no user
// pays, such as precomputing serve's results, stays out of peak_rss_mb.
func resetPeakRSS() {
	runtime.GC()
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: peak RSS not reset:", err)
	}
}

// cpuTicks reads the steal and total CPU ticks of every CPU from
// /proc/stat; both are 0 where it cannot be read.
func cpuTicks() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// ---------------------------------------------------------------------------
// Output digests.

// digest hashes the simulated outputs of a fixed prefix of a run's ops
// (the same ops for a given seed whatever the machine's speed). It is
// printed, and compared with the digest an earlier run of the same binary
// with the same seed recorded: a mismatch fails the run, since simulated
// outputs are a pure function of the code and the seed. Records are kept
// per binary, so a checkout rebuilt with other code starts afresh; compare
// the printed digests across commits.
type digest struct{ buf []any }

func (d *digest) add(v any) { d.buf = append(d.buf, v) }

// check finalizes the digest, prints it, and reports a mismatch against
// the recorded digest of the same workload and seed.
func (d *digest) check(e env, name string, t *tally) {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, v := range d.buf {
		if err := enc.Encode(v); err != nil {
			t.fail("digest: encoding output: %v", err)
			return
		}
	}
	sum := hex.EncodeToString(h.Sum(nil))
	fmt.Printf("digest %s seed=%d outputs=%d sha256=%s\n", name, e.seed, len(d.buf), sum)
	dir := filepath.Join(filepath.Dir(filepath.Dir(e.workdir)), "digests", e.build)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.fail("digest: %v", err)
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d.sha256", name, e.seed))
	if prev, err := os.ReadFile(path); err == nil {
		if strings.TrimSpace(string(prev)) != sum {
			t.fail("digest %s seed %d: %s differs from an earlier run's %s", name, e.seed, sum, strings.TrimSpace(string(prev)))
		}
		return
	}
	if err := os.WriteFile(path, []byte(sum+"\n"), 0o644); err != nil {
		t.fail("digest: %v", err)
	}
}

// buildID hashes the running executable.
func buildID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	b, err := os.ReadFile(exe)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8]), nil
}

// mix derives a well-spread 64-bit value from a seed and small integers
// (splitmix64 finalizer over a running combination).
func mix(seed uint64, xs ...uint64) uint64 {
	z := seed
	for _, x := range xs {
		z ^= x + 0x9e3779b97f4a7c15 + (z << 6) + (z >> 2)
	}
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
