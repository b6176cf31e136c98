package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/shrecd"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The serve workload: one keep-alive client sends POST /simulate to an
// in-process shrecd on a loopback listener. Every result the client asks
// for is simulated into the server's store before anything is timed, and
// every key is requested once before the timed phase, so no request
// simulates and every timed request takes the same path: HTTP, JSON, and
// a sim.Suite cache hit. Key popularity is a seed-fixed Zipf draw.
const (
	serveKeys = 256
	// serveMinOps gives the p99 tail at least ten ops beyond it.
	serveMinOps = 1000
	// serveRound is how many requests make one round.
	serveRound = 1000
	// serveSetupReps is how many server start-ups are timed before the
	// phase. They are not sampled between rounds: a second server's
	// allocations beside the measured one made peak RSS vary by a fifth.
	serveSetupReps = 101
	serveZipfS     = 1.2
	// serveDigestOps is how many requests of the stream are digested.
	serveDigestOps = 1000
	// serveScrapeEvery is how often the traced phase scrapes /metrics.
	serveScrapeEvery = 2000
	route            = "POST /simulate"
)

var serveMachines = []string{"ss1", "ss2", "ss2+s", "shrec", "shrec+ctx8", "meek@2", "flex", "o3rs"}

// serveKey is one POST /simulate body.
type serveKey struct {
	Machine       string `json:"machine"`
	Benchmark     string `json:"benchmark"`
	WarmupInstrs  uint64 `json:"warmup_instrs"`
	MeasureInstrs uint64 `json:"measure_instrs"`
}

// serveData is the key pool and every stored result.
type serveData struct {
	keys     []serveKey
	bodies   [][]byte
	want     []core.Stats
	machines []config.Machine
	profiles []trace.Profile
	dir      string
}

func (k serveKey) options() sim.Options {
	return sim.Options{WarmupInstrs: k.WarmupInstrs, MeasureInstrs: k.MeasureInstrs}
}

// serveKeyPool draws n distinct short-run keys from the seed.
func serveKeyPool(seed uint64, n int) []serveKey {
	names := workload.Names()
	seen := map[serveKey]bool{}
	var keys []serveKey
	for j := uint64(0); len(keys) < n; j++ {
		k := serveKey{
			Machine:       serveMachines[mix(seed, j, 7)%uint64(len(serveMachines))],
			Benchmark:     names[mix(seed, j, 8)%uint64(len(names))],
			WarmupInstrs:  1000 + mix(seed, j, 9)%1000,
			MeasureInstrs: 2000 + mix(seed, j, 10)%1000,
		}
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}

// servePrecompute simulates every key's result into a store at dir.
func servePrecompute(ctx context.Context, seed uint64, n int, dir string) (*serveData, error) {
	d := &serveData{keys: serveKeyPool(seed, n), dir: dir}
	for _, k := range d.keys {
		m, err := config.ByName(k.Machine)
		if err != nil {
			return nil, err
		}
		p, err := workload.ByName(k.Benchmark)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(k)
		if err != nil {
			return nil, err
		}
		d.machines = append(d.machines, m)
		d.profiles = append(d.profiles, p)
		d.bodies = append(d.bodies, body)
	}
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	suite := sim.NewSuite(sim.Options{Parallelism: campWorkers()}).WithStore(st)
	d.want = make([]core.Stats, len(d.keys))
	errs := make([]error, len(d.keys))
	var wg sync.WaitGroup
	sem := make(chan struct{}, campWorkers())
	for i := range d.keys {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			res, err := suite.GetOpt(ctx, d.machines[i], d.profiles[i], d.keys[i].options())
			d.want[i], errs[i] = res.Stats, err
		}(i)
	}
	wg.Wait()
	return d, errors.Join(errs...)
}

// liveServer is one running in-process shrecd.
type liveServer struct {
	st    *store.Store
	suite *sim.Suite
	srv   *shrecd.Server
	hs    *http.Server
	url   string
	done  chan error
}

// startServer is the work a serve user pays before the first request:
// opening the store (segment replay), building the server, listening, and
// answering a health check. It returns the store-open time separately.
func startServer(dir string, client *http.Client) (*liveServer, time.Duration, error) {
	t0 := time.Now()
	st, err := store.Open(dir)
	if err != nil {
		return nil, 0, err
	}
	open := time.Since(t0)
	opt := sim.Options{WarmupInstrs: 1000, MeasureInstrs: 2000, Parallelism: campWorkers()}
	suite := sim.NewSuite(opt).WithStore(st)
	srv := shrecd.NewWith(shrecd.Config{DefaultOptions: opt, MaxConcurrent: 4, Store: st}, suite)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		st.Close()
		return nil, 0, err
	}
	ls := &liveServer{st: st, suite: suite, srv: srv, url: "http://" + ln.Addr().String(), done: make(chan error, 1),
		hs: &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}}
	go func() { ls.done <- ls.hs.Serve(ln) }()
	resp, err := client.Get(ls.url + "/healthz")
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		ls.stop()
		return nil, 0, err
	}
	return ls, open, nil
}

// stop shuts the server down and waits for it.
func (ls *liveServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ls.hs.Shutdown(ctx)
	<-ls.done
	ls.srv.Close()
	ls.st.Close()
}

func newServeClient() *http.Client {
	return &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

// serveSetup times repeated server start-ups and returns the last server
// with the store-open times.
func serveSetup(d *serveData, client *http.Client, reps int) ([]float64, []float64, *liveServer, error) {
	var setup, open []float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		ls, o, err := startServer(d.dir, client)
		if err != nil {
			return nil, nil, nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		open = append(open, float64(o.Nanoseconds())/1e6)
		if r == reps-1 {
			return setup, open, ls, nil
		}
		ls.stop()
	}
	return nil, nil, nil, nil
}

// request sends key k and checks the response's stats against the stored
// result.
func (d *serveData) request(client *http.Client, url string, k int) error {
	resp, err := client.Post(url+"/simulate", "application/json", bytes.NewReader(d.bodies[k]))
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("key %d: %s: %s", k, resp.Status, bytes.TrimSpace(body))
	}
	var got struct {
		Stats core.Stats `json:"stats"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("key %d: decoding response: %w", k, err)
	}
	if got.Stats != d.want[k] {
		return fmt.Errorf("key %d (%s on %s): response stats differ from the stored result", k, d.keys[k].Machine, d.keys[k].Benchmark)
	}
	return nil
}

// prime requests every key once, in a seed-shuffled order, so the timed
// phase serves every key from the suite's memory cache.
func (d *serveData) prime(seed uint64, client *http.Client, url string, t *tally) []float64 {
	var lat []float64
	for _, k := range rand.New(rand.NewSource(int64(mix(seed, 11)))).Perm(len(d.keys)) {
		t0 := time.Now()
		t.attempted++
		if err := d.request(client, url, k); err != nil {
			t.fail("prime: %v", err)
		}
		lat = append(lat, msSince(t0))
	}
	return lat
}

// stream returns the seed's request stream: Zipf-distributed ranks over a
// seed-shuffled popularity order of the keys.
func (d *serveData) stream(seed, tag uint64) func() int {
	r := rand.New(rand.NewSource(int64(mix(seed, tag, 12))))
	order := r.Perm(len(d.keys))
	z := rand.NewZipf(r, serveZipfS, 1, uint64(len(d.keys)-1))
	return func() int { return order[z.Uint64()] }
}

// servePhase runs the closed loop; every is called before op i when
// non-nil (the traced phase scrapes /metrics from it).
func servePhase(d *serveData, client *http.Client, url string, seconds float64, minOps int, next func() int, dg *digest, every func(i int)) phase {
	return loop(wallClock, seconds, minOps, serveRound, nil, func(i int) (float64, error) {
		k := next()
		if dg != nil && i < serveDigestOps {
			dg.add(k)
		}
		if every != nil {
			every(i)
		}
		return 1, d.request(client, url, k)
	})
}

// serveBoot precomputes the results and starts the server.
func serveBoot(ctx context.Context, e env, name string, keys, reps int) (*serveData, *http.Client, []float64, []float64, *liveServer, error) {
	d, err := servePrecompute(ctx, e.seed, keys, e.workdir+"/"+name+".db")
	if err != nil {
		return nil, nil, nil, nil, nil, err
	}
	// One closed-loop client keeps at most one goroutine runnable at a
	// time (the client or the handler serving it). A second P only adds
	// cross-thread wake-ups to every request: on two CPUs that tripled
	// p50 and spread p99 over an order of magnitude between runs.
	runtime.GOMAXPROCS(1)
	resetPeakRSS()
	client := newServeClient()
	setup, open, ls, err := serveSetup(d, client, reps)
	return d, client, setup, open, ls, err
}

func runServe(e env) (metrics, tally, error) {
	ctx := context.Background()
	d, client, setup, _, ls, err := serveBoot(ctx, e, "serve", serveKeys, serveSetupReps)
	if err != nil {
		return nil, tally{}, err
	}
	defer ls.stop()
	var t tally
	prime := d.prime(e.seed, client, ls.url, &t)
	fmt.Printf("serve: primed %d keys from the store, median %.4gms\n", len(prime), median(prime))
	var dg digest
	for _, w := range d.want {
		dg.add(w)
	}
	p := servePhase(d, client, ls.url, e.seconds, serveMinOps, d.stream(e.seed, 0), &dg, nil)
	m := endToEndMetrics("serve", p, serveMinOps, setup, "requests")
	t.add(p.tally)
	dg.check(e, "serve", &t)
	return m, t, nil
}

// exposition is a scraped /metrics page: sample name with labels -> value.
type exposition map[string]float64

func scrape(client *http.Client, url string) (exposition, error) {
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	x := exposition{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scrape: %q: %w", line, err)
		}
		x[line[:i]] = v
	}
	return x, sc.Err()
}

// handlerHist rebuilds the POST /simulate latency histogram accrued
// between two scrapes.
func handlerHist(before, after exposition) telemetry.HistogramSnapshot {
	prefix := fmt.Sprintf("shrecd_http_request_seconds_bucket{route=%q,le=", route)
	var s telemetry.HistogramSnapshot
	for k, v := range after {
		le, ok := strings.CutPrefix(k, prefix)
		if !ok {
			continue
		}
		ub, err := strconv.ParseFloat(strings.Trim(le, `"}`), 64)
		if err != nil {
			continue
		}
		s.Buckets = append(s.Buckets, telemetry.BucketCount{UpperBound: ub, Count: uint64(v - before[k])})
	}
	sort.Slice(s.Buckets, func(i, j int) bool { return s.Buckets[i].UpperBound < s.Buckets[j].UpperBound })
	sum := fmt.Sprintf("shrecd_http_request_seconds_sum{route=%q}", route)
	count := fmt.Sprintf("shrecd_http_request_seconds_count{route=%q}", route)
	s.Sum = after[sum] - before[sum]
	s.Count = uint64(after[count] - before[count])
	return s
}

// non2xx counts POST /simulate responses outside 2xx between two scrapes.
func non2xx(before, after exposition) float64 {
	prefix := fmt.Sprintf("shrecd_http_requests_total{route=%q,code=", route)
	n := 0.0
	for k, v := range after {
		if code, ok := strings.CutPrefix(k, prefix); ok && code != `"2xx"}` {
			n += v - before[k]
		}
	}
	return n
}

// serveLayers runs a traced phase against a live server and measures the
// serve layers. It returns the metrics, requests per second, and tally.
func serveLayers(ctx context.Context, e env, d *serveData, client *http.Client, ls *liveServer, open []float64, seconds float64, minOps int) (metrics, float64, tally, error) {
	var t tally
	before, err := scrape(client, ls.url)
	if err != nil {
		return nil, 0, t, err
	}
	var scraping time.Duration
	p := servePhase(d, client, ls.url, seconds, minOps, d.stream(e.seed, 1), nil, func(i int) {
		if i > 0 && i%serveScrapeEvery == 0 {
			t0 := time.Now()
			if _, err := scrape(client, ls.url); err != nil {
				t.fail("scrape: %v", err)
			}
			scraping += time.Since(t0)
		}
	})
	t.add(p.tally)
	after, err := scrape(client, ls.url)
	if err != nil {
		return nil, 0, t, err
	}
	h := handlerHist(before, after)
	if h.Count == 0 {
		return nil, 0, t, errors.New("no POST /simulate observations in /metrics")
	}
	clientSum := 0.0
	for _, l := range p.lat {
		clientSum += l / 1e3
	}
	m := metrics{}
	m.set("shrecd.handler_p50_us", h.Quantile(0.5)*1e6, "us")
	m.set("shrecd.client_gap_us", (clientSum/float64(len(p.lat))-h.Sum/float64(h.Count))*1e6, "us")
	m.set("shrecd.non2xx", non2xx(before, after), "count")
	m.set("unaccounted_frac", reconcile("serve", p.wall.Seconds(), map[string]float64{
		"shrecd.handler": h.Sum, "client_gap": clientSum - h.Sum, "metrics_scrape": scraping.Seconds(),
	}), "frac")

	// sim.Suite hits, straight into the server's suite (memory) and into a
	// fresh suite over the same store (store).
	var hit, storeHit, get []float64
	for i := 0; i < 2000; i++ {
		k := i % len(d.keys)
		t0 := time.Now()
		res, err := ls.suite.GetOpt(ctx, d.machines[k], d.profiles[k], d.keys[k].options())
		hit = append(hit, msSince(t0)*1e3)
		if err != nil || res.Stats != d.want[k] {
			t.fail("cache hit %d: %v", k, err)
		}
	}
	cold := sim.NewSuite(sim.Options{Parallelism: 1}).WithStore(ls.st)
	for k := range d.keys {
		t0 := time.Now()
		res, err := cold.GetOpt(ctx, d.machines[k], d.profiles[k], d.keys[k].options())
		storeHit = append(storeHit, msSince(t0)*1e3)
		if err != nil || res.Stats != d.want[k] {
			t.fail("store hit %d: %v", k, err)
		}
	}
	if n := cold.StoreHits(); n != uint64(len(d.keys)) {
		t.fail("store hits: %d of %d lookups", n, len(d.keys))
	}
	var keys []string
	ls.st.Range(func(key string, _ json.RawMessage) bool { keys = append(keys, key); return true })
	for _, key := range keys {
		var res sim.Result
		t0 := time.Now()
		ok, err := ls.st.Get(key, &res)
		get = append(get, msSince(t0)*1e3)
		if err != nil || !ok {
			t.fail("store get %s: %v", key, err)
		}
	}
	m.set("sim.cache_hit_us", median(hit), "us")
	m.set("sim.store_hit_us", median(storeHit), "us")
	m.set("store.get_us", median(get), "us")
	m.set("store.open_ms", median(open), "ms")
	m.set("store.records", float64(ls.st.Len()), "count")
	if math.IsNaN(m["shrecd.handler_p50_us"].Value) {
		return nil, 0, t, errors.New("handler latency histogram is empty")
	}
	return m, float64(len(p.lat)) / p.wall.Seconds(), t, nil
}

func tracedServe(e env) (metrics, tally, error) {
	ctx := context.Background()
	d, client, _, open, ls, err := serveBoot(ctx, e, "serve", serveKeys, serveSetupReps)
	if err != nil {
		return nil, tally{}, err
	}
	defer ls.stop()
	var t tally
	d.prime(e.seed, client, ls.url, &t)
	var dg digest
	for _, w := range d.want {
		dg.add(w)
	}
	u := servePhase(d, client, ls.url, e.seconds/3, serveDigestOps, d.stream(e.seed, 0), &dg, nil)
	t.add(u.tally)
	dg.check(e, "serve", &t)
	m, tracedRPS, lt, err := serveLayers(ctx, e, d, client, ls, open, e.seconds/3, serveDigestOps)
	t.add(lt)
	if err != nil {
		return nil, t, err
	}
	m.set("telemetry.overhead_frac", overheadFrac("serve", u.rate(), tracedRPS), "frac")
	return m, t, nil
}

func probeServe(e env) (metrics, tally, error) {
	ctx := context.Background()
	d, client, _, open, ls, err := serveBoot(ctx, e, "serve-probe", 32, 1)
	if err != nil {
		return nil, tally{}, err
	}
	defer ls.stop()
	var t tally
	d.prime(e.seed, client, ls.url, &t)
	m, _, lt, err := serveLayers(ctx, e, d, client, ls, open, 0, 2000)
	t.add(lt)
	return m, t, err
}
