package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"equinox/internal/fleet"
	"equinox/internal/obs/trace"
	"equinox/internal/service"
)

// serviceParams sizes the service-fleet workload.
type serviceParams struct {
	Width, Height, NumCBs int
	Schemes               []string // per job: one fleet unit each
	Benchmark             string
	InstructionsPerPE     int
	Clients               int
	WarmPool              int // distinct warm specs, completed during set-up
	CheckSubset           int // cold jobs re-run single-process and compared
	Workers               int
	PollInterval          time.Duration
	HeartbeatInterval     time.Duration
	JobTimeout            time.Duration
	SetupRepeats          int
}

// paperService is the design-space-loop traffic mix: two closed-loop
// clients alternate a cold job (fresh seed, so it simulates) with a warm
// one (an already completed spec, so it only reads the store), against an
// in-process server with two in-process fleet workers.
//
// Cold jobs are two-unit sweeps (SingleBase and EquiNox) because the
// server shards only multi-run jobs; a single-run job would never reach
// the fleet. Workers poll every 10 ms rather than the fleet smoke test's
// 50 ms, so cold latency measures the fleet and the simulator rather than
// poll sleeps.
func paperService() serviceParams {
	return serviceParams{
		Width: 4, Height: 4, NumCBs: 2,
		Schemes:           []string{"SingleBase", "EquiNox"},
		Benchmark:         "gaussian",
		InstructionsPerPE: 400,
		Clients:           2,
		WarmPool:          8,
		CheckSubset:       4,
		Workers:           2,
		PollInterval:      10 * time.Millisecond,
		HeartbeatInterval: 250 * time.Millisecond,
		JobTimeout:        30 * time.Second,
		SetupRepeats:      5,
	}
}

func (p serviceParams) spec(seed int64) service.JobSpec {
	return service.JobSpec{
		Width: p.Width, Height: p.Height, NumCBs: p.NumCBs,
		Schemes: p.Schemes, Benchmarks: []string{p.Benchmark},
		InstructionsPerPE: p.InstructionsPerPE, Seed: seed,
	}
}

// jobSeed derives the simulation seed of job idx in a stream; distinct
// streams (cold jobs, warm pool) never share a seed.
func jobSeed(seed int64, stream, idx uint64) int64 {
	r := newSplitmix(seed, stream<<40|idx)
	return int64(r.next()>>2) + 1
}

const (
	coldStream = 1
	warmStream = 2
)

// fleetEnv is one running server with its fleet workers.
type fleetEnv struct {
	srv     *service.Server
	hs      *http.Server
	url     string
	client  *http.Client
	cancel  context.CancelFunc
	workers sync.WaitGroup
	serveWG sync.WaitGroup

	warmResult [][]byte
}

func startFleet(p serviceParams, seed int64, keepTraces bool) (*fleetEnv, error) {
	// The result cache holds 512 entries: it fills within seconds, so
	// memory reaches its working size early in the window, and the warm
	// pool's eight specs, each read every few jobs, are never evicted.
	cfg := service.Config{Workers: 2, CacheEntries: 512, TraceTail: time.Hour}
	if keepTraces {
		cfg.TraceSample = 1
	}
	e := &fleetEnv{srv: service.New(cfg)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.url = "http://" + ln.Addr().String()
	e.hs = &http.Server{Handler: e.srv.Handler()}
	e.serveWG.Add(1)
	go func() {
		defer e.serveWG.Done()
		e.hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on stop
	}()
	e.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 32}}

	ctx, cancel := context.WithCancel(context.Background())
	e.cancel = cancel
	for i := 0; i < p.Workers; i++ {
		name := fmt.Sprintf("bench-worker-%d", i)
		w, err := fleet.NewWorker(fleet.WorkerConfig{
			Coordinator:       e.url,
			Name:              name,
			PollInterval:      p.PollInterval,
			HeartbeatInterval: p.HeartbeatInterval,
			Tracer:            trace.NewTracer(name),
			Run: func(ctx context.Context, u fleet.Unit) ([]byte, error) {
				return service.RunSpec(ctx, u.Spec, 1)
			},
		})
		if err != nil {
			e.stop()
			return nil, err
		}
		e.workers.Add(1)
		go func() {
			defer e.workers.Done()
			w.Run(ctx) //nolint:errcheck // returns ctx.Err() on stop
		}()
	}
	// Workers register with their first lease poll.
	deadline := time.Now().Add(10 * time.Second)
	for {
		m, err := e.metrics()
		if err == nil && m["equinox_fleet_workers"] >= float64(p.Workers) {
			break
		}
		if time.Now().After(deadline) {
			e.stop()
			return nil, fmt.Errorf("fleet workers did not register: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Warm pool: complete the specs warm jobs will resubmit. They are
	// submitted together, so the workers stay busy instead of waiting out
	// poll intervals between jobs.
	pool := make([]jobResult, p.WarmPool)
	var wg sync.WaitGroup
	for i := range pool {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pool[i] = e.job(context.Background(), p.spec(jobSeed(seed, warmStream, uint64(i))), false)
		}(i)
	}
	wg.Wait()
	for i, r := range pool {
		if r.err != nil {
			e.stop()
			return nil, fmt.Errorf("warm pool job %d: %w", i, r.err)
		}
		e.warmResult = append(e.warmResult, r.result)
	}
	return e, nil
}

func (e *fleetEnv) stop() {
	e.cancel()
	e.workers.Wait()
	// Clients and workers are done, so closing the listener and every
	// connection at once loses nothing; Shutdown would wait up to five
	// seconds for connections a client dialled but never used.
	e.hs.Close() //nolint:errcheck // teardown
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	e.srv.Shutdown(ctx) //nolint:errcheck // no local jobs remain to drain
	e.serveWG.Wait()
	e.client.CloseIdleConnections()
}

// jobResult is one job as a client saw it.
type jobResult struct {
	id       string
	cold     bool
	idx      int // cold job index or warm pool index
	latency  time.Duration
	submit   time.Duration
	result   []byte // kept for warm-pool set-up and the checked cold subset
	cycles   int64  // simulated cycles of a cold result
	runs     int    // runs in a cold result
	resErr   error  // a result that did not decode
	same     bool   // a warm result equals the completed spec's
	refused  bool   // 429 or 503
	timedOut bool
	err      error
	done     time.Time
}

// errRefused marks a submission the server shed.
var errRefused = errors.New("submission refused")

// job submits a spec and waits for its result; wantCached says whether the
// server must answer from the store.
func (e *fleetEnv) job(ctx context.Context, spec service.JobSpec, wantCached bool) (r jobResult) {
	body, err := json.Marshal(spec)
	if err != nil {
		r.err = err
		return r
	}
	t0 := time.Now()
	defer func() { r.done = time.Now(); r.latency = r.done.Sub(t0) }()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		r.err = err
		return r
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := e.client.Do(req)
	if err != nil {
		r.err = err
		return r
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.submit = time.Since(t0)
	if err != nil {
		r.err = err
		return r
	}
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		r.refused, r.err = true, fmt.Errorf("%w: HTTP %d", errRefused, resp.StatusCode)
		return r
	}
	var sub service.SubmitResponse
	if resp.StatusCode/100 != 2 || json.Unmarshal(raw, &sub) != nil {
		r.err = fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
		return r
	}
	r.id = sub.ID
	if sub.Cached != wantCached {
		r.err = fmt.Errorf("submit: cached=%v, want %v", sub.Cached, wantCached)
		return r
	}
	if !sub.Cached {
		if err := e.awaitTerminal(ctx, sub.ID); err != nil {
			r.err = err
			return r
		}
	}
	st, err := e.status(ctx, sub.ID)
	if err != nil {
		r.err = err
		return r
	}
	if st.Status != service.JobDone || len(st.Result) == 0 {
		r.err = fmt.Errorf("job %s finished %s without a result: %s", sub.ID, st.Status, st.Error)
		return r
	}
	r.result = st.Result
	return r
}

// awaitTerminal follows the job's event stream to its terminal event.
func (e *fleetEnv) awaitTerminal(ctx context.Context, id string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.url+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	terminal := false
	for sc.Scan() {
		line := sc.Text()
		if line == "event: job" {
			terminal = true
		}
		if terminal && line == "" {
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if !terminal {
		return fmt.Errorf("events: stream ended without a terminal event")
	}
	return nil
}

func (e *fleetEnv) status(ctx context.Context, id string) (service.JobStatus, error) {
	var st service.JobStatus
	raw, err := e.get(ctx, "/v1/jobs/"+id)
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(raw, &st)
}

func (e *fleetEnv) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.url+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return raw, nil
}

// metrics reads the server's counters and gauges (label sets summed).
func (e *fleetEnv) metrics() (map[string]float64, error) {
	raw, err := e.get(context.Background(), "/v1/metrics")
	if err != nil {
		return nil, err
	}
	return parseExposition(raw), nil
}

// parseExposition sums each metric family's samples by name.
func parseExposition(raw []byte) map[string]float64 {
	m := map[string]float64{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		m[name] += v
	}
	return m
}

// summarize reduces a result to what the checks need, so a window does
// not hold every result document in memory.
func (e *fleetEnv) summarize(r *jobResult, checkSubset int) {
	if r.err != nil {
		return
	}
	if r.cold {
		r.runs, r.cycles, r.resErr = resultRuns(r.result)
		if r.idx >= checkSubset {
			r.result = nil
		}
		return
	}
	r.same = bytes.Equal(r.result, e.warmResult[r.idx])
	r.result = nil
}

// loadResult is one measured closed-loop window.
type loadResult struct {
	jobs    []jobResult
	start   time.Time
	wall    time.Duration
	metrics map[string]float64 // counter deltas over the window
}

// drive runs the closed-loop clients for the given time. Each client
// alternates cold and warm jobs until the time is up. With spans non-nil,
// each client also fetches every completed cold job's span trace.
func (e *fleetEnv) drive(p serviceParams, seed int64, seconds float64, spans *spanSink) (loadResult, error) {
	m0, err := e.metrics()
	if err != nil {
		return loadResult{}, err
	}
	var coldNext atomic.Int64
	var mu sync.Mutex
	var jobs []jobResult
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < p.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := newSplitmix(seed, 0xc11e<<16|uint64(c))
			for i := 0; time.Now().Before(deadline); i++ {
				ctx, cancel := context.WithTimeout(context.Background(), p.JobTimeout)
				var r jobResult
				if i%2 == 0 {
					idx := int(coldNext.Add(1) - 1)
					r = e.job(ctx, p.spec(jobSeed(seed, coldStream, uint64(idx))), false)
					r.cold, r.idx = true, idx
				} else {
					k := rng.intn(len(e.warmResult))
					r = e.job(ctx, p.spec(jobSeed(seed, warmStream, uint64(k))), true)
					r.idx = k
				}
				r.timedOut = ctx.Err() != nil && r.err != nil
				cancel()
				e.summarize(&r, p.CheckSubset)
				if spans != nil && r.cold && r.err == nil {
					spans.add(e.jobSpans(r.id))
				}
				mu.Lock()
				jobs = append(jobs, r)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	m1, err := e.metrics()
	if err != nil {
		return loadResult{}, err
	}
	delta := map[string]float64{}
	for k, v := range m1 {
		delta[k] = v - m0[k]
	}
	return loadResult{jobs: jobs, start: start, wall: wall, metrics: delta}, nil
}

// serviceOutput is the model output of the checked jobs: canonical result
// digests, identical for a given seed on any commit that keeps results.
type serviceOutput struct {
	ColdChecked []string `json:"coldCheckedSha256"`
	WarmPool    []string `json:"warmPoolSha256"`
}

// svcTally is what a window's jobs add up to.
type svcTally struct {
	cold, warm, submit []float64
	done, failed       int
	refused, timeouts  int
	mismatched         int
	cycles             int64

	// Jobs completed and cycles simulated in each tenth of the window.
	sliceJobs   [windowSlices]float64
	sliceCycles [windowSlices]float64
	sliceSecs   float64
}

// windowSlices is how many equal slices a window's rates are taken over;
// the reported rate is their median, so a short burst of host noise moves
// one slice, not the result.
const windowSlices = 10

func (t svcTally) sliceRates() (jobs, cycles []float64) {
	for i := range t.sliceJobs {
		jobs = append(jobs, t.sliceJobs[i]/t.sliceSecs)
		cycles = append(cycles, t.sliceCycles[i]/t.sliceSecs)
	}
	return jobs, cycles
}

// failRatio is failed, refused, timed-out or mismatched jobs over jobs
// attempted.
func (t svcTally) failRatio() float64 {
	n := t.done + t.failed + t.mismatched
	if n == 0 {
		return 0
	}
	return float64(t.failed+t.mismatched) / float64(n)
}

func tallyJobs(o *outcome, e *fleetEnv, lr loadResult) svcTally {
	t := svcTally{sliceSecs: lr.wall.Seconds() / windowSlices}
	slice := func(j jobResult) int {
		if t.sliceSecs <= 0 {
			return 0
		}
		i := int(j.done.Sub(lr.start).Seconds() / t.sliceSecs)
		return max(0, min(windowSlices-1, i))
	}
	for _, j := range lr.jobs {
		o.Attempted++
		if j.err != nil {
			t.failed++
			switch {
			case j.refused:
				t.refused++
			case j.timedOut:
				t.timeouts++
			}
			if t.failed <= 5 {
				o.note("job %s (cold=%v) failed: %v", j.id, j.cold, j.err)
			}
			continue
		}
		if j.cold {
			if j.resErr != nil || j.runs != 2 {
				t.mismatched++
				o.note("cold job %s mismatched: %d runs, %v", j.id, j.runs, j.resErr)
				continue
			}
			t.cycles += j.cycles
			t.sliceCycles[slice(j)] += float64(j.cycles)
			t.cold = append(t.cold, 1000*j.latency.Seconds())
		} else {
			if !j.same {
				t.mismatched++
				o.note("warm job %s mismatched: result differs from the completed spec's", j.id)
				continue
			}
			t.warm = append(t.warm, 1000*j.latency.Seconds())
		}
		t.submit = append(t.submit, 1000*j.submit.Seconds())
		t.sliceJobs[slice(j)]++
		t.done++
	}
	o.Failed += t.failed + t.mismatched
	return t
}

// resultRuns counts a result document's runs and sums their simulated cycles.
func resultRuns(raw []byte) (int, int64, error) {
	var doc struct {
		Runs []struct {
			ExecCycles int64 `json:"execCycles"`
		} `json:"runs"`
		Errors []string `json:"errors"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return 0, 0, err
	}
	if len(doc.Errors) > 0 {
		return len(doc.Runs), 0, fmt.Errorf("result errors: %v", doc.Errors)
	}
	var c int64
	for _, r := range doc.Runs {
		c += r.ExecCycles
	}
	return len(doc.Runs), c, nil
}

func runService(rc runConfig, p serviceParams) (*outcome, error) {
	o := &outcome{E2E: map[string]float64{}, Layers: map[string]float64{}}

	// Set-up: server, workers and the warm pool, built SetupRepeats times;
	// the last one serves the measured window.
	var envs []*fleetEnv
	setup, env, err := medianOf(p.SetupRepeats, wallNow, func() (*fleetEnv, error) {
		e, err := startFleet(p, rc.Seed, false)
		if err == nil {
			envs = append(envs, e)
		}
		return e, err
	})
	for _, e := range envs {
		if e != env {
			e.stop()
		}
	}
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	o.E2E["setup_s"] = setup

	seconds := rc.Seconds
	if rc.Trace {
		seconds /= 2
	}
	lr, err := env.drive(p, rc.Seed, seconds, nil)
	if err != nil {
		env.stop()
		return nil, err
	}
	t := tallyJobs(o, env, lr)
	checkService(o, p, rc.Seed, env, lr)
	env.stop()

	win := lr.wall.Seconds()
	jobRates, cycleRates := t.sliceRates()
	o.E2E["sim_cycles_per_s"] = median(cycleRates)
	o.E2E["jobs_per_s"] = median(jobRates)
	o.E2E["job_p50_ms"] = median(t.cold)
	o.E2E["max_rss_mb"] = maxRSSMB()
	coldTail, warmTail := tailPercentile(t.cold), tailPercentile(t.warm)
	o.note("service-fleet: %d jobs in %.1fs (%d cold, %d warm, %d failed: %d refused, %d timed out, %d mismatched)",
		len(lr.jobs), win, len(t.cold), len(t.warm), t.failed+t.mismatched, t.refused, t.timeouts, t.mismatched)
	o.note("cold job p50 %.2f ms, p%.1f %.2f ms (n=%d); warm job p50 %.3f ms, p%.1f %.3f ms (n=%d)",
		median(t.cold), coldTail.Pct, coldTail.Value, coldTail.N, median(t.warm), warmTail.Pct, warmTail.Value, warmTail.N)

	if !rc.Trace {
		return o, nil
	}
	submitTail := tailPercentile(t.submit)
	o.Layers["service.cold_job_p99_ms"] = coldTail.Value
	o.Layers["service.warm_job_p50_ms"] = median(t.warm)
	o.Layers["service.warm_job_p99_ms"] = warmTail.Value
	o.Layers["http.submit_ms.p50"] = median(t.submit)
	o.Layers["http.submit_ms.p99"] = submitTail.Value
	hits, misses := lr.metrics["equinox_cache_hits_total"], lr.metrics["equinox_cache_misses_total"]
	if hits+misses > 0 {
		o.Layers["store.hit_ratio"] = hits / (hits + misses)
	}
	o.Layers["fleet.units_retried"] = lr.metrics["equinox_fleet_units_retried_total"]
	o.Layers["fleet.leases_expired"] = lr.metrics["equinox_fleet_leases_expired_total"]
	o.Layers["service.rejected"] = lr.metrics["equinox_admission_rejected_total"]
	o.Layers["fail_ratio"] = t.failRatio()

	// Traced half: a fresh fleet that keeps every span trace, under the
	// CPU profiler.
	tenv, err := startFleet(p, rc.Seed, true)
	if err != nil {
		return nil, err
	}
	prof, err := startProfile()
	if err != nil {
		tenv.stop()
		return nil, err
	}
	var sink spanSink
	tlr, err := tenv.drive(p, rc.Seed, seconds, &sink)
	samples, perr := prof.stop()
	if err != nil || perr != nil {
		tenv.stop()
		return nil, errors.Join(err, perr)
	}
	tt := tallyJobs(o, tenv, tlr)
	tenv.stop()
	if sink.err != nil {
		o.problem("span traces: %v", sink.err)
	}
	spans := sink.ms
	for k, v := range attribute(samples) {
		o.Layers[k] = v
	}
	for _, name := range spanMetrics {
		if name == "http.submit_ms" {
			continue
		}
		xs := spans[name]
		o.Layers[name+".p50"] = median(xs)
		tl := tailPercentile(xs)
		o.Layers[name+".p99"] = tl.Value
		o.note("span %s: p50 %.3f ms, p%.1f %.3f ms (n=%d)", name, median(xs), tl.Pct, tl.Value, tl.N)
	}
	_, tCycleRates := tt.sliceRates()
	o.Layers["trace.overhead_sim_cycles_pct"] = 100 * (o.E2E["sim_cycles_per_s"]/median(tCycleRates) - 1)
	o.Layers["trace.overhead_job_p50_pct"] = 100 * (median(tt.cold)/o.E2E["job_p50_ms"] - 1)
	return o, nil
}

// checkService verifies the window: a fixed subset of cold jobs equals a
// single-process run of the same spec, the warm pool's results are stable,
// and the store's hit ratio equals the warm share.
func checkService(o *outcome, p serviceParams, seed int64, e *fleetEnv, lr loadResult) {
	out := serviceOutput{}
	byIdx := map[int]jobResult{}
	warm, cold := 0, 0
	for _, j := range lr.jobs {
		if j.err != nil {
			continue
		}
		if j.cold {
			byIdx[j.idx] = j
			cold++
		} else {
			warm++
		}
	}
	for i := 0; i < p.CheckSubset; i++ {
		j, ok := byIdx[i]
		if !ok {
			o.problem("checked cold job %d did not complete", i)
			continue
		}
		raw, err := json.Marshal(p.spec(jobSeed(seed, coldStream, uint64(i))))
		if err != nil {
			o.problem("encoding spec: %v", err)
			continue
		}
		single, err := service.RunSpec(context.Background(), raw, 1)
		if err != nil {
			o.problem("single-process run of cold job %d: %v", i, err)
			continue
		}
		want, err1 := fleet.CanonicalResult(single)
		got, err2 := fleet.CanonicalResult(j.result)
		if err := errors.Join(err1, err2); err != nil {
			o.problem("canonicalizing cold job %d: %v", i, err)
			continue
		}
		if !bytes.Equal(got, want) {
			o.problem("cold job %d: fleet result differs from a single-process run", i)
		}
		out.ColdChecked = append(out.ColdChecked, sha(got))
	}
	for i, res := range e.warmResult {
		c, err := fleet.CanonicalResult(res)
		if err != nil {
			o.problem("canonicalizing warm job %d: %v", i, err)
			continue
		}
		out.WarmPool = append(out.WarmPool, sha(c))
	}
	o.Outputs = out
	hits, misses := lr.metrics["equinox_cache_hits_total"], lr.metrics["equinox_cache_misses_total"]
	if int(hits) != warm || int(misses) != cold {
		o.problem("store hits/misses %v/%v, want %d warm / %d cold", hits, misses, warm, cold)
	}
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// spanSink collects span durations (ms) by per-layer metric name.
type spanSink struct {
	mu  sync.Mutex
	ms  map[string][]float64
	err error
}

func (s *spanSink) add(ms map[string][]float64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil && s.err == nil {
		s.err = err
	}
	if s.ms == nil {
		s.ms = map[string][]float64{}
	}
	for k, v := range ms {
		s.ms[k] = append(s.ms[k], v...)
	}
}

// jobSpans fetches one job's stitched span trace and groups its span
// durations (ms) by per-layer metric name.
func (e *fleetEnv) jobSpans(id string) (map[string][]float64, error) {
	raw, err := e.get(context.Background(), "/v1/jobs/"+id+"/spans")
	if err != nil {
		return nil, err
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Dur  int64          `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, err
	}
	names := map[string]string{}
	for _, ev := range doc.TraceEvents {
		if id, ok := ev.Args["spanId"].(string); ok {
			names[id] = ev.Name
		}
	}
	out := map[string][]float64{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		parent, _ := ev.Args["parentId"].(string)
		var metric string
		switch {
		case ev.Name == "lease wait":
			metric = "fleet.lease_wait_ms"
		case ev.Name == "store lookup":
			metric = "fleet.store_lookup_ms"
		case ev.Name == "complete round-trip":
			metric = "fleet.complete_rtt_ms"
		case ev.Name == "design":
			metric = "harness.design_ms"
		case ev.Name == "sim":
			metric = "sim.run_ms"
		case strings.HasPrefix(ev.Name, "run ") && strings.HasPrefix(names[parent], "unit "):
			metric = "fleet.run_ms"
		default:
			continue
		}
		out[metric] = append(out[metric], float64(ev.Dur)/1000)
	}
	return out, nil
}
