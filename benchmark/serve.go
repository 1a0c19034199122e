package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"time"

	"trainbox/internal/dataprep"
	"trainbox/internal/dscache"
	"trainbox/internal/fpga"
	"trainbox/internal/metrics"
	"trainbox/internal/nvme"
	"trainbox/internal/preppool"
	"trainbox/internal/serve"
	"trainbox/internal/units"
	"trainbox/internal/workload"
)

// serve_mixed constants. The cache budget is two-thirds of the 12.5 MB
// decoded working set (64 × 256×256×3), so CLOCK populate/evict runs
// continuously.
const (
	serveDevices     = 2
	serveCorpus      = 64
	serveCacheMB     = 4
	serveTenants     = 8
	serveQueueLimit  = 256
	serveTenantQuota = 64
	closedWindow     = 4 // closed phase: jobs kept outstanding per core
	pollInterval     = 2 * time.Millisecond
	serveSegments    = 5 // closed phase is summarized as this many equal-count segments
	maxLagMs         = 5.0
)

// plannedJob is one job of the seeded mix, with the sample count its
// spec implies and, in the open phase, the offset at which it is due.
type plannedJob struct {
	spec        serve.JobSpec
	kind        int
	wantSamples int
	due         time.Duration
}

// Job classes of the mix.
const (
	kindHost   = iota // small job prepared on the host path
	kindPooled        // the same with a prep-pool claim → fpga devices
	kindSweep         // whole-corpus sweep
)

// jobMix draws n jobs over serveTenants tenants: 70 % small host jobs,
// 20 % the same with a prep-pool claim (→ fpga devices), 10 % corpus
// sweeps. The proportions hold exactly in every block of ten (the seed
// shuffles the order inside a block, the tenants and the job seeds), so
// two seeds offer the same amount of work.
func jobMix(rng *rand.Rand, n int) []plannedJob {
	kinds := [10]int{kindHost, kindHost, kindHost, kindHost, kindHost, kindHost, kindHost, kindPooled, kindPooled, kindSweep}
	jobs := make([]plannedJob, n)
	for i := range jobs {
		if i%len(kinds) == 0 {
			rng.Shuffle(len(kinds), func(a, b int) { kinds[a], kinds[b] = kinds[b], kinds[a] })
		}
		spec := serve.JobSpec{
			Tenant: fmt.Sprintf("t%d", rng.Intn(serveTenants)),
			Seed:   1 + rng.Int63n(1<<20),
		}
		kind := kinds[i%len(kinds)]
		switch kind {
		case kindHost:
			spec.Items, spec.Epochs, spec.Replicas = 16, 4, 2
		case kindPooled:
			spec.Items, spec.Epochs, spec.Replicas, spec.RequiredRate = 16, 4, 2, 4000
		default:
			spec.Items, spec.Epochs, spec.Replicas = serveCorpus, 2, 1
		}
		jobs[i] = plannedJob{spec: spec, kind: kind, wantSamples: spec.Items / spec.Replicas * spec.Replicas * spec.Epochs}
	}
	return jobs
}

// poissonSchedule returns arrival offsets of a Poisson process of the
// given rate over dur, precomputed so the generator never adapts to the
// server.
func poissonSchedule(rng *rand.Rand, ratePerS float64, dur time.Duration) []time.Duration {
	var due []time.Duration
	for t := rng.ExpFloat64() / ratePerS; t < dur.Seconds(); t += rng.ExpFloat64() / ratePerS {
		due = append(due, time.Duration(t*float64(time.Second)))
	}
	return due
}

// serveEnv is the served system under test plus its HTTP front door.
type serveEnv struct {
	runner *serve.TrainRunner
	pool   *preppool.Pool
	cache  *dscache.Cache
	srv    *serve.Server
	ts     *httptest.Server
	reg    *metrics.Registry // nil on untraced runs
}

func buildServeEnv(seed int64, reg *metrics.Registry) (*serveEnv, error) {
	runner, pool, err := serve.NewTrainBackend(serveDevices, serveCorpus, seed, reg)
	if err != nil {
		return nil, err
	}
	e := &serveEnv{runner: runner, pool: pool, reg: reg}
	e.cache = runner.EnableCache(serveCacheMB*units.MB, reg)
	if reg != nil {
		runner.Store().WithMetrics(reg)
	}
	opts := []serve.Option{
		serve.WithRunner(runner), serve.WithPool(pool),
		serve.WithMaxRunning(runtime.GOMAXPROCS(0)),
		serve.WithQueueLimit(serveQueueLimit), serve.WithTenantQuota(serveTenantQuota),
	}
	if reg != nil {
		opts = append(opts, serve.WithMetrics(reg))
	}
	if e.srv, err = serve.NewServer(opts...); err != nil {
		return nil, err
	}
	e.ts = httptest.NewServer(e.srv.Handler())
	return e, nil
}

func (e *serveEnv) close() {
	e.ts.Close()
	_ = e.srv.Close() // only errors on a second Close
}

// jobRecord is what the client saw of one job.
type jobRecord struct {
	plannedJob
	dueAt    time.Time // when it should have been sent (== sent in the closed phase)
	sent     time.Time
	submitMs float64
	shed     bool
	err      error
	info     serve.Info
}

func (r jobRecord) ok() bool {
	return r.err == nil && !r.shed && r.info.State == serve.StateDone
}

// conn is one keep-alive HTTP connection with one request in flight.
type conn struct {
	client *http.Client
	base   string
}

func newConn(base string) *conn {
	return &conn{base: base, client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}}
}

func (c *conn) do(method, path string, body any, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}

// drive sends jobs to the server and follows each to a terminal state.
// window > 0 is the closed loop: `window` jobs are kept outstanding.
// window == 0 is the open loop: a job is sent when its due offset has
// passed, whatever the server is doing. Submitting and polling use
// separate keep-alive connections (2·nproc and nproc, one request in
// flight each) so that a due job never waits behind a slow response —
// an open loop that shares connections with its own polling is not open.
func drive(base string, nproc int, jobs []plannedJob, window int) ([]jobRecord, time.Duration) {
	records := make([]jobRecord, len(jobs))
	var mu sync.Mutex
	next, outstanding := 0, 0
	var pending []int // admitted, not yet seen terminal; FIFO
	begin := time.Now()

	// take hands out the next job if one may be sent now; otherwise it
	// says how long to wait and whether any remain.
	take := func() (idx int, ok bool, wait time.Duration, remaining bool) {
		mu.Lock()
		defer mu.Unlock()
		if next >= len(jobs) {
			return 0, false, 0, false
		}
		if window > 0 {
			if outstanding >= window {
				return 0, false, pollInterval, true
			}
		} else if late := time.Since(begin) - jobs[next].due; late < 0 {
			return 0, false, -late, true
		}
		next++
		outstanding++
		return next - 1, true, 0, true
	}
	settle := func(admitted bool, idx int) {
		mu.Lock()
		defer mu.Unlock()
		if admitted {
			pending = append(pending, idx)
		} else {
			outstanding--
		}
	}

	var wg sync.WaitGroup
	submitter := func() {
		defer wg.Done()
		c := newConn(base)
		defer c.client.CloseIdleConnections()
		for {
			idx, ok, wait, remaining := take()
			if !remaining {
				return
			}
			if !ok {
				time.Sleep(wait)
				continue
			}
			r := &records[idx]
			r.plannedJob = jobs[idx]
			r.sent = time.Now()
			r.dueAt = r.sent
			if window == 0 {
				r.dueAt = begin.Add(jobs[idx].due)
			}
			status, err := c.do("POST", "/v1/jobs", r.spec, &r.info)
			r.submitMs = float64(time.Since(r.sent)) / float64(time.Millisecond)
			switch {
			case err != nil:
				r.err = err
			case status == http.StatusTooManyRequests:
				r.shed = true
			case status != http.StatusAccepted:
				r.err = fmt.Errorf("POST /v1/jobs → %d", status)
			}
			settle(r.err == nil && !r.shed, idx)
		}
	}
	poller := func() {
		defer wg.Done()
		c := newConn(base)
		defer c.client.CloseIdleConnections()
		for {
			mu.Lock()
			idx, have := -1, len(pending) > 0
			if have {
				idx, pending = pending[0], pending[1:]
			}
			done := next >= len(jobs) && outstanding == 0
			mu.Unlock()
			if done {
				return
			}
			if !have {
				time.Sleep(pollInterval)
				continue
			}
			r := &records[idx]
			var info serve.Info
			status, err := c.do("GET", "/v1/jobs/"+r.info.ID, nil, &info)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("GET /v1/jobs/%s → %d", r.info.ID, status)
			}
			if err == nil && !info.State.Terminal() {
				settle(true, idx) // back of the queue
				time.Sleep(pollInterval)
				continue
			}
			if r.err = err; err == nil {
				r.info = info
			}
			settle(false, idx)
		}
	}
	for ci := 0; ci < 2*nproc; ci++ {
		wg.Add(1)
		go submitter()
	}
	for ci := 0; ci < nproc; ci++ {
		wg.Add(1)
		go poller()
	}
	wg.Wait()
	return records, time.Since(begin)
}

// serveTally folds job records into the failure accounting and the
// invariants the command enforces.
func serveTally(rep *report, phase string, records []jobRecord) {
	shed, failed, wrongSamples := 0, 0, 0
	for _, r := range records {
		switch {
		case r.shed:
			shed++
		case !r.ok():
			failed++
		case r.info.Outcome == nil || r.info.Outcome.Samples != r.wantSamples:
			wrongSamples++
		}
	}
	rep.Attempted += len(records)
	rep.Failed += shed + failed
	rep.check(phase+": every admitted job done", failed == 0, "%d of %d admitted jobs failed, were cancelled or lost", failed, len(records)-shed)
	rep.check(phase+": none shed", shed == 0, "%d of %d submissions shed", shed, len(records))
	rep.check(phase+": outcome samples", wrongSamples == 0, "%d jobs reported a sample count other than items/replicas·replicas·epochs", wrongSamples)
}

// closedRates splits the closed phase into equal-count segments by
// finish time and returns each segment's samples/s and jobs/s, so the
// phase reports a median and spread like the repetition workloads.
func closedRates(records []jobRecord, begin time.Time) (samplesPerS, jobsPerS []float64, totalSamples int) {
	var done []jobRecord
	for _, r := range records {
		if r.ok() && r.info.Outcome != nil {
			done = append(done, r)
			totalSamples += r.info.Outcome.Samples
		}
	}
	sort.Slice(done, func(a, b int) bool { return done[a].info.Finished.Before(done[b].info.Finished) })
	segments := segmentCount(len(done))
	prev := begin
	for s := 0; s < segments; s++ {
		seg := done[s*len(done)/segments : (s+1)*len(done)/segments]
		if len(seg) == 0 {
			continue
		}
		samples := 0
		for _, r := range seg {
			samples += r.info.Outcome.Samples
		}
		end := seg[len(seg)-1].info.Finished
		if secs := end.Sub(prev).Seconds(); secs > 0 {
			samplesPerS = append(samplesPerS, float64(samples)/secs)
			jobsPerS = append(jobsPerS, float64(len(seg))/secs)
		}
		prev = end
	}
	return samplesPerS, jobsPerS, totalSamples
}

// openLatency is the open phase reduced to what the metrics need.
// Latencies are due → server-reported Finished, ms, of the jobs that
// finished; a shed or failed job has none and counts as missing the
// limit.
type openLatency struct {
	all, host []float64 // every job; the small host jobs (70 % of the mix)
	lag       []float64 // how late the generator sent each job
	within    int       // jobs done within latencyLimitMs
}

func openLatencies(records []jobRecord) openLatency {
	var o openLatency
	for _, r := range records {
		o.lag = append(o.lag, float64(r.sent.Sub(r.dueAt))/float64(time.Millisecond))
		if !r.ok() {
			continue
		}
		l := float64(r.info.Finished.Sub(r.dueAt)) / float64(time.Millisecond)
		o.all = append(o.all, l)
		if r.kind == kindHost {
			o.host = append(o.host, l)
		}
		if l <= latencyLimitMs {
			o.within++
		}
	}
	return o
}

// segmentCount is serveSegments, or 1 when n is too small to split
// (quick runs).
func segmentCount(n int) int {
	if n < 2*serveSegments {
		return 1
	}
	return serveSegments
}

// segmentMedians splits values (in schedule order) into serveSegments
// equal-count runs and returns each run's median, so the open phase
// reports a median and spread like the repetition workloads.
func segmentMedians(values []float64) []float64 {
	segments := segmentCount(len(values))
	out := make([]float64, segments)
	for s := range out {
		out[s] = median(values[s*len(values)/segments : (s+1)*len(values)/segments])
	}
	return out
}

// servePlan is the seeded input of one serve_mixed run: job lists for
// the warm-up, the closed phase and the open phase.
type servePlan struct {
	warm, closed, open []plannedJob
}

func planServe(opt options, closedScale float64) servePlan {
	rng := rand.New(rand.NewSource(opt.seed))
	nWarm, nClosed := 60, int(30*opt.seconds*closedScale)
	openDur := time.Duration(opt.seconds / 2 * float64(time.Second))
	if opt.quick {
		nWarm, nClosed, openDur = 8, 24, time.Second
	}
	p := servePlan{warm: jobMix(rng, nWarm), closed: jobMix(rng, nClosed)}
	due := poissonSchedule(rng, openRateJobsPerS, openDur)
	p.open = jobMix(rng, len(due))
	for i := range p.open {
		p.open[i].due = due[i]
	}
	return p
}

// runServeEndToEnd measures serve_mixed with tracing off: a warm-up,
// the closed phase (capacity: samples/s, allocations) and the open
// phase (latency at the frozen rate).
func runServeEndToEnd(opt options) (*report, error) {
	rep := newReport("serve_mixed", opt)
	reps := setupReps
	if opt.quick {
		reps = 1
	}
	env, setupTimes, err := measureSetup(reps,
		func() (*serveEnv, error) { return buildServeEnv(opt.seed, nil) }, (*serveEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()
	nconn := runtime.GOMAXPROCS(0)
	plan := planServe(opt, 1)

	warm, _ := drive(env.ts.URL, nconn, plan.warm, closedWindow*nconn)
	serveTally(rep, "warm-up", warm)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	begin := time.Now()
	closed, _ := drive(env.ts.URL, nconn, plan.closed, closedWindow*nconn)
	runtime.ReadMemStats(&ms1)
	serveTally(rep, "closed", closed)
	rates, _, samples := closedRates(closed, begin)

	open, _ := drive(env.ts.URL, nconn, plan.open, 0)
	serveTally(rep, "open", open)
	lat := openLatencies(open)
	serveInvariants(rep, env, len(warm)+len(closed)+len(open))
	if samples == 0 || len(lat.host) == 0 {
		return rep, nil
	}

	rep.Metrics["samples_per_s"] = summarize(rates, "samples/s")
	rep.Metrics["allocs_per_sample"] = single(float64(ms1.Mallocs-ms0.Mallocs)/float64(samples), "count")
	rep.Metrics["alloc_kb_per_sample"] = single(float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/float64(samples), "KB")
	// The mix is trimodal (≈3 ms host jobs, ≈75 ms pooled, ≈120 ms sweeps),
	// so the all-jobs median sits on the shoulder of the host mode and
	// swings run to run; the end-to-end row is the median of the majority
	// class, the all-jobs quantiles are per-layer rows.
	rep.Metrics["job_latency_ms_p50"] = summarize(segmentMedians(lat.host), "ms")
	rep.Metrics["setup_s"] = summarize(setupTimes, "s")
	rep.Sizes = map[string]int{"closed_jobs": len(closed), "open_jobs": len(open), "connections": 3 * nconn}
	lagP90 := percentile(lat.lag, 0.90)
	rep.check("generator lag", lagP90 < maxLagMs, "open-loop generator lag p90 %.3f ms (want < %g)", lagP90, maxLagMs)
	return rep, nil
}

// serveInvariants checks the server's own books against the client's:
// submitted == admitted + shed, and nothing is left live.
func serveInvariants(rep *report, env *serveEnv, sent int) {
	snap := env.srv.Metrics().Snapshot()
	sub, adm, shed := snap.Counters["serve.server.submitted"], snap.Counters["serve.server.admitted"], snap.Counters["serve.server.shed"]
	rep.check("submitted == admitted + shed", sub == adm+shed && int(sub) == sent, "client sent %d; server submitted %d, admitted %d, shed %d", sent, sub, adm, shed)
	st := env.srv.Stats()
	rep.check("every admitted job terminal", st.QueueDepth+st.Running+st.Suspended == 0 && st.Failed == 0,
		"queued %d, running %d, suspended %d, failed %d, done %d", st.QueueDepth, st.Running, st.Suspended, st.Failed, st.Done)
}

// runServeTraced produces serve_mixed's per-layer metrics: a shorter
// closed phase on an unmetered server and the same one on a server
// whose backend, pool, cache and front-end share one registry (their
// difference is the tracing overhead), then the open phase; job spans
// are built from the server-reported timestamps.
func runServeTraced(ctx context.Context, opt options) (*report, error) {
	rep := newReport("serve_mixed", opt)
	rep.zeroLayers()
	m := rep.Metrics
	nconn := runtime.GOMAXPROCS(0)
	plan := planServe(opt, 0.5)

	plainEnv, err := buildServeEnv(opt.seed, nil)
	if err != nil {
		return nil, err
	}
	drive(plainEnv.ts.URL, nconn, plan.warm, closedWindow*nconn)
	_, plainWall := drive(plainEnv.ts.URL, nconn, plan.closed, closedWindow*nconn)
	plainEnv.close()

	env, err := buildServeEnv(opt.seed, metrics.NewRegistry())
	if err != nil {
		return nil, err
	}
	defer env.close()
	tr := newTracer()
	warm, _ := drive(env.ts.URL, nconn, plan.warm, closedWindow*nconn)
	before := env.reg.Snapshot()
	begin := time.Now()
	closed, closedWall := drive(env.ts.URL, nconn, plan.closed, closedWindow*nconn)
	serveTally(rep, "closed", closed)
	open, _ := drive(env.ts.URL, nconn, plan.open, 0)
	serveTally(rep, "open", open)
	serveInvariants(rep, env, len(warm)+len(closed)+len(open))
	d := snapshotDelta{before, env.reg.Snapshot()}

	_, jobRates, _ := closedRates(closed, begin)
	lat := openLatencies(open)
	lagP90 := percentile(lat.lag, 0.90)
	m["serve.jobs_per_s"] = summarize(jobRates, "jobs/s")
	m["serve.job_latency_all_ms_p50"] = single(median(lat.all), "ms")
	m["serve.job_latency_all_ms_p90"] = single(percentile(lat.all, 0.90), "ms")
	m["serve.job_within_limit_share"] = single(ratio(float64(lat.within), float64(len(open))), "share")
	m["bench.generator_lag_ms_p90"] = single(lagP90, "ms")
	m["bench.trace_overhead_share"] = single(ratio(float64(closedWall-plainWall), float64(plainWall)), "share")
	rep.check("generator lag", lagP90 < maxLagMs, "open-loop generator lag p90 %.3f ms (want < %g)", lagP90, maxLagMs)
	rep.assert("p90 supported", percentileSupported(len(lat.all), 0.90), "open phase n = %d (p90 needs ≥ 100 for ten samples beyond it)", len(lat.all))

	var submit, queueWait, run []float64
	shed, preemptions := 0, 0
	all := append(append([]jobRecord(nil), closed...), open...)
	for _, r := range all {
		submit = append(submit, r.submitMs)
		if r.shed {
			shed++
		}
		if !r.ok() {
			continue
		}
		preemptions += r.info.Preemptions
		queueWait = append(queueWait, float64(r.info.Started.Sub(r.info.Submitted))/float64(time.Millisecond))
		run = append(run, float64(r.info.Finished.Sub(r.info.Started))/float64(time.Millisecond))
		job := tr.add("serve.job", "serve", r.info.ID, -1, -1, 0, r.dueAt, r.info.Finished)
		tr.add("serve.submit", "serve", r.info.ID, -1, job, 0, r.sent, r.sent.Add(time.Duration(r.submitMs*float64(time.Millisecond))))
		tr.add("serve.queue_wait", "serve", r.info.ID, -1, job, 0, r.info.Submitted, r.info.Started)
		tr.add("serve.run", "train", r.info.ID, -1, job, 0, r.info.Started, r.info.Finished)
	}
	m["serve.submit_ms_p50"] = single(median(submit), "ms")
	m["serve.queue_wait_ms_p50"] = single(median(queueWait), "ms")
	m["serve.queue_wait_ms_p95"] = single(percentile(queueWait, 0.95), "ms")
	m["serve.run_ms_p50"] = single(median(run), "ms")
	m["serve.shed_share"] = single(ratio(float64(shed), float64(len(all))), "share")
	m["serve.preemptions"] = single(float64(preemptions), "count")

	// Registry and counter rows. Pooled jobs name their series after the
	// job id, hence the prefix/suffix sums.
	var samples float64
	for _, r := range all {
		if r.ok() && r.info.Outcome != nil {
			samples += float64(r.info.Outcome.Samples)
		}
	}
	m["storage.reads"] = single(d.counterSuffix("storage.", ".reads"), "count")
	m["storage.bytes_read"] = single(d.counterSuffix("storage.", ".bytes_read"), "bytes")
	m["fpga.dispatch_busy_ns_per_sample"] = single(ratio(d.histSumSuffix("pipeline.fpga-pool", ".pool-dispatch.busy_ns"), d.counterSuffix("pipeline.fpga-pool", ".pool-dispatch.items")), "ns")
	m["fpga.device_utilization_min"] = single(minGauge(d.after, "fpga.pool.", ".utilization"), "share")
	m["fpga.sample_retries"] = single(d.counterSuffix("fpga.pool.", ".sample_retries"), "count")
	m["fpga.degraded_samples"] = single(d.counterSuffix("fpga.pool.", ".degraded_samples"), "count")
	m["preppool.migrations"] = single(float64(env.pool.Migrations()), "count")
	st := env.cache.Stats()
	m["dscache.hit_share"] = single(ratio(float64(st.Hits), float64(st.Hits+st.Misses)), "share")
	m["dscache.decodes_per_key"] = single(float64(st.Misses)/serveCorpus, "ratio")
	m["dscache.evictions"] = single(float64(st.Evictions), "count")
	m["dscache.singleflight_waits"] = single(float64(st.SingleflightWaits), "count")
	rep.assert("cache under pressure", st.Evictions > 0, "dscache.evictions %d (want > 0)", st.Evictions)

	// Stand-alone probes and the kernel replay at the served geometry.
	if m["dscache.acquire_hit_ns"], err = probeValue(probeCacheHit, "ns"); err != nil {
		return nil, err
	}
	if m["preppool.register_ms_p50"], err = probeValue(probeRegister, "ms"); err != nil {
		return nil, err
	}
	imgCfg := env.runner.ImageConfig()
	side := imgCfg.CropW / featureBlock
	store := env.runner.Store()
	rp, err := replay(ctx, tr, replayInput{
		job: "replay", store: store, keys: store.Keys(), seed: opt.seed, imgCfg: imgCfg,
		widths: []int{side * side, 8, numClasses}, replicas: 2,
	})
	if err != nil {
		return nil, err
	}
	rp.fill(rep)
	exec := dataprep.NewExecutor(dataprep.ImagePreparer{Config: imgCfg}, nconn, opt.seed)
	mismatch := 0
	for epoch := 0; epoch < replayEpochs; epoch++ {
		ps, err := exec.PrepareBatchContext(ctx, store, store.Keys(), epoch)
		if err != nil {
			return nil, err
		}
		for _, p := range ps {
			if checksum(p) != rp.checksums[sampleID{p.Key, epoch}] {
				mismatch++
			}
		}
	}
	rep.check("replay == prepare path", mismatch == 0, "%d (key, epoch) checksums differ", mismatch)
	if err := probeJpegdec(store, store.Keys(), rep); err != nil {
		return nil, err
	}

	env.close() // stop the server first, so no job still holds a cache handle
	env.cache.Purge()
	pst := env.cache.PoolStats()
	m["memframe.gets_minus_puts"] = single(float64(pst.Gets-pst.Puts), "count")
	m["memframe.news_per_sample"] = single(ratio(float64(pst.News), samples), "count")
	rep.check("memframe balance", pst.Gets == pst.Puts, "cache pools gets − puts = %d", pst.Gets-pst.Puts)
	m["bench.peak_rss_mb"] = single(peakRSSMB(), "MB")

	rep.spans = tr.snapshot()
	packLanes(rep.spans, 100, func(s span) bool { return s.Name == "serve.job" })
	return rep, nil
}

func probeValue(probe func() (float64, error), unit string) (summary, error) {
	v, err := probe()
	return single(v, unit), err
}

// probeRegister times Pool.Register + Job.Close on a stand-alone pool —
// the per-job lease bookkeeping every served job pays.
func probeRegister() (float64, error) {
	env, err := buildTrainEnv(trainSpec{name: "probe", items: 4}, 1, nil)
	if err != nil {
		return 0, err
	}
	ns, err := nvme.LoadStore(env.store)
	if err != nil {
		return 0, err
	}
	handlers := make([]*fpga.P2PHandler, serveDevices)
	for i := range handlers {
		if handlers[i], err = fpga.NewP2PHandler(ns, fpga.NewImageEmulator(env.imgCfg), nvmeDepth); err != nil {
			return 0, err
		}
	}
	pool, err := preppool.NewPool(handlers)
	if err != nil {
		return 0, err
	}
	var ms []float64
	for i := 0; i < 200; i++ {
		start := time.Now()
		job, err := pool.Register(preppool.JobSpec{
			Name: fmt.Sprintf("j-%d", i), Type: workload.Image, RequiredRate: 4000,
			Exec: env.exec, Store: env.store, DatasetSeed: 1,
		})
		if err != nil {
			return 0, err
		}
		if err := job.Close(); err != nil {
			return 0, err
		}
		ms = append(ms, float64(time.Since(start))/float64(time.Millisecond))
	}
	return median(ms), nil
}
