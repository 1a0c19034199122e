package main

// metricDecl is one row of BENCHMARK.json: the benchmark's own table of
// what it measures. A test asserts this table and BENCHMARK.json agree.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "higher" or "lower"
	Bound  float64 `json:"bound"`  // end-to-end only: relative worsening that counts as a regression
}

type workloadDecl struct {
	Name string
	Why  string
}

var workloads = []workloadDecl{
	{"image_host", "prep-bound paper baseline: imgproc decode/augment/cast, dataprep and pipeline do the work; dsp, dscache, fpga, serve do none"},
	{"audio_host", "dsp log-Mel front-end binds and imgproc is idle: the bypass workload for image-kernel changes, per-item pipeline overhead is smallest here"},
	{"image_offload", "same kernels as image_host through nvme queue pairs and the fpga pool dispatcher with fresh output buffers; model must equal image_host bit for bit"},
	{"step_bound_cached", "decode served from a warm dscache and prep hidden behind a wide step: nn backprop, collective reduce and the cache hit path bind; faster decode must not move it"},
	{"serve_mixed", "tiny multi-tenant jobs over real HTTP, closed then open loop: serve queueing, preppool leases, train start-up and dscache populate/evict dominate, kernels do not"},
}

// End-to-end metrics, emitted by every workload with tracing off. On
// the train workloads a "job" is one timed train.Run repetition; on
// serve_mixed it is one submitted training job.
var endToEnd = []metricDecl{
	{"samples_per_s", "samples/s", "higher", 0.20},
	{"allocs_per_sample", "count", "lower", 0.10},
	{"alloc_kb_per_sample", "KB", "lower", 0.25},
	{"job_latency_ms_p50", "ms", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
}

// Per-layer metrics, emitted by every workload with tracing on; a layer
// that is not on a workload's live path reports 0 there.
var perLayer = []metricDecl{
	{"storage.read_ns_per_sample", "ns", "lower", 0},
	{"storage.reads", "count", "lower", 0},
	{"storage.bytes_read", "bytes", "lower", 0},
	{"nvme.read_ns_per_sample", "ns", "lower", 0},
	{"imgproc.decode_ns_per_sample", "ns", "lower", 0},
	{"imgproc.crop_ns_per_sample", "ns", "lower", 0},
	{"imgproc.mirror_ns_per_sample", "ns", "lower", 0},
	{"imgproc.noise_ns_per_sample", "ns", "lower", 0},
	{"imgproc.cast_ns_per_sample", "ns", "lower", 0},
	{"jpegdec.decode_ns_per_sample", "ns", "lower", 0},
	{"jpegdec.serial_share", "share", "lower", 0},
	{"dsp.pcm_decode_ns_per_sample", "ns", "lower", 0},
	{"dsp.logmel_ns_per_sample", "ns", "lower", 0},
	{"dsp.specaug_norm_ns_per_sample", "ns", "lower", 0},
	{"dataprep.prepare_ns_per_sample", "ns", "lower", 0},
	{"dataprep.augment_cast_ns_per_sample", "ns", "lower", 0},
	{"dataprep.epoch_ms_p50", "ms", "lower", 0},
	{"dataprep.executor_busy_share", "share", "higher", 0},
	{"dataprep.scaling_efficiency", "ratio", "higher", 0},
	{"pipeline.overhead_ns_per_sample", "ns", "lower", 0},
	{"pipeline.fetch_busy_ns_per_sample", "ns", "lower", 0},
	{"pipeline.prepare_busy_ns_per_sample", "ns", "lower", 0},
	{"memframe.news_per_sample", "count", "lower", 0},
	{"memframe.gets_minus_puts", "count", "lower", 0},
	{"dscache.hit_share", "share", "higher", 0},
	{"dscache.decodes_per_key", "ratio", "lower", 0},
	{"dscache.evictions", "count", "lower", 0},
	{"dscache.singleflight_waits", "count", "lower", 0},
	{"dscache.acquire_hit_ns", "ns", "lower", 0},
	{"fpga.dispatch_busy_ns_per_sample", "ns", "lower", 0},
	{"fpga.device_utilization_min", "share", "higher", 0},
	{"fpga.sample_retries", "count", "lower", 0},
	{"fpga.degraded_samples", "count", "lower", 0},
	{"preppool.register_ms_p50", "ms", "lower", 0},
	{"preppool.migrations", "count", "lower", 0},
	{"train.prepare_busy_share", "share", "lower", 0},
	{"train.step_busy_share", "share", "higher", 0},
	{"train.step_idle_share", "share", "lower", 0},
	{"train.prep_step_overlap", "ratio", "lower", 0},
	{"train.extract_ns_per_sample", "ns", "lower", 0},
	{"nn.step_compute_ns_per_sample", "ns", "lower", 0},
	{"collective.reduce_ms_per_round", "ms", "lower", 0},
	{"collective.bytes_per_round", "bytes", "lower", 0},
	{"collective.rounds", "count", "lower", 0},
	{"serve.jobs_per_s", "jobs/s", "higher", 0},
	{"serve.job_latency_all_ms_p50", "ms", "lower", 0},
	{"serve.job_latency_all_ms_p90", "ms", "lower", 0},
	{"serve.job_within_limit_share", "share", "higher", 0},
	{"serve.submit_ms_p50", "ms", "lower", 0},
	{"serve.queue_wait_ms_p50", "ms", "lower", 0},
	{"serve.queue_wait_ms_p95", "ms", "lower", 0},
	{"serve.run_ms_p50", "ms", "lower", 0},
	{"serve.shed_share", "share", "lower", 0},
	{"serve.preemptions", "count", "lower", 0},
	{"bench.generator_lag_ms_p90", "ms", "lower", 0},
	{"bench.trace_overhead_share", "share", "lower", 0},
	{"bench.replay_layer_sum_share", "share", "higher", 0},
	{"bench.peak_rss_mb", "MB", "lower", 0},
}

// runSeconds is BENCHMARK.json's run_seconds: the timed part of one
// run. The repetition sizes in train.go and serve.go are fixed so that
// five repetitions fill it on the 2-core reference box.
const runSeconds = 12

// Serve-workload constants. openRateJobsPerS is frozen at 0.3 × the
// builder's median closed-phase capacity (≈ 68 jobs/s on the 2-core
// reference box); it is never adapted at run time, so parent and change
// see the same offered load. At half capacity the heavy 30 % of the mix
// kept both run slots busy often enough that the median swung 3× run to
// run.
const (
	openRateJobsPerS = 20.0
	latencyLimitMs   = 250.0
)
