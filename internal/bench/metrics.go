package bench

// Metric describes one reported number. BENCHMARK.json at the repository
// root lists the same names and units; bench_test.go keeps the two equal.
type Metric struct {
	Name string
	Unit string
	// Better is "lower" or "higher".
	Better string
	// Bound is the regression bound as a share of the baseline median
	// (BENCHMARK.json carries it for end-to-end metrics). Zero means
	// -compare reports the metric without a verdict.
	Bound float64
	// Floor is an absolute slack -compare adds to Bound, for metrics that
	// are milliseconds on some workloads and seconds on others.
	Floor float64
}

// EndToEnd are the metrics a user of the suite sees, reported by every
// workload as the median over the measured repetitions. The bounds come
// from ten-seed runs on a shared 2-vCPU KVM guest: allocation repeats to
// 0.1% and peak heap to 4%, but the host's speed drifts by a quarter and
// more over minutes, which the times cannot average away.
var EndToEnd = []Metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.05},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.05},
	{Name: "peak_heap_mb", Unit: "MB", Better: "lower", Bound: 0.15},
}

// ErrorFrac is failed items over attempted items. It is zero on a correct
// run, so it is reported beside the end-to-end metrics (and as "failed"
// in the result line) rather than among them; any increase is a
// regression.
var ErrorFrac = Metric{Name: "error_frac", Unit: "frac", Better: "lower"}

// Kernels are the kernel corpus, in testdata/kernels/<name>.c.
var Kernels = []string{"gang_flops", "data_traffic", "divergent", "worker_reduction", "async_wait"}

// PerLayer are the metrics of single layers, named <module>.<metric>. A
// workload that never enters a layer reports that layer's metrics as 0.
var PerLayer = append(kernelMetrics(), []Metric{
	{Name: "core.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "cfront.parse_ms", Unit: "ms", Better: "lower"},
	{Name: "ffront.parse_ms", Unit: "ms", Better: "lower"},
	{Name: "frontend.kb_per_ms", Unit: "KB/ms", Better: "higher"},
	{Name: "compiler.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "compiler.rest_ms", Unit: "ms", Better: "lower"},
	{Name: "compiler.batched_nests", Unit: "count", Better: "higher"},
	{Name: "compiler.declined_nests", Unit: "count", Better: "lower"},
	{Name: "analysis.vet_ms", Unit: "ms", Better: "lower"},
	{Name: "analysis.lanesafety_ms", Unit: "ms", Better: "lower"},
	{Name: "analysis.findings", Unit: "count", Better: "lower"},
	{Name: "analysis.nests_proven", Unit: "count", Better: "higher"},
	{Name: "analysis.nests_other", Unit: "count", Better: "lower"},
	{Name: "vendors.effects_ms", Unit: "ms", Better: "lower"},
	{Name: "vendors.effects_fired", Unit: "count", Better: "lower"},
	{Name: "bytecode.lower_ms", Unit: "ms", Better: "lower"},
	{Name: "bytecode.procs", Unit: "count", Better: "higher"},
	{Name: "interp.run_ms", Unit: "ms", Better: "lower"},
	{Name: "interp.runs", Unit: "count", Better: "lower"},
	{Name: "interp.ops", Unit: "count", Better: "lower"},
	{Name: "interp.ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "interp.spmd_batched", Unit: "count", Better: "higher"},
	{Name: "interp.spmd_fallbacks", Unit: "count", Better: "lower"},
	{Name: "device.kernels", Unit: "count", Better: "lower"},
	{Name: "device.mb_moved", Unit: "MB", Better: "lower"},
	{Name: "device.present_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "device.queue_waits", Unit: "count", Better: "lower"},
	{Name: "core.stats_ms", Unit: "ms", Better: "lower"},
	{Name: "core.inconclusive", Unit: "count", Better: "lower"},
	{Name: "report.write_ms", Unit: "ms", Better: "lower"},
	{Name: "report.kb", Unit: "KB", Better: "lower"},
	{Name: "core.worker_busy_frac", Unit: "frac", Better: "higher"},
	{Name: "core.test_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "core.test_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "core.phase.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "core.phase.parse_ms", Unit: "ms", Better: "lower"},
	{Name: "core.phase.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "core.phase.func_runs_ms", Unit: "ms", Better: "lower"},
	{Name: "core.phase.cross_runs_ms", Unit: "ms", Better: "lower"},
	{Name: "compiler.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.memo_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.executions", Unit: "count", Better: "lower"},
	{Name: "sweep.fingerprint_ms", Unit: "ms", Better: "lower"},
	{Name: "sweep.fingerprints", Unit: "count", Better: "lower"},
	{Name: "store.open_ms", Unit: "ms", Better: "lower"},
	{Name: "store.load_ms", Unit: "ms", Better: "lower"},
	{Name: "store.save_ms", Unit: "ms", Better: "lower"},
	{Name: "store.hits", Unit: "count", Better: "higher"},
	{Name: "store.saves", Unit: "count", Better: "lower"},
	{Name: "store.disk_mb", Unit: "MB", Better: "lower"},
	{Name: "go.cpu_user_frac", Unit: "frac", Better: "higher"},
	{Name: "go.cpu_gc_frac", Unit: "frac", Better: "lower"},
	{Name: "go.cpu_idle_frac", Unit: "frac", Better: "lower"},
	{Name: "go.sched_latency_p99_us", Unit: "us", Better: "lower"},
	{Name: "go.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "trace.coverage", Unit: "frac", Better: "higher"},
	{Name: "trace.overhead_frac", Unit: "frac", Better: "lower"},
}...)

// kernelMetrics are run_ms.<kernel>: the median interp.Run time of each
// kernel over the measured repetitions of the kernels workload.
func kernelMetrics() []Metric {
	out := make([]Metric, len(Kernels))
	for i, k := range Kernels {
		out[i] = Metric{Name: "run_ms." + k, Unit: "ms", Better: "lower", Bound: 0.25}
	}
	return out
}

// lookupMetric finds a metric by name among every catalogued metric.
func lookupMetric(name string) (Metric, bool) {
	if name == ErrorFrac.Name {
		return ErrorFrac, true
	}
	for _, group := range [][]Metric{EndToEnd, PerLayer} {
		for _, m := range group {
			if m.Name == name {
				return m, true
			}
		}
	}
	return Metric{}, false
}
