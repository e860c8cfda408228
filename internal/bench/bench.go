// Package bench is the repository's benchmark: four named workloads run
// as closed loops from one process, each checked against committed
// expected verdicts, each reporting the end-to-end metrics a user of the
// suite sees and, from one extra traced repetition, per-layer metrics
// measured from outside by timing calls into each layer's public
// functions. cmd/accbench is its command line; README.md documents the
// workloads and the metric glossary.
package bench

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"
)

// Options configures one workload run.
type Options struct {
	// Seed permutes the inputs (template and vendor order) and seeds the
	// in-kernel scheduler; the same seed gives the same inputs.
	Seed int64
	// Seconds is the measuring budget: repetitions start until it is
	// spent, a share of it after each set-up.
	Seconds float64
	// Trace adds the traced repetition and the per-layer metrics.
	Trace bool
	// WorkDir holds the run's result stores; it is created if missing and
	// everything the run writes there is removed when it ends.
	WorkDir string

	// The smoke test shrinks a run: reps fixes the repetition count after
	// each set-up, setups the set-up count (default setupRuns), and family
	// narrows the suite and the sweeps to one feature family's templates.
	reps, setups int
	family       string
}

// setupRuns is how many times set-up runs (setup_s is their median) and so
// how many shares the measuring budget is split into.
const setupRuns = 3

// Workload is one named set of inputs the benchmark runs.
type Workload struct {
	Name string
	Why  string
	// setup builds a ready-to-measure instance, including any warm-up.
	setup func(ctx context.Context, env *env) (instance, error)
}

// Workloads lists every workload in run order.
var Workloads = []Workload{
	{Name: "suite", setup: setupSuite,
		Why: "one release validated end to end (accval run -lang both), the paper's main use; touches every per-test layer"},
	{Name: "kernels", setup: setupKernels,
		Why: "execution alone on five large kernels: dispatch, lane fan-out and data movement with no frontend or compile cost"},
	{Name: "sweep-cold", setup: setupSweepCold,
		Why: "Fig. 8 / Table I regenerated into an empty store: fingerprints, memo, store writes and the executions the memo misses"},
	{Name: "sweep-warm", setup: setupSweepWarm,
		Why: "the same sweeps over a filled store: store reads, decoding and fingerprinting, with no interpreter at all"},
}

// Lookup finds a workload by name.
func Lookup(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// iterations is M, the §III repeat count every workload runs with.
const iterations = 3

// env is what every workload instance is built from.
type env struct {
	seed    int64
	workers int
	dir     string // private scratch directory of this run
	family  string
}

// rng returns the seeded permutation source.
func (e *env) rng() *rand.Rand { return rand.New(rand.NewSource(e.seed)) }

// instance is a set-up workload.
type instance interface {
	// prepare runs untimed before each repetition.
	prepare() error
	// rep runs one measured repetition.
	rep(ctx context.Context) (repResult, error)
	// traced runs the traced repetition, recording spans into rec, and
	// returns the per-layer metrics it measured and its checked items.
	// wall is the untraced median repetition time in seconds.
	traced(ctx context.Context, rec *Recorder, wall float64) (map[string]float64, tally, error)
	close() error
}

// tally counts checked items (verdicts or kernel runs) and failures.
type tally struct {
	attempted, failed int
	why               []string
}

func (t *tally) fail(msg string) {
	t.failed++
	if len(t.why) < 5 {
		t.why = append(t.why, msg)
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	for _, w := range o.why {
		if len(t.why) < 5 {
			t.why = append(t.why, w)
		}
	}
	t.failed += o.failed
}

// repResult is what one measured repetition reports beyond its timing.
type repResult struct {
	tally
	// samples holds per-repetition values of metrics the workload adds
	// (run_ms.<kernel>); each is reported as its median.
	samples map[string]float64
	// testsMs are the durations of the tests the repetition executed.
	testsMs []float64
	// busy is the share of worker time spent running tests.
	busy float64
}

// Value is one reported metric.
type Value struct {
	Unit string `json:"unit"`
	Summary
}

// Result is one workload's measurements from one run.
type Result struct {
	Workload   string           `json:"workload"`
	Seed       int64            `json:"seed"`
	Reps       int              `json:"reps"`
	Setups     int              `json:"setups"`
	Attempted  int              `json:"attempted"`
	Failed     int              `json:"failed"`
	Mismatches []string         `json:"mismatches,omitempty"`
	Metrics    map[string]Value `json:"metrics"`
}

// Run sets up, measures and (with opt.Trace) traces one workload.
// Verdict mismatches are not errors: they are counted in Result.Failed.
// rec, when non-nil, receives the traced repetition's spans.
func Run(ctx context.Context, w Workload, opt Options, rec *Recorder) (*Result, error) {
	if opt.setups < 1 {
		opt.setups = setupRuns
	}
	if err := os.MkdirAll(opt.WorkDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(opt.WorkDir, w.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e := &env{seed: opt.Seed, workers: runtime.GOMAXPROCS(0), dir: dir, family: opt.family}

	res := &Result{Workload: w.Name, Seed: opt.Seed, Setups: opt.setups, Metrics: map[string]Value{}}
	var inst instance
	defer func() {
		if inst != nil {
			inst.close()
		}
	}()
	var setups []float64
	var total tally
	var walls, allocs, peaks, tests, busy []float64
	samples := map[string][]float64{}
	var rt rtSnap // runtime counters' change over the measured repetitions
	budget := time.Duration(opt.Seconds * float64(time.Second))
	var measured time.Duration
	for i := 0; i < opt.setups; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		inst, err = w.setup(ctx, e)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.Name, err)
		}
		setups = append(setups, time.Since(start).Seconds())

		// Each set-up is followed by its share of the measuring budget, so
		// the repetitions sample the host over the whole run rather than
		// over one stretch of it.
		share := budget * time.Duration(i+1) / time.Duration(opt.setups)
		more := func(n int) bool {
			if opt.reps > 0 {
				return n < opt.reps
			}
			return n == 0 || measured < share
		}
		runtime.GC()
		rt0 := readRuntime()
		for n := 0; more(n); n++ {
			began := time.Now()
			if err := inst.prepare(); err != nil {
				return nil, err
			}
			runtime.GC()
			before := readRuntime().allocs
			heap := startHeapSampler()
			start := time.Now()
			r, err := inst.rep(ctx)
			wall := time.Since(start)
			peak := heap.Stop()
			if err != nil {
				return nil, fmt.Errorf("%s repetition %d: %w", w.Name, res.Reps+1, err)
			}
			walls = append(walls, wall.Seconds())
			allocs = append(allocs, float64(readRuntime().allocs-before)/1e6)
			peaks = append(peaks, float64(peak)/1e6)
			total.add(r.tally)
			tests = append(tests, r.testsMs...)
			if r.busy > 0 {
				busy = append(busy, r.busy)
			}
			for k, v := range r.samples {
				samples[k] = append(samples[k], v)
			}
			res.Reps++
			measured += time.Since(began)
		}
		runtime.GC()
		rt.add(rt0, readRuntime())
	}
	res.put("setup_s", "s", setups)
	res.put("wall_s", "s", walls)
	res.put("alloc_mb", "MB", allocs)
	res.put("peak_heap_mb", "MB", peaks)
	for k, v := range samples {
		res.put(k, unitOf(k), v)
	}
	if !opt.Trace {
		res.finish(total)
		return res, nil
	}

	layers := goMetrics(rt, res.Reps)
	if len(tests) > 0 {
		layers["core.test_p50_ms"] = percentile(tests, 50)
		layers["core.test_p99_ms"] = percentile(tests, 99)
	}
	if len(busy) > 0 {
		layers["core.worker_busy_frac"] = Summarize(busy).Median
	}
	if rec == nil {
		rec = NewRecorder()
	}
	if err := inst.prepare(); err != nil {
		return nil, err
	}
	runtime.GC() // the traced repetition starts from the heap state the measured ones did
	traced, t, err := inst.traced(ctx, rec, res.Metrics["wall_s"].Median)
	if err != nil {
		return nil, fmt.Errorf("%s traced repetition: %w", w.Name, err)
	}
	total.add(t)
	for k, v := range traced {
		layers[k] = v
	}
	for k, v := range layers {
		res.put(k, unitOf(k), []float64{v})
	}
	res.finish(total)
	return res, nil
}

func (r *Result) put(name, unit string, xs []float64) {
	r.Metrics[name] = Value{Unit: unit, Summary: Summarize(xs)}
}

func (r *Result) finish(t tally) {
	r.Attempted, r.Failed, r.Mismatches = t.attempted, t.failed, t.why
	frac := 0.0
	if t.attempted > 0 {
		frac = float64(t.failed) / float64(t.attempted)
	}
	r.put(ErrorFrac.Name, ErrorFrac.Unit, []float64{frac})
}

func unitOf(name string) string {
	if m, ok := lookupMetric(name); ok {
		return m.Unit
	}
	return ""
}

// Names returns the result's metric names, sorted.
func (r *Result) Names() []string {
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// traceMetrics adds trace.coverage (the share of root's wall time that
// layer spans cover) and trace.overhead_frac (the traced repetition,
// span repSpan, over the untraced median wall time, minus 1).
func traceMetrics(m map[string]float64, rec *Recorder, root, repSpan int, wall float64) {
	m["trace.coverage"] = rec.Coverage(root)
	if d := rec.duration(repSpan); wall > 0 {
		m["trace.overhead_frac"] = d.Seconds()/wall - 1
	}
}
