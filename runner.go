// The context-first, option-based execution facade. Runner is the suite
// API: construction takes functional options, validates them eagerly,
// and the Run/RunContext methods drive the parallel core engine.
package accv

import (
	"context"
	"time"

	"accv/internal/compiler"
	"accv/internal/core"
)

// Option configures a Runner or a single CompileAndRun call. The two share
// one vocabulary; each consumer reads the options that apply to it (a
// suite has no use for WithEnv, a single run none for WithParallelism)
// and ignores the rest.
type Option func(*options)

// options is the gathered option record. Zero values mean "use the
// engine's default"; validation happens in NewRunner (suites) or is
// inherited from the engine (single runs).
type options struct {
	// Single-run knobs (CompileAndRun).
	env     map[string]string
	seed    int64
	maxOps  int64
	devices int

	// Shared.
	timeout time.Duration
	obs     *Observer

	// Suite knobs (Runner).
	iterations  int
	parallelism int
	failFast    bool
	family      string
	templates   []*Template
	vet         core.VetPolicy
	engine      Engine

	// Sweep knobs (RunSweep).
	langs []Language

	// Shared-infrastructure knobs (the accvd service).
	progress func(TestResult)
	cache    *compiler.Cache
	memo     *core.MemoTable

	// Persistence knobs (OpenStore / WithResultStore; docs/STORE.md).
	store    core.ResultStore
	storeCap int
}

func gather(opts []Option) options {
	var o options
	for _, opt := range opts {
		if opt != nil {
			opt(&o)
		}
	}
	return o
}

// WithEnv sets an ACC_* environment variable for the run.
func WithEnv(key, value string) Option {
	return func(o *options) {
		if o.env == nil {
			o.env = map[string]string{}
		}
		o.env[key] = value
	}
}

// WithSeed perturbs the in-kernel scheduler (races interleave differently).
func WithSeed(seed int64) Option { return func(o *options) { o.seed = seed } }

// WithBudget bounds interpreted operations per run (hang detection).
func WithBudget(ops int64) Option { return func(o *options) { o.maxOps = ops } }

// WithTimeout bounds wall-clock time: directly for a single run, per
// functional/cross iteration for a suite (each test additionally gets a
// context deadline covering all of its iterations — docs/API.md).
func WithTimeout(d time.Duration) Option { return func(o *options) { o.timeout = d } }

// WithDevices sets the number of simulated accelerators (default 2).
func WithDevices(n int) Option { return func(o *options) { o.devices = n } }

// WithObs records spans and metrics into obs, per the telemetry contract
// (docs/OBSERVABILITY.md). Nil leaves observability off, at zero cost.
func WithObs(o *Observer) Option { return func(c *options) { c.obs = o } }

// WithIterations sets M, the §III per-test repeat count (default 3).
func WithIterations(m int) Option { return func(o *options) { o.iterations = m } }

// WithParallelism sets the worker-pool width for suite execution: how
// many tests run concurrently, each on its own isolated simulated
// platform. Default GOMAXPROCS; 1 reproduces the historical sequential
// engine exactly.
func WithParallelism(workers int) Option { return func(o *options) { o.parallelism = workers } }

// WithFailFast cancels the remaining suite after the first defect
// verdict. In-flight tests abort cooperatively and unstarted ones are
// reported as canceled, not failed.
func WithFailFast() Option { return func(o *options) { o.failFast = true } }

// WithVet selects the static-analysis policy for suite runs. The accvet
// analyzers (docs/ANALYSIS.md) check every functional source for
// data-movement and loop hazards; under the default VetEnforce policy an
// error-severity finding fails the test with outcome VetFail, because a
// hazardous test says nothing trustworthy about the compiler. VetWarnOnly
// records findings without failing; VetOff ignores them. The analyzers
// run whatever the policy.
func WithVet(p VetPolicy) Option { return func(o *options) { o.vet = p } }

// WithEngine selects the interpreter's execution engine. The default,
// EngineVM, runs compiled bytecode on the statement hot path and batches
// loop nests the LaneSafety oracle proves lane-independent, executing
// their lanes in lockstep over lane-indexed storage (unproven nests run
// goroutine-per-worker); EngineTree forces the reference tree-walking
// interpreter everywhere. The two are semantically identical (held to
// byte-identical suite reports by the differential tests); EngineTree
// exists for cross-checking and for isolating suspected VM defects. See
// docs/PERFORMANCE.md.
func WithEngine(e Engine) Option { return func(o *options) { o.engine = e } }

// WithFamily restricts a Runner to one feature family ("parallel",
// "data", "loop", ...) — the paper's feature-selection capability.
func WithFamily(name string) Option { return func(o *options) { o.family = name } }

// WithLangs selects the language columns of a RunSweep (default: C only).
// Runner construction ignores it — a Runner is built for one language.
func WithLangs(langs ...Language) Option {
	return func(o *options) { o.langs = append([]Language(nil), langs...) }
}

// WithTemplates runs exactly the given test cases, overriding language
// and family selection.
func WithTemplates(tpls ...*Template) Option {
	return func(o *options) { o.templates = append([]*Template(nil), tpls...) }
}

// WithProgress streams per-test results as they complete: fn is invoked
// once per finished test, concurrently from the scheduler's worker
// goroutines (the callee synchronizes), before the suite result is
// assembled. It is the mechanism behind accvd's live progress stream
// (docs/SERVICE.md); results still merge into the SuiteResult in
// template order regardless of callback order.
func WithProgress(fn func(TestResult)) Option {
	return func(o *options) { o.progress = fn }
}

// CompileCache is the LRU-bounded compiled-program cache (keyed by
// source + toolchain identity + vet + language; docs/PERFORMANCE.md).
// A Runner or RunSweep compiles without one unless WithCompileCache
// hands it a caller-owned cache, which many Runners — or many service
// requests — then share.
type CompileCache = compiler.Cache

// NewCompileCache returns an empty compile cache with the default
// capacity (compiler.DefaultCacheCap entries, LRU-evicted past it).
func NewCompileCache() *CompileCache { return compiler.NewCache() }

// NewCompileCacheWithCap returns an empty compile cache bounded to at
// most capacity compiled programs; non-positive capacities take the
// default.
func NewCompileCacheWithCap(capacity int) *CompileCache { return compiler.NewCacheWithCap(capacity) }

// WithCompileCache makes the Runner (or RunSweep) serve compilations
// from the given shared cache. Without it nothing is cached. Sharing is
// always sound — toolchain identity, vet mode, and language are in the
// key — and is how the accvd service keeps one cross-request cache warm
// (docs/SERVICE.md).
func WithCompileCache(c *CompileCache) Option { return func(o *options) { o.cache = c } }

// MemoTable is the single-flight cross-version sweep memo
// (docs/PERFORMANCE.md, "The cross-version sweep memo").
type MemoTable = core.MemoTable

// NewMemoTable returns an empty sweep memo table.
func NewMemoTable() *MemoTable { return core.NewMemoTable() }

// WithSweepMemo makes RunSweep use the given shared memo table instead
// of a per-call one, so repeated or concurrent sweeps share executions:
// fingerprints are salted with the effective run configuration, and
// concurrent identical requests coalesce through the table's
// single-flight entries. Runner construction ignores it.
func WithSweepMemo(t *MemoTable) Option { return func(o *options) { o.memo = t } }

// Runner validates compilers against a selected test set. Build one with
// NewRunner; a Runner is immutable and safe for concurrent use.
type Runner struct {
	lang      Language
	opts      options
	templates []*Template
}

// NewRunner builds a runner over the registered OpenACC 1.0 templates for
// lang, narrowed and tuned by the options. Nonsensical settings, such as
// negative parallelism, are rejected here, not at run time.
func NewRunner(lang Language, opts ...Option) (*Runner, error) {
	return newRunner(lang, core.ByLang(lang), opts)
}

// NewRunner20 is NewRunner over the OpenACC 2.0 templates (§IX future
// work). Run it against Reference20.
func NewRunner20(lang Language, opts ...Option) (*Runner, error) {
	return newRunner(lang, core.ByLang20(lang), opts)
}

func newRunner(lang Language, all []*Template, opts []Option) (*Runner, error) {
	o := gather(opts)
	tpls := o.templates
	if tpls == nil {
		if o.family != "" {
			tpls = core.ByFamily(o.family, lang)
		} else {
			tpls = all
		}
	}
	r := &Runner{lang: lang, opts: o, templates: tpls}
	// Validate the numeric surface now; the stand-in toolchain only
	// satisfies the non-nil check, the caller's compiler arrives at Run.
	if err := r.config(compiler.NewReference()).Validate(); err != nil {
		return nil, err
	}
	return r, nil
}

// config maps the gathered options onto the engine config.
func (r *Runner) config(tc Compiler) core.Config {
	return core.Config{
		Toolchain:  tc,
		Iterations: r.opts.iterations,
		MaxOps:     r.opts.maxOps,
		Timeout:    r.opts.timeout,
		Workers:    r.opts.parallelism,
		Devices:    r.opts.devices,
		FailFast:   r.opts.failFast,
		Vet:        r.opts.vet,
		Obs:        r.opts.obs,
		Engine:     r.opts.engine,
		Cache:      r.opts.cache,
		Progress:   r.opts.progress,
	}
}

// Templates returns the selected test cases.
func (r *Runner) Templates() []*Template { return append([]*Template(nil), r.templates...) }

// Run validates the compiler against the selected tests. Results come
// back in template order regardless of parallelism.
func (r *Runner) Run(tc Compiler) *SuiteResult {
	res, _ := r.RunContext(context.Background(), tc)
	return res
}

// RunContext is Run under a caller context. Canceling ctx aborts
// in-flight tests cooperatively and marks unstarted ones canceled; the
// partial result is returned together with ctx's error, so callers can
// tell an interrupted run from a completed one.
func (r *Runner) RunContext(ctx context.Context, tc Compiler) (*SuiteResult, error) {
	return core.RunSuiteContext(ctx, r.config(tc), r.templates)
}

// RunTestContext executes one test case under ctx.
func (r *Runner) RunTestContext(ctx context.Context, tc Compiler, tpl *Template) (TestResult, error) {
	return core.RunTestContext(ctx, r.config(tc), tpl)
}
