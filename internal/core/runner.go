package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"time"

	"accv/internal/analysis"
	"accv/internal/ast"
	"accv/internal/cfront"
	"accv/internal/compiler"
	"accv/internal/device"
	"accv/internal/ffront"
	"accv/internal/interp"
	"accv/internal/obs"
)

// Outcome classifies a test result, following §V's failure taxonomy:
// compilation errors, incorrect results, crashes, and timeouts. Canceled
// extends the taxonomy for the parallel engine: the test was aborted by
// suite cancellation (context cancel or fail-fast), so the verdict says
// nothing about the compiler.
type Outcome int

// Outcomes.
const (
	// Pass: every functional iteration produced the expected result.
	Pass Outcome = iota
	// FailCompile: the compiler rejected the generated program.
	FailCompile
	// FailWrongResult: the program ran but produced incorrect results —
	// the "silent wrong code" class the paper emphasizes.
	FailWrongResult
	// FailCrash: the program aborted at runtime.
	FailCrash
	// FailTimeout: the program exceeded its budget (hang).
	FailTimeout
	// VetFail: the accvet static analyzers found an error-severity
	// data-movement or loop hazard in the generated functional source, so
	// the test's verdict about the compiler cannot be trusted. This flags
	// suite defects, not compiler defects (docs/ANALYSIS.md).
	VetFail
	// Canceled: the suite run was canceled before or while this test ran
	// (context cancellation or fail-fast abort); no verdict was reached.
	Canceled
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Pass:
		return "pass"
	case FailCompile:
		return "compilation error"
	case FailWrongResult:
		return "incorrect results"
	case FailCrash:
		return "crash"
	case FailTimeout:
		return "time out"
	case VetFail:
		return "vet findings"
	case Canceled:
		return "canceled"
	}
	return "unknown"
}

// Failed reports whether the outcome counts as a failure.
func (o Outcome) Failed() bool { return o != Pass }

// Verdict reports whether the outcome is an actual compiler verdict —
// canceled tests never reached one, and a vet failure indicts the test
// source rather than the compiler.
func (o Outcome) Verdict() bool { return o != Canceled && o != VetFail }

// MetricLabel returns the snake_case outcome value of the
// accv_tests_total metric series (docs/OBSERVABILITY.md).
func (o Outcome) MetricLabel() string {
	switch o {
	case Pass:
		return "pass"
	case FailCompile:
		return "compile_error"
	case FailWrongResult:
		return "wrong_result"
	case FailCrash:
		return "crash"
	case FailTimeout:
		return "timeout"
	case VetFail:
		return "vet_fail"
	case Canceled:
		return "canceled"
	}
	return "unknown"
}

// VetPolicy decides what a run does with the accvet static-analysis
// findings the compiler attaches to functional variants
// (docs/ANALYSIS.md).
type VetPolicy int

// Vet policies.
const (
	// VetEnforce — the default — fails a test with outcome VetFail when
	// the analyzers report an error-severity hazard in its functional
	// source. Warnings are recorded on the result but do not fail.
	VetEnforce VetPolicy = iota
	// VetWarnOnly records findings on the TestResult without ever
	// failing a test over them.
	VetWarnOnly
	// VetOff ignores findings: none is recorded on the result and none
	// fails a test. The compiler still runs the analyzers.
	VetOff
)

// String names the policy.
func (p VetPolicy) String() string {
	switch p {
	case VetWarnOnly:
		return "warn"
	case VetOff:
		return "off"
	}
	return "enforce"
}

// ParseVetPolicy maps a vet policy name — the accval -vet flag and the
// accvd "vet" field — onto a VetPolicy; "" enforces.
func ParseVetPolicy(s string) (VetPolicy, error) {
	switch s {
	case "on", "", "true", "enforce":
		return VetEnforce, nil
	case "warn":
		return VetWarnOnly, nil
	case "off", "false":
		return VetOff, nil
	}
	return VetEnforce, fmt.Errorf("unknown vet policy %q (want on, warn, or off)", s)
}

// Config parameterizes a suite run.
type Config struct {
	// Toolchain is the compiler + device runtime under validation.
	Toolchain compiler.Toolchain
	// Iterations is M, the §III repeat count. Default 3.
	Iterations int
	// MaxOps bounds interpreted operations per run (hang detection).
	// Default 16 million.
	MaxOps int64
	// Timeout is the per-run wall deadline. Each test additionally gets a
	// context deadline of Timeout × (2·Iterations + 1) covering all of its
	// phases, so one hung run can never stall a worker forever. Default 5 s.
	Timeout time.Duration
	// Workers is the scheduler's parallelism: the number of pool
	// goroutines tests fan out over. Default GOMAXPROCS.
	Workers int
	// Devices is the number of simulated devices per platform. Default 2
	// (so acc_set_device_num is observable).
	Devices int
	// FailFast cancels the remaining suite at the first failed verdict;
	// in-flight tests abort cooperatively and unstarted ones report
	// Canceled. The failing test's own result is always kept.
	FailFast bool
	// Vet selects the static-analysis policy; the zero value enforces
	// (error findings fail the test with outcome VetFail). See VetPolicy.
	Vet VetPolicy
	// Engine selects the interpreter's execution engine; the zero value is
	// the bytecode VM (interp.EngineVM). interp.EngineTree forces the
	// reference tree-walker everywhere (docs/PERFORMANCE.md).
	Engine interp.Engine
	// Cache, when non-nil, memoizes successful compilations by content
	// hash (source + toolchain identity + vet + language), so an owner
	// that compiles identical generated sources again — the accvd daemon
	// across requests, the harness across screening epochs — is served
	// from memory. Nil, the default, compiles every source. Hits and
	// misses are surfaced as accv_compile_cache_{hits,misses}_total when
	// Obs is set.
	Cache *compiler.Cache
	// Progress, when non-nil, receives each test's result as it finishes.
	// Callbacks run concurrently from the worker goroutines; the callee
	// synchronizes.
	Progress func(res TestResult)
	// Obs receives spans and metrics per the telemetry contract
	// (docs/OBSERVABILITY.md). Nil — the default — disables every hook at
	// zero cost: all instrumentation sits behind nil checks and the
	// disabled path allocates nothing.
	Obs *obs.Observer
	// Memo, when non-nil (and Fingerprint is set), memoizes whole
	// TestResults by behavioral fingerprint across every suite sharing the
	// table — the sweep engine's cross-version result store
	// (docs/PERFORMANCE.md, "The cross-version sweep memo"). Hits are
	// deep-copied on the way out; canceled results are never stored.
	Memo *MemoTable
	// Fingerprint maps a template to its behavioral fingerprint under this
	// config's toolchain. Returning ok=false opts the template out of
	// memoization (it runs normally). The caller owns fingerprint
	// soundness: two templates/configs may share a fingerprint only if
	// their executions are behaviorally identical.
	Fingerprint func(tpl *Template) (fp string, ok bool)
	// Store, when non-nil (and Memo and Fingerprint are set), backs the
	// memo table with a persistent result store (internal/store): memo
	// leaders warm from it before executing and write verdicts through to
	// it, so sweeps start warm across processes and CI jobs
	// (docs/STORE.md). Disk hits are accounted separately from memo hits
	// (SuiteResult.StoreHits, accv_store_hits_total).
	Store ResultStore
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Iterations == 0 {
		c.Iterations = 3
	}
	if c.MaxOps == 0 {
		c.MaxOps = 16_000_000
	}
	if c.Timeout == 0 {
		c.Timeout = 5 * time.Second
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Devices == 0 {
		c.Devices = 2
	}
	return c
}

// WithDefaults returns the config with the documented defaults filled in.
// The sweep engine uses it to salt behavioral fingerprints with the
// effective run-shaping values rather than zero placeholders.
func (c Config) WithDefaults() Config { return c.withDefaults() }

// Validate rejects nonsensical settings. Historically withDefaults
// silently coerced them to defaults; the engine now refuses to run them.
// Zero fields are not errors — they select the documented defaults.
func (c Config) Validate() error {
	if c.Toolchain == nil {
		return fmt.Errorf("config: Toolchain must be set")
	}
	if c.Iterations < 0 {
		return fmt.Errorf("config: negative Iterations (%d)", c.Iterations)
	}
	if c.MaxOps < 0 {
		return fmt.Errorf("config: negative MaxOps (%d)", c.MaxOps)
	}
	if c.Timeout < 0 {
		return fmt.Errorf("config: negative Timeout (%s)", c.Timeout)
	}
	if c.Workers < 0 {
		return fmt.Errorf("config: negative Workers (parallelism) (%d)", c.Workers)
	}
	if c.Devices < 0 {
		return fmt.Errorf("config: negative Devices (%d)", c.Devices)
	}
	return nil
}

// validated normalizes and validates a config for the legacy entry points
// (RunSuite, RunTest), which cannot return errors: invalid settings are a
// programmer error and panic. Use RunSuiteContext for an error return.
func (c Config) validated() Config {
	if err := c.Validate(); err != nil {
		panic(err)
	}
	return c.withDefaults()
}

// TestResult is the outcome of one test case.
type TestResult struct {
	Name        string
	Lang        ast.Lang
	Family      string
	Description string
	Outcome     Outcome
	Detail      string // failure detail: diagnostic or runtime error text
	BugIDs      []string
	// Findings holds the accvet static-analysis results for the
	// functional source (nil when the vet policy or the toolchain's vet
	// mode is off).
	Findings []analysis.Finding

	FuncRuns  int
	FuncFails int
	Cert      Certainty // §III statistics from the cross runs
	HasCross  bool
	// Inconclusive: the cross variant never failed, i.e. the directive
	// under test showed no observable effect; the paper flags these for
	// test redesign.
	Inconclusive bool

	Duration time.Duration
	// Functional and Cross hold the generated sources for bug reports.
	Functional, Cross string
}

// ID returns the test identifier.
func (r *TestResult) ID() string { return r.Name + "." + r.Lang.String() }

// SuiteResult aggregates a full run.
type SuiteResult struct {
	Compiler string
	Version  string
	// Lang is the language of the templates actually run, or -1 for a
	// mixed (or empty) set.
	Lang     ast.Lang
	Results  []TestResult
	Duration time.Duration
	// MemoHits / MemoMisses count this run's tests served from / executed
	// into the shared sweep memo table (both zero when Config.Memo is
	// unset). They are scheduling telemetry, not results: the report
	// renderers ignore them so memoized and naive runs stay byte-identical.
	MemoHits, MemoMisses int
	// StoreHits counts this run's tests served from the persistent result
	// store (Config.Store) — disjoint from MemoHits/MemoMisses: a disk
	// hit neither executed nor came from the in-memory table.
	StoreHits int
}

// Total returns the number of tests.
func (s *SuiteResult) Total() int { return len(s.Results) }

// Passed returns the number of passing tests.
func (s *SuiteResult) Passed() int {
	n := 0
	for i := range s.Results {
		if !s.Results[i].Outcome.Failed() {
			n++
		}
	}
	return n
}

// Failed returns the number of failing tests.
func (s *SuiteResult) Failed() int { return s.Total() - s.Passed() }

// PassRate returns the pass percentage (Fig. 8's y-axis).
func (s *SuiteResult) PassRate() float64 {
	if s.Total() == 0 {
		return 0
	}
	return 100 * float64(s.Passed()) / float64(s.Total())
}

// ByOutcome counts results per outcome class.
func (s *SuiteResult) ByOutcome() map[Outcome]int {
	m := map[Outcome]int{}
	for i := range s.Results {
		m[s.Results[i].Outcome]++
	}
	return m
}

// FailedBugIDs returns the distinct bug IDs implicated by diagnostics.
func (s *SuiteResult) FailedBugIDs() []string {
	seen := map[string]bool{}
	for i := range s.Results {
		for _, id := range s.Results[i].BugIDs {
			seen[id] = true
		}
	}
	out := make([]string, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// parse dispatches to the language frontend.
func parse(lang ast.Lang, src string) (*ast.Program, error) {
	if lang == ast.LangFortran {
		return ffront.Parse(src)
	}
	return cfront.Parse(src)
}

// suiteLang derives SuiteResult.Lang from the templates actually run:
// their common language, or -1 for a mixed (or empty) set.
func suiteLang(templates []*Template) ast.Lang {
	if len(templates) == 0 {
		return -1
	}
	l := templates[0].Lang
	for _, t := range templates[1:] {
		if t.Lang != l {
			return -1
		}
	}
	return l
}

// langLabel renders a suite language for metric labels: "c", "fortran",
// or "mixed" (docs/OBSERVABILITY.md).
func langLabel(l ast.Lang) string {
	if l < 0 {
		return "mixed"
	}
	return l.String()
}

// RunTest executes one template: the functional variant M times, then —
// only if it passed, per the Fig. 3 flow — the cross variant M times for
// the certainty statistics. Invalid configs panic; use RunTestContext for
// an error return.
func RunTest(cfg Config, tpl *Template) TestResult {
	return runTest(context.Background(), cfg.validated(), tpl, nil, -1)
}

// RunTestContext is RunTest under a caller context: cancellation aborts
// the test cooperatively (outcome Canceled), a context deadline reports
// FailTimeout. It returns an error only for invalid configs.
func RunTestContext(ctx context.Context, cfg Config, tpl *Template) (TestResult, error) {
	if err := cfg.Validate(); err != nil {
		return TestResult{}, err
	}
	return runTest(ctx, cfg.withDefaults(), tpl, nil, -1), nil
}

// testBudget is the per-test context deadline: every phase of one test
// (generate, parse, compile, M functional + M cross runs) must fit in it,
// so a hung phase can stall its worker for at most this long.
func testBudget(cfg Config) time.Duration {
	return cfg.Timeout * time.Duration(2*cfg.Iterations+1)
}

// runTest executes one test. parent is the suite.run span when
// called through RunSuite; worker is the pool worker id for span
// attribution, -1 outside the pool. The config must already be validated
// and defaulted. Every observability hook below sits behind a cfg.Obs nil
// check so the disabled path does no label construction and no
// allocation (docs/OBSERVABILITY.md).
func runTest(ctx context.Context, cfg Config, tpl *Template, parent *obs.Span, worker int) (res TestResult) {
	start := time.Now()
	res = TestResult{
		Name: tpl.Name, Lang: tpl.Lang, Family: tpl.Family,
		Description: tpl.Description,
	}
	if ctx.Err() != nil {
		res.Outcome = Canceled
		res.Detail = "suite canceled before the test started"
		return res
	}
	ctx, cancel := context.WithTimeout(ctx, testBudget(cfg))
	defer cancel()
	var testSpan *obs.Span
	if cfg.Obs != nil {
		labels := []obs.Label{
			obs.L("test", tpl.Name),
			obs.L("lang", tpl.Lang.String()),
			obs.L("family", tpl.Family),
		}
		if worker >= 0 {
			labels = append(labels, obs.L("worker", strconv.Itoa(worker)))
		}
		if parent != nil {
			testSpan = parent.Child("test.run", labels...)
		} else {
			testSpan = cfg.Obs.StartSpan("test.run", labels...)
		}
	}
	defer func() {
		res.Duration = time.Since(start)
		if cfg.Obs != nil {
			testSpan.End()
			cfg.Obs.Add("accv_tests_total", 1,
				obs.L("lang", tpl.Lang.String()),
				obs.L("family", tpl.Family),
				obs.L("outcome", res.Outcome.MetricLabel()))
			cfg.Obs.ObserveDuration("accv_test_duration_seconds", res.Duration)
		}
	}()

	var genSpan *obs.Span
	if cfg.Obs != nil {
		genSpan = testSpan.Child("test.generate", obs.L("test", tpl.Name))
	}
	functional, cross, hasCross, err := tpl.GenerateCached()
	if cfg.Obs != nil {
		cfg.Obs.ObserveDuration("accv_phase_duration_seconds", genSpan.End(), obs.L("phase", "generate"))
	}
	if err != nil {
		res.Outcome = FailCompile
		res.Detail = "template expansion: " + err.Error()
		return res
	}
	res.Functional, res.Cross, res.HasCross = functional, cross, hasCross

	exe, diags, err := cfg.compileSource(tpl.Lang, functional, tpl.Name, "functional", testSpan)
	collectBugIDs(&res, diags)
	if err != nil {
		res.Outcome = FailCompile
		res.Detail = err.Error()
		return res
	}

	// Static-analysis findings on the functional source. Error-severity
	// findings under the enforcing policy mean the test itself is
	// hazardous, so its verdict about the compiler is void: fail it with
	// the distinct VetFail outcome instead of running it. Cross variants
	// are exempt — they are intentionally broken by construction.
	if cfg.Vet != VetOff {
		res.Findings = exe.Findings
		if cfg.Obs != nil {
			for i := range exe.Findings {
				cfg.Obs.Add("accv_vet_findings_total", 1,
					obs.L("analyzer", exe.Findings[i].ID),
					obs.L("severity", exe.Findings[i].Sev.String()))
			}
		}
		if cfg.Vet == VetEnforce {
			for i := range exe.Findings {
				if exe.Findings[i].Sev == analysis.Error {
					res.Outcome = VetFail
					res.Detail = "accvet: " + exe.Findings[i].String()
					return res
				}
			}
		}
	}

	// Functional runs.
	var funcSpan *obs.Span
	if cfg.Obs != nil {
		funcSpan = testSpan.Child("test.func_runs",
			obs.L("test", tpl.Name), obs.L("iterations", strconv.Itoa(cfg.Iterations)))
	}
	for it := 0; it < cfg.Iterations; it++ {
		res.FuncRuns++
		out, run := cfg.runOnce(ctx, exe, tpl, int64(it), "functional")
		if out == Canceled {
			res.Outcome, res.Detail = Canceled, run
			if cfg.Obs != nil {
				cfg.Obs.ObserveDuration("accv_phase_duration_seconds", funcSpan.End(), obs.L("phase", "func_runs"))
			}
			return res
		}
		if out != Pass {
			res.FuncFails++
			if res.Outcome == Pass || res.Outcome == FailWrongResult {
				res.Outcome = out
				res.Detail = run
			}
		}
	}
	if cfg.Obs != nil {
		cfg.Obs.ObserveDuration("accv_phase_duration_seconds", funcSpan.End(), obs.L("phase", "func_runs"))
	}
	if res.Outcome.Failed() {
		return res
	}

	// Cross runs (deeper validation of the directive under test).
	if hasCross {
		// A cross variant that no longer parses or compiles (e.g. the
		// directive removal left an empty construct) counts as failing every
		// cross run: the variant certainly does not reproduce the functional
		// result.
		cexe, _, err := cfg.compileSource(tpl.Lang, cross, tpl.Name, "cross", testSpan)
		if err != nil {
			res.Cert = NewCertainty(cfg.Iterations, cfg.Iterations)
			return res
		}
		var crossSpan *obs.Span
		if cfg.Obs != nil {
			crossSpan = testSpan.Child("test.cross_runs",
				obs.L("test", tpl.Name), obs.L("iterations", strconv.Itoa(cfg.Iterations)))
		}
		fails := 0
		for it := 0; it < cfg.Iterations; it++ {
			out, run := cfg.runOnce(ctx, cexe, tpl, int64(1000+it), "cross")
			if out == Canceled {
				res.Outcome, res.Detail = Canceled, run
				if cfg.Obs != nil {
					cfg.Obs.ObserveDuration("accv_phase_duration_seconds", crossSpan.End(), obs.L("phase", "cross_runs"))
				}
				return res
			}
			if out != Pass {
				fails++
			}
		}
		if cfg.Obs != nil {
			cfg.Obs.ObserveDuration("accv_phase_duration_seconds", crossSpan.End(), obs.L("phase", "cross_runs"))
		}
		res.Cert = NewCertainty(fails, cfg.Iterations)
		res.Inconclusive = !res.Cert.Conclusive()
	}
	return res
}

// compileSource takes one generated source through frontend and compiler,
// consulting the compile cache first when the config carries one. Cache
// hits skip parsing and compilation entirely (the cached executable's own
// diagnostics are returned); misses compile and populate the cache on
// success. Frontend errors are reported with a "frontend:" prefix, exactly
// as the uncached path always has.
func (cfg Config) compileSource(lang ast.Lang, src, name, variant string, testSpan *obs.Span) (*compiler.Executable, []compiler.Diagnostic, error) {
	var key compiler.CacheKey
	if cfg.Cache != nil {
		// No vet policy in the key: every compile runs the analyzers, and
		// the policy only decides what a run does with the findings.
		key = compiler.NewCacheKey(src, lang.String(),
			cfg.Toolchain.Name(), cfg.Toolchain.Version())
		if exe, ok := cfg.Cache.Get(key); ok {
			if cfg.Obs != nil {
				cfg.Obs.Add("accv_compile_cache_hits_total", 1)
			}
			return exe, exe.Diags, nil
		}
		if cfg.Obs != nil {
			cfg.Obs.Add("accv_compile_cache_misses_total", 1)
		}
	}

	var parseSpan *obs.Span
	if cfg.Obs != nil {
		parseSpan = testSpan.Child("test.parse", obs.L("test", name), obs.L("variant", variant))
	}
	prog, err := parse(lang, src)
	if cfg.Obs != nil {
		cfg.Obs.ObserveDuration("accv_phase_duration_seconds", parseSpan.End(), obs.L("phase", "parse"))
	}
	if err != nil {
		return nil, nil, fmt.Errorf("frontend: %w", err)
	}

	var compileSpan *obs.Span
	if cfg.Obs != nil {
		compileSpan = testSpan.Child("test.compile", obs.L("test", name), obs.L("variant", variant))
	}
	exe, diags, err := cfg.Toolchain.Compile(prog)
	if cfg.Obs != nil {
		cfg.Obs.ObserveDuration("accv_phase_duration_seconds", compileSpan.End(), obs.L("phase", "compile"))
	}
	if err != nil {
		return nil, diags, err
	}
	if cfg.Cache != nil {
		cfg.Cache.Put(key, exe)
	}
	return exe, diags, nil
}

// runOnce executes a compiled variant once on a fresh platform — each run
// gets its own device/interpreter instance, so pool workers never share
// mutable runtime state. variant ("functional" or "cross") labels the
// accv_runs_total metric; the interpreter's op and transfer counters are
// surfaced into the registry here, once per run.
func (cfg Config) runOnce(ctx context.Context, exe *compiler.Executable, tpl *Template, seed int64, variant string) (Outcome, string) {
	plat := device.NewPlatform(cfg.Toolchain.DeviceConfig(), cfg.Devices)
	r := interp.Run(exe, interp.RunConfig{
		Platform: plat,
		Ctx:      ctx,
		MaxOps:   cfg.MaxOps,
		Timeout:  cfg.Timeout,
		Seed:     seed,
		Env:      tpl.Env,
		Engine:   cfg.Engine,
	})
	if cfg.Obs != nil {
		cfg.Obs.Add("accv_runs_total", 1, obs.L("variant", variant))
		cfg.Obs.Add("accv_interp_ops_total", r.Ops)
		cfg.Obs.Add("accv_device_kernels_total", r.Kernels)
		cfg.Obs.Add("accv_device_bytes_total", r.BytesIn, obs.L("direction", "in"))
		cfg.Obs.Add("accv_device_bytes_total", r.BytesOut, obs.L("direction", "out"))
		cfg.Obs.Add("accv_present_lookups_total", r.PresentHits, obs.L("result", "hit"))
		cfg.Obs.Add("accv_present_lookups_total", r.PresentMisses, obs.L("result", "miss"))
		cfg.Obs.Add("accv_queue_waits_total", r.QueueWaits)
		AddBatchTelemetry(cfg.Obs, r)
	}
	switch {
	case r.Err == interp.ErrCanceled:
		return Canceled, r.Err.Error()
	case r.Err == interp.ErrBudget || r.Err == interp.ErrDeadline:
		return FailTimeout, r.Err.Error()
	case r.Err != nil:
		return FailCrash, r.Err.Error()
	case r.Exit != 1:
		return FailWrongResult, fmt.Sprintf("verification returned %d (want 1)", r.Exit)
	}
	return Pass, ""
}

// AddBatchTelemetry records one run's lane-batching counters as the
// accv_spmd_* series; a nil o records nothing. The suite runner and the
// single-program path both report through it.
func AddBatchTelemetry(o *obs.Observer, r interp.Result) {
	if r.SpmdBatchedNests > 0 {
		o.Add("accv_spmd_batched_nests_total", r.SpmdBatchedNests)
	}
	for reason, n := range r.SpmdFallbacks {
		o.Add("accv_spmd_fallback_nests_total", n, obs.L("reason", reason))
	}
}

// collectBugIDs extracts vendor bug links from diagnostics.
func collectBugIDs(res *TestResult, diags []compiler.Diagnostic) {
	for _, d := range diags {
		if d.BugID != "" {
			res.BugIDs = append(res.BugIDs, d.BugID)
		}
	}
}
