// Package accv is a Go reproduction of "A Validation Testsuite for OpenACC
// 1.0" (Wang, Xu, Chandrasekaran, Chapman, Hernandez — IPDPSW 2014): a
// complete OpenACC 1.0 validation suite together with everything it needs
// to run without GPU hardware — C and Fortran subset frontends, a simulated
// accelerator with discrete memory and gang/worker/vector execution, a
// reference compiler, and simulated CAPS/PGI/Cray compilers whose versioned
// bug databases reproduce the paper's Table I and Fig. 8 evaluation.
//
// The package is a facade over the internal packages; it is the API a
// downstream user programs against:
//
//	tc, _ := accv.NewCompiler("pgi", "13.2")
//	r, _ := accv.NewRunner(accv.C)
//	res := r.Run(tc)
//	accv.WriteReport(os.Stdout, res, accv.Text)
//
// Single programs compile and run the same way:
//
//	out, _ := accv.CompileAndRun(src, accv.C, accv.Reference())
package accv

import (
	"context"
	"fmt"
	"io"

	"accv/internal/analysis"
	"accv/internal/ast"
	"accv/internal/cfront"
	"accv/internal/compiler"
	"accv/internal/core"
	"accv/internal/device"
	"accv/internal/ffront"
	"accv/internal/harness"
	"accv/internal/interp"
	"accv/internal/obs"
	"accv/internal/report"
	_ "accv/internal/templates" // register the suite's test templates
	"accv/internal/vendors"
)

// Language selects a source frontend.
type Language = ast.Lang

// Languages.
const (
	// C is the C-subset frontend (#pragma acc).
	C = ast.LangC
	// Fortran is the Fortran-subset frontend (!$acc).
	Fortran = ast.LangFortran
)

// Compiler is a toolchain under validation: a compiler plus the device
// runtime it targets.
type Compiler = compiler.Toolchain

// Suite results re-exported from the core engine.
type (
	// SuiteResult aggregates one validation run.
	SuiteResult = core.SuiteResult
	// TestResult is the outcome of one test case.
	TestResult = core.TestResult
	// Template is one registered test case.
	Template = core.Template
	// Outcome classifies a test result.
	Outcome = core.Outcome
	// Certainty carries the §III cross-test statistics.
	Certainty = core.Certainty
	// VetPolicy selects what a run does with accvet findings.
	VetPolicy = core.VetPolicy
	// Finding is one accvet static-analysis result.
	Finding = analysis.Finding
)

// Vet policies (see WithVet and docs/ANALYSIS.md).
const (
	// VetEnforce fails tests whose functional source carries an
	// error-severity hazard (outcome VetFail). The default.
	VetEnforce = core.VetEnforce
	// VetWarnOnly records findings without failing tests.
	VetWarnOnly = core.VetWarnOnly
	// VetOff ignores findings: none is recorded and none fails a test.
	VetOff = core.VetOff
)

// Engine selects the interpreter's statement execution engine (see
// WithEngine and docs/PERFORMANCE.md).
type Engine = interp.Engine

// Execution engines.
const (
	// EngineVM — the default — executes lowered procedure bodies through
	// the internal/bytecode register VM; constructs the lowerer declines
	// fall back to tree-walking with identical semantics. Loop nests the
	// LaneSafety oracle proves lane-independent run in lockstep over
	// lane-batched storage; the rest run goroutine-per-worker (see
	// docs/PERFORMANCE.md, "Lane batching in the VM").
	EngineVM = interp.EngineVM
	// EngineTree forces the reference tree-walking interpreter everywhere.
	EngineTree = interp.EngineTree
)

// AnalyzeProgram runs the accvet static analyzers over a parsed program
// and returns the unsuppressed findings, sorted by position. It is the
// library form of the accvet command.
func AnalyzeProgram(prog *ast.Program) []Finding {
	return analysis.Analyze(prog, analysis.Options{}).Findings
}

// ReportFormat selects a report renderer.
type ReportFormat = report.Format

// Report formats.
const (
	// Text renders the plain-text report.
	Text = report.Text
	// CSV renders machine-readable rows.
	CSV = report.CSV
	// HTML renders a standalone page.
	HTML = report.HTML
)

// NewCompiler returns a simulated vendor compiler ("caps", "pgi", "cray")
// at the given release version, or the reference compiler for
// name "reference".
func NewCompiler(name, version string) (Compiler, error) {
	return vendors.New(name, version)
}

// Reference returns the specification-faithful reference compiler for
// OpenACC 1.0 (the paper's target).
func Reference() Compiler { return compiler.NewReference() }

// Reference20 returns the reference compiler configured for OpenACC 2.0:
// it accepts enter/exit data, the routine directive, default(none), and
// enforces the stricter 2.0 loop-nesting rules of §VI.
func Reference20() Compiler {
	return &compiler.Reference{Opts: compiler.Options{
		Spec: compiler.Spec20, Name: "reference", Version: "2.0",
	}}
}

// Versions lists the simulated release versions of a vendor, in order.
func Versions(vendor string) []string {
	switch vendor {
	case "caps":
		return append([]string(nil), vendors.CAPSVersions...)
	case "pgi":
		return append([]string(nil), vendors.PGIVersions...)
	case "cray":
		return append([]string(nil), vendors.CrayVersions...)
	}
	return nil
}

// Vendors lists the simulated vendor names.
func Vendors() []string { return []string{"caps", "pgi", "cray"} }

// BugEntry describes one entry of a simulated vendor's bug database.
type BugEntry struct {
	ID         string
	Title      string
	Lang       Language
	Introduced string // empty: present since the first simulated release
	FixedIn    string // empty: never fixed within the simulated range
}

// BugDatabase returns a vendor's full bug database — the ground truth
// behind Table I. Returns nil for unknown vendors and for the reference
// compiler (which has no bugs by construction).
func BugDatabase(vendor string) []BugEntry {
	tc, err := vendors.New(vendor, "0")
	if err != nil {
		return nil
	}
	v, ok := tc.(*vendors.Vendor)
	if !ok {
		return nil
	}
	var out []BugEntry
	for _, b := range v.Bugs() {
		out = append(out, BugEntry{
			ID: b.ID, Title: b.Title, Lang: b.Lang,
			Introduced: b.Introduced, FixedIn: b.FixedIn,
		})
	}
	return out
}

// RunResult is the outcome of running a single program.
type RunResult struct {
	// Exit is the program's integer result (suite convention: 1 = pass).
	Exit int64
	// Output is captured printf output.
	Output string
	// SimCycles is the accelerator's simulated cycle count.
	SimCycles int64
	// Kernels is the number of kernels launched on the device.
	Kernels int64
	// ElemsIn and ElemsOut count elements transferred host→device and
	// device→host — the data-movement accounting behind §IV-B's designs.
	ElemsIn, ElemsOut int64
	// Err is a runtime failure (nil on clean exit).
	Err error
}

// Parse parses an OpenACC source file with the selected frontend.
func Parse(src string, lang Language) (*ast.Program, error) {
	if lang == Fortran {
		return ffront.Parse(src)
	}
	return cfront.Parse(src)
}

// CompileAndRun compiles src with the given compiler and executes it on the
// compiler's simulated device platform.
func CompileAndRun(src string, lang Language, tc Compiler, opts ...Option) (RunResult, error) {
	return CompileAndRunContext(context.Background(), src, lang, tc, opts...)
}

// CompileAndRunContext is CompileAndRun under a caller context: canceling
// ctx (or passing its deadline) aborts the run cooperatively at the next
// interpreted operation, and RunResult.Err reports how it ended
// (docs/API.md). The returned error covers frontend and compile failures
// only; runtime trouble, including cancellation, lives in RunResult.Err.
//
// With WithCompileCache, the compilation is served from (and populates)
// the shared compiled-program cache, keyed by source, language, and
// toolchain identity; cache traffic is surfaced as
// accv_compile_cache_{hits,misses}_total when WithObs is also set. This
// is the accvd service's single-program path (docs/SERVICE.md).
func CompileAndRunContext(ctx context.Context, src string, lang Language, tc Compiler, opts ...Option) (RunResult, error) {
	cfg := gather(opts)
	if cfg.devices == 0 {
		cfg.devices = 2
	}
	var exe *compiler.Executable
	var key compiler.CacheKey
	if cfg.cache != nil {
		key = compiler.NewCacheKey(src, "single", lang.String(), tc.Name(), tc.Version())
		if hit, ok := cfg.cache.Get(key); ok {
			cfg.obs.Add("accv_compile_cache_hits_total", 1)
			exe = hit
		} else {
			cfg.obs.Add("accv_compile_cache_misses_total", 1)
		}
	}
	if exe == nil {
		prog, err := Parse(src, lang)
		if err != nil {
			return RunResult{}, fmt.Errorf("frontend: %w", err)
		}
		var err2 error
		exe, _, err2 = tc.Compile(prog)
		if err2 != nil {
			return RunResult{}, fmt.Errorf("%s %s: %w", tc.Name(), tc.Version(), err2)
		}
		if cfg.cache != nil {
			cfg.cache.Put(key, exe)
		}
	}
	plat := device.NewPlatform(tc.DeviceConfig(), cfg.devices)
	r := interp.Run(exe, interp.RunConfig{
		Platform: plat,
		Ctx:      ctx,
		MaxOps:   cfg.maxOps,
		Timeout:  cfg.timeout,
		Seed:     cfg.seed,
		Env:      cfg.env,
		Engine:   cfg.engine,
	})
	core.AddBatchTelemetry(cfg.obs, r)
	return RunResult{
		Exit: r.Exit, Output: r.Output, SimCycles: r.SimCycles,
		Kernels: r.Kernels, ElemsIn: r.ElemsIn, ElemsOut: r.ElemsOut,
		Err: r.Err,
	}, nil
}

// Observability re-exports. The full telemetry contract — every span
// name, metric name, label, and unit — is docs/OBSERVABILITY.md.
type (
	// Observer bundles a span tracer and a metrics registry; thread one
	// through WithObs or Harness.Obs to record a run.
	Observer = obs.Observer
	// MetricsSnapshot is a point-in-time copy of every metric series
	// (the JSON export schema).
	MetricsSnapshot = obs.Snapshot
)

// NewObserver returns an observer with tracing and metrics enabled.
// Export through its WriteTrace, WriteMetricsJSON, and WriteMetricsText
// methods.
func NewObserver() *Observer { return obs.NewObserver() }

// RunTest executes one test case against a compiler.
func RunTest(tc Compiler, tpl *Template, iterations int) TestResult {
	return core.RunTest(core.Config{Toolchain: tc, Iterations: iterations}, tpl)
}

// LookupTemplate finds a registered test case by feature name and language.
func LookupTemplate(name string, lang Language) *Template { return core.Lookup(name, lang) }

// Families lists the registered feature families.
func Families() []string { return core.Families() }

// AllTemplates returns every registered test case.
func AllTemplates() []*Template { return core.All() }

// WriteReport renders a suite result (Text, CSV, or HTML).
func WriteReport(w io.Writer, res *SuiteResult, format ReportFormat) error {
	return report.Write(w, res, format)
}

// WriteBugReport renders the per-failure report with code snippets.
func WriteBugReport(w io.Writer, res *SuiteResult) error {
	return report.BugReport(w, res)
}

// Production-harness re-exports (§VII).
type (
	// Harness drives node screenings on a simulated cluster.
	Harness = harness.Harness
	// Stack is one compiler × backend software stack.
	Stack = harness.Stack
	// Screening is one suite run on one node.
	Screening = harness.Screening
	// Fault is a node degradation mode.
	Fault = harness.Fault
)

// Harness fault modes.
const (
	// Healthy nodes run the stock stack.
	Healthy = harness.Healthy
	// BadMemory corrupts one element per transfer.
	BadMemory = harness.BadMemory
	// StaleDriver breaks async execution.
	StaleDriver = harness.StaleDriver
)

// NewHarness builds a production harness over n simulated nodes.
func NewHarness(n int, stacks []Stack) *Harness { return harness.New(n, stacks) }

// DefaultStacks returns the Fig. 13 software stacks.
func DefaultStacks() []Stack { return harness.DefaultStacks() }
