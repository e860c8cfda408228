// Package compiler lowers a parsed OpenACC program into an executable plan:
// per-construct region descriptors (data actions, execution parameters) and
// per-loop scheduling plans. The reference lowering implements the OpenACC
// 1.0 specification; simulated vendor compilers (internal/vendors) wrap it
// and transform the plan with versioned bug effects.
package compiler

import (
	"fmt"
	"strconv"
	"strings"

	"accv/internal/analysis"
	"accv/internal/ast"
	"accv/internal/bytecode"
	"accv/internal/device"
	"accv/internal/directive"
)

// SpecVersion selects the OpenACC specification level the compiler enforces.
type SpecVersion int

const (
	// Spec10 is OpenACC 1.0 (the paper's target).
	Spec10 SpecVersion = iota
	// Spec20 is OpenACC 2.0: default(none), enter/exit data, routine, and
	// the stricter loop-nesting rules of §VI.
	Spec20
)

// String names the spec version.
func (s SpecVersion) String() string {
	if s == Spec20 {
		return "2.0"
	}
	return "1.0"
}

// WorkerNoGangPolicy resolves the Fig. 1 ambiguity: a worker loop with no
// enclosing gang loop inside a parallel region. The 1.0 specification does
// not say whether this is legal; compilers diverged.
type WorkerNoGangPolicy int

const (
	// WorkerNoGangAccept executes the worker loop in every gang (redundant
	// across gangs, partitioned across workers).
	WorkerNoGangAccept WorkerNoGangPolicy = iota
	// WorkerNoGangReject raises a compile-time diagnostic.
	WorkerNoGangReject
	// WorkerNoGangSerialize runs the loop worker-single in gang 0 only.
	WorkerNoGangSerialize
)

// String names the policy.
func (p WorkerNoGangPolicy) String() string {
	switch p {
	case WorkerNoGangReject:
		return "reject"
	case WorkerNoGangSerialize:
		return "serialize"
	}
	return "accept"
}

// VetMode controls the accvet static-analysis phase of compilation.
type VetMode int

const (
	// VetOn runs the analyzers and attaches findings to the Executable
	// (the default). Findings never fail compilation; enforcement policy
	// belongs to the harness.
	VetOn VetMode = iota
	// VetOff skips analysis entirely; Executable.Findings stays nil.
	VetOff
)

// String names the vet mode.
func (m VetMode) String() string {
	if m == VetOff {
		return "off"
	}
	return "on"
}

// Options configures a compilation.
type Options struct {
	Spec         SpecVersion
	Mapping      device.Mapping
	WorkerNoGang WorkerNoGangPolicy
	Vet          VetMode
	Name         string // compiler identity, for diagnostics
	Version      string
}

// Severity grades diagnostics.
type Severity int

const (
	// Warn diagnostics do not fail the compilation.
	Warn Severity = iota
	// Error diagnostics abort compilation.
	Error
)

// Diagnostic is one compiler message. BugID is set when a vendor bug effect
// produced the message, so reports can link failures to the bug database.
// Col is the 1-based source column nearest the problem (typically the
// offending clause), or 0 when unknown.
type Diagnostic struct {
	Sev   Severity
	Line  int
	Col   int
	Msg   string
	BugID string
}

// Pos returns the diagnostic's source position.
func (d Diagnostic) Pos() ast.Pos { return ast.Pos{Line: d.Line, Col: d.Col} }

// Error renders the diagnostic.
func (d Diagnostic) Error() string {
	sev := "warning"
	if d.Sev == Error {
		sev = "error"
	}
	return fmt.Sprintf("line %s: %s: %s", d.Pos(), sev, d.Msg)
}

// CompileError wraps the diagnostics of a failed compilation.
type CompileError struct {
	Diags []Diagnostic
}

// Error implements error.
func (e *CompileError) Error() string {
	var msgs []string
	for _, d := range e.Diags {
		if d.Sev == Error {
			msgs = append(msgs, d.Error())
		}
	}
	return strings.Join(msgs, "; ")
}

// DataAction is one data-clause entry on a construct.
type DataAction struct {
	Kind     directive.ClauseKind
	Var      directive.VarRef
	Implicit bool // added by the default data-attribute rules, not spelled
}

// Reduction is a reduction clause instance.
type Reduction struct {
	Op   string
	Vars []directive.VarRef
}

// Region describes a structured construct: parallel, kernels, data, or
// host_data (and the 2.0 enter/exit data pairs).
type Region struct {
	Construct directive.Name
	Dir       *directive.Directive
	Data      []DataAction // explicit + implicit, in application order
	Private   []directive.VarRef
	First     []directive.VarRef // explicit firstprivate clauses
	// FirstImplicit holds scalars defaulted to firstprivate by the implicit
	// data-attribute rules; vendor firstprivate bugs affect only the
	// explicit list (real compilers lower the two paths separately).
	FirstImplicit []directive.VarRef
	Reduction     []Reduction // region-level (parallel construct) reductions
	UseDevice     []directive.VarRef

	// Bug-effect switches (set by vendor transformations).
	Deleted       bool                          // whole construct eliminated (Cray dead-region elim)
	ForceSync     bool                          // async clause ignored
	DropIf        bool                          // if clause ignored
	SkipDataKind  map[directive.ClauseKind]bool // data clauses of a kind ignored
	SharePrivates bool                          // private copies shared across gangs (miscompilation)
	DropClause    map[directive.ClauseKind]bool // launch-config clauses ignored
	// SkipDataExplicit is like SkipDataKind but spares the implicit
	// (compiler-inserted) data actions.
	SkipDataExplicit map[directive.ClauseKind]bool
}

// ScheduleLevel is a bitmask of loop partitioning levels.
type ScheduleLevel int

// Partitioning levels.
const (
	LevelGang ScheduleLevel = 1 << iota
	LevelWorker
	LevelVector
)

// Has reports whether l includes level b.
func (l ScheduleLevel) Has(b ScheduleLevel) bool { return l&b != 0 }

// String names the level set.
func (l ScheduleLevel) String() string {
	var parts []string
	if l.Has(LevelGang) {
		parts = append(parts, "gang")
	}
	if l.Has(LevelWorker) {
		parts = append(parts, "worker")
	}
	if l.Has(LevelVector) {
		parts = append(parts, "vector")
	}
	if len(parts) == 0 {
		return "auto"
	}
	return strings.Join(parts, "+")
}

// LoopPlan schedules one acc loop.
type LoopPlan struct {
	Dir         *directive.Directive
	Levels      ScheduleLevel
	Seq         bool
	Independent bool
	Collapse    int // ≥1
	Private     []directive.VarRef
	Reduction   []Reduction
	GangArg     ast.Expr
	WorkerArg   ast.Expr
	VectorArg   ast.Expr

	// Gang0Only serializes the loop into gang 0 (the WorkerNoGangSerialize
	// policy for Fig. 1's ambiguity).
	Gang0Only bool

	// Bug-effect switches.
	Redundant    bool // iterations executed by every lane of the level (miscompilation)
	NoCombine    bool // reduction partials never combined (miscompilation)
	DropPlan     bool // directive ignored: loop runs as ordinary code
	PartialLanes bool // only lane 0 of each partitioned level executes its share
	CollapseSwap bool // collapsed index decomposition transposed (wrong subscripts)
}

// Hooks are runtime-behaviour switches toggled by vendor bug effects; the
// interpreter consults them.
type Hooks struct {
	// AsyncDisabledWithData: async on a compute construct that also carries
	// data clauses executes synchronously (PGI 13.x, Fig. 10 discussion).
	AsyncDisabledWithData bool
	// AsyncTestStale: acc_async_test / acc_async_test_all return without
	// writing their result (the caller sees its initial value).
	AsyncTestStale bool
	// SkipScalarCopyOut: copy clauses on scalar variables never copy the
	// device value back to the host (Cray, §V-B).
	SkipScalarCopyOut bool
	// FirstprivateAsPrivate: firstprivate copies are left uninitialized.
	FirstprivateAsPrivate bool
	// UpdateHostNoop: the update host directive performs no transfer.
	UpdateHostNoop bool
	// CollapseOuterOnly: collapse(n) schedules only the outer loop.
	CollapseOuterOnly bool
	// IgnoreVectorLength: vector_length clause ignored, default used.
	IgnoreVectorLength bool
	// HangOnWait: the wait directive/routines never return (runner times out).
	HangOnWait bool
	// WaitNoop: waits return immediately without draining queues.
	WaitNoop bool
	// CrashOnCacheDirective: the cache directive aborts at runtime.
	CrashOnCacheDirective bool
	// UpdateDeviceNoop: the update device directive performs no transfer.
	UpdateDeviceNoop bool
	// UseDeviceWrongAddr: host_data use_device hands out the host address
	// instead of the device address.
	UseDeviceWrongAddr bool
	// OnDeviceWrong: acc_on_device always reports false.
	OnDeviceWrong bool
	// MallocReturnsNull: acc_malloc returns a null pointer.
	MallocReturnsNull bool
	// InitCrash: acc_init aborts with an internal error.
	InitCrash bool
	// SetDeviceNumNoop: acc_set_device_num is ignored.
	SetDeviceNumNoop bool
	// NumDevicesZero: acc_get_num_devices reports no devices.
	NumDevicesZero bool
}

// Executable is a compiled program plus its lowering artifacts. It is
// immutable after compilation and safe for repeated, concurrent runs.
type Executable struct {
	Prog    *ast.Program
	Opts    Options
	Regions map[*ast.PragmaStmt]*Region
	Loops   map[*ast.PragmaStmt]*LoopPlan
	Hooks   Hooks
	Diags   []Diagnostic
	// Findings holds accvet static-analysis results for the program (nil
	// when Opts.Vet is VetOff). They are advisory metadata: the harness
	// decides whether error-severity findings fail a test.
	Findings []analysis.Finding
	// LaneSafety is the per-nest cross-lane safety oracle: one verdict per
	// partitioned loop nest plus the gang-redundant remainders of
	// multi-gang parallel regions. Always computed — the batch lowerer
	// batches only LaneProvenIndependent nests; accvet surfaces the same
	// verdicts via -lane-safety.
	LaneSafety []analysis.LaneSafety
	// Code is the bytecode lowering of the program's procedure bodies,
	// produced once here and reused by every run (docs/PERFORMANCE.md).
	Code *bytecode.Module
	// Batch holds the lane-batched lowering of every loop nest the
	// LaneSafety oracle proves independent and the batch lowerer can model;
	// BatchDecline records why every other planned nest was not batched.
	// Only the VM engine consults them (docs/PERFORMANCE.md). The maps
	// reflect compile-time plans: the interpreter re-checks bug-mutated
	// plan flags before using an entry.
	Batch        map[*ast.PragmaStmt]*bytecode.BatchProc
	BatchDecline map[*ast.PragmaStmt]string
}

// Compiler compiles OpenACC programs; vendor simulations implement it.
type Compiler interface {
	// Name identifies the compiler ("reference", "caps", "pgi", "cray").
	Name() string
	// Version returns the simulated release version.
	Version() string
	// Compile lowers the program. A non-nil error carries at least one
	// Error-severity diagnostic (also present in the returned slice).
	Compile(prog *ast.Program) (*Executable, []Diagnostic, error)
}

// Toolchain couples a compiler with the device runtime it targets; the
// validation harness runs programs against a toolchain.
type Toolchain interface {
	Compiler
	// DeviceConfig describes the simulated accelerator the compiler's
	// runtime drives (concrete device type, backend, parallelism mapping).
	DeviceConfig() device.Config
}

// VetConfigurable is implemented by toolchains whose accvet analysis
// phase can be toggled after construction; the harness uses it to keep
// analysis entirely off the compile path when the run's vet policy is
// off.
type VetConfigurable interface {
	SetVet(VetMode)
}

// Reference is the specification-faithful compiler.
type Reference struct {
	Opts Options
}

// SetVet implements VetConfigurable.
func (r *Reference) SetVet(m VetMode) { r.Opts.Vet = m }

// NewReference builds a reference compiler with defaults.
func NewReference() *Reference {
	return &Reference{Opts: Options{Name: "reference", Version: "1.0"}}
}

// Name implements Compiler.
func (r *Reference) Name() string { return "reference" }

// Version implements Compiler.
func (r *Reference) Version() string {
	if r.Opts.Version == "" {
		return "1.0"
	}
	return r.Opts.Version
}

// Compile implements Compiler.
func (r *Reference) Compile(prog *ast.Program) (*Executable, []Diagnostic, error) {
	return Compile(prog, r.Opts)
}

// DeviceConfig implements Toolchain: the reference runtime reports the
// spec-literal acc_device_not_host and uses the CUDA backend defaults.
func (r *Reference) DeviceConfig() device.Config {
	return device.Config{ConcreteType: device.NotHost, Backend: device.CUDA}
}

// Compile performs the reference lowering: Plan, then vet, the lane-safety
// oracle, bytecode lowering and batch lowering.
func Compile(prog *ast.Program, opts Options) (*Executable, []Diagnostic, error) {
	exe, diags, err := Plan(prog, opts)
	if err != nil {
		return nil, diags, err
	}
	if opts.Vet == VetOn {
		rep := analysis.Analyze(prog, analysis.Options{})
		exe.Findings = rep.Findings
	}
	// The lane-safety oracle is not gated on Vet: the VM's lane batching
	// keys off it regardless of whether accvet findings were requested.
	exe.LaneSafety = analysis.AnalyzeLaneSafety(prog)
	exe.Code = bytecode.LowerProgram(prog)
	lowerBatches(exe)
	return exe, diags, nil
}

// Plan is the semantic-analysis stage of Compile: it checks the program
// and builds the region descriptors and loop plans, and fails with the
// same diagnostics and CompileError Compile would. The executable it
// returns has no vet findings, lane-safety verdicts, bytecode or batch
// lowering; vendor bug effects read nothing else, which is why the sweep
// fingerprints programs from a plan.
func Plan(prog *ast.Program, opts Options) (*Executable, []Diagnostic, error) {
	s := &sema{
		exe: &Executable{
			Prog:    prog,
			Opts:    opts,
			Regions: make(map[*ast.PragmaStmt]*Region),
			Loops:   make(map[*ast.PragmaStmt]*LoopPlan),
		},
	}
	for _, fn := range prog.Funcs {
		s.function(fn)
	}
	s.exe.Diags = s.diags
	for _, d := range s.diags {
		if d.Sev == Error {
			return nil, s.diags, &CompileError{Diags: s.diags}
		}
	}
	return s.exe, s.diags, nil
}

// IsConstExpr reports whether e is a compile-time constant (literals and
// arithmetic over literals). Used by the CAPS "constant expressions only in
// num_gangs/num_workers/vector_length" bug (Fig. 9).
func IsConstExpr(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.BasicLit:
		return x.Kind != ast.StringLit
	case *ast.BinaryExpr:
		return IsConstExpr(x.X) && IsConstExpr(x.Y)
	case *ast.UnaryExpr:
		return x.Op != "*" && x.Op != "&" && IsConstExpr(x.X)
	case *ast.CastExpr:
		return IsConstExpr(x.X)
	case *ast.SizeofExpr:
		return true
	}
	return false
}

// EvalConstInt folds a constant integer expression; ok is false when the
// expression is not a foldable integer constant.
func EvalConstInt(e ast.Expr) (int64, bool) {
	switch x := e.(type) {
	case *ast.BasicLit:
		if x.Kind != ast.IntLit {
			return 0, false
		}
		if x.Known {
			return x.IntVal, true
		}
		v, err := strconv.ParseInt(x.Value, 0, 64)
		return v, err == nil
	case *ast.UnaryExpr:
		v, ok := EvalConstInt(x.X)
		if !ok {
			return 0, false
		}
		switch x.Op {
		case "-":
			return -v, true
		case "~":
			return ^v, true
		case "!":
			if v == 0 {
				return 1, true
			}
			return 0, true
		}
		return 0, false
	case *ast.BinaryExpr:
		a, ok1 := EvalConstInt(x.X)
		b, ok2 := EvalConstInt(x.Y)
		if !ok1 || !ok2 {
			return 0, false
		}
		switch x.Op {
		case "+":
			return a + b, true
		case "-":
			return a - b, true
		case "*":
			return a * b, true
		case "/":
			if b == 0 {
				return 0, false
			}
			return a / b, true
		case "%":
			if b == 0 {
				return 0, false
			}
			return a % b, true
		}
		return 0, false
	}
	return 0, false
}
