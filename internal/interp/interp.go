// Package interp executes compiled OpenACC programs: it is both the host
// interpreter and the OpenACC runtime. Host code runs against host buffers;
// compute constructs run their gangs against the simulated device
// (internal/device) with the gang-redundant / worker / vector execution
// model of the specification, every gang and worker fan-out going through
// one lane runner (runLanes, lanes.go); under the VM engine, loop nests the
// compiler batch-lowered run each gang's lanes as lockstep batches instead
// of per-worker goroutines (spmd.go). The interpreter consults the executable's
// lowering plans (regions, loop schedules) and its vendor bug hooks, so a
// miscompiled plan produces exactly the wrong-code behaviours the validation
// suite is designed to detect.
package interp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"accv/internal/bytecode"
	"accv/internal/compiler"
	"accv/internal/device"
	"accv/internal/rt"
)

// Engine selects the statement execution engine.
type Engine uint8

const (
	// EngineVM (the default) executes lowered procedure bodies through the
	// internal/bytecode register VM, tree-walking only what the lowerer
	// escaped or declined. Loop nests the LaneSafety oracle proves
	// independent run a gang's lanes in lockstep batches over lane-indexed
	// storage when their bodies hold no divergent control flow; every other
	// nest runs goroutine-per-worker (docs/PERFORMANCE.md).
	EngineVM Engine = iota
	// EngineTree walks the AST for everything — the reference semantics the
	// VM is differentially tested against.
	EngineTree
)

func (e Engine) String() string {
	if e == EngineTree {
		return "tree"
	}
	return "vm"
}

// ParseEngine maps an engine name — the accval -engine flag and the accvd
// "engine" field — onto an Engine; "" is EngineVM.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "vm", "":
		return EngineVM, nil
	case "tree":
		return EngineTree, nil
	}
	return EngineVM, fmt.Errorf("unknown engine %q (want vm or tree)", s)
}

// RunConfig parameterizes one program execution.
type RunConfig struct {
	// Platform is the accelerator runtime; a fresh one is created when nil.
	Platform *device.Platform
	// Ctx bounds the run: cancellation aborts with ErrCanceled, a context
	// deadline aborts with ErrDeadline. Nil means no context control. The
	// abort is cooperative — it fires at the next interpreted-operation
	// check, including inside kernel goroutines — so a run never outlives
	// its context by more than one op-batch (docs/API.md).
	Ctx context.Context
	// MaxOps bounds interpreted operations (guards against hangs); 0 means
	// the default of 200 million.
	MaxOps int64
	// Timeout bounds wall time; 0 means no wall deadline.
	Timeout time.Duration
	// Stdout receives printf output; nil discards it.
	Stdout io.Writer
	// Seed perturbs the in-kernel scheduler; iterating runs with different
	// seeds varies racy interleavings, which the cross-test statistics need.
	Seed int64
	// Env provides ACC_* environment variables.
	Env map[string]string
	// Engine selects the execution engine; the zero value is EngineVM.
	// EngineVM silently degrades to tree-walking, without lane batching,
	// for programs the compiler did not lower (Executable.Code == nil).
	Engine Engine
	// RaceCheck shadow-tracks device-memory accesses per lane and records
	// cross-lane conflicts in Result.Races. It forces the tree engine (the
	// VM batches lane state and cannot attribute individual accesses) and
	// slows execution considerably; it is a validation mode, not a
	// production one (docs/ANALYSIS.md).
	RaceCheck bool
}

// Result is the outcome of a run.
type Result struct {
	// Exit is the entry procedure's integer return value; the suite's
	// convention is 1 for pass, 0 for fail.
	Exit int64
	// Output is captured printf text.
	Output string
	// Ops is the number of interpreted operations.
	Ops int64
	// SimCycles is the device's simulated cycle count for this run.
	SimCycles int64
	// Kernels is the number of kernels launched.
	Kernels int64
	// ElemsIn/ElemsOut count elements moved host→device / device→host —
	// the data-movement accounting §IV-B's designs worry about.
	ElemsIn, ElemsOut int64
	// BytesIn/BytesOut are the same traffic in simulated bytes — the
	// accv_device_bytes_total metric series (docs/OBSERVABILITY.md).
	BytesIn, BytesOut int64
	// PresentHits/PresentMisses classify present-table acquisitions
	// during the run (hit: mapping reused; miss: device buffer allocated)
	// — the accv_present_lookups_total series.
	PresentHits, PresentMisses int64
	// QueueWaits counts async queue wait operations — the
	// accv_queue_waits_total series.
	QueueWaits int64
	// Races holds the cross-lane conflicts observed when RunConfig.RaceCheck
	// was set; nil otherwise. Sorted by variable, then line.
	Races []Race
	// SpmdBatchedNests counts nest executions the VM ran through the
	// lane-batched dispatch loop (one count per gang per region entry);
	// zero under EngineTree and RaceCheck.
	SpmdBatchedNests int64
	// SpmdFallbacks counts nest executions that fell back to the
	// goroutine-per-lane path, keyed by decline reason; nil when none.
	SpmdFallbacks map[string]int64
	// Err is a runtime error (out-of-bounds, not-present, crash, budget or
	// deadline exceeded). Exit is meaningless when Err != nil.
	Err error
}

// Budget / deadline sentinels.
var (
	// ErrBudget reports that the operation budget was exhausted (the
	// program looped forever, or a hang was injected).
	ErrBudget = errors.New("operation budget exhausted (possible hang)")
	// ErrDeadline reports that the wall-clock deadline passed.
	ErrDeadline = errors.New("wall-clock deadline exceeded (possible hang)")
	// ErrCanceled reports that the run's context was canceled (suite
	// cancellation or fail-fast abort, not a defect of the program).
	ErrCanceled = errors.New("run canceled")
)

// RuntimeError is a program-level failure (crash) with a source line; the
// concrete type lives in internal/rt so both engines raise the same errors.
type RuntimeError = rt.RuntimeError

// Run executes the program to completion and reports the result.
func Run(exe *compiler.Executable, cfg RunConfig) Result {
	if cfg.MaxOps <= 0 {
		cfg.MaxOps = 200_000_000
	}
	plat := cfg.Platform
	if plat == nil {
		plat = device.NewPlatform(device.Config{}, 1)
	}
	for k, v := range cfg.Env {
		plat.SetEnv(k, v)
	}
	var out strings.Builder
	in := &Interp{
		exe:    exe,
		plat:   plat,
		maxOps: cfg.MaxOps,
		seed:   cfg.Seed,
		out:    &out,
		sink:   cfg.Stdout,
	}
	if cfg.Engine == EngineVM && !cfg.RaceCheck {
		in.code = exe.Code
	}
	if cfg.RaceCheck {
		in.rc = newRaceTracker()
	}
	if cfg.Timeout > 0 {
		timer := time.AfterFunc(cfg.Timeout, func() { in.requestStop(ErrDeadline) })
		defer timer.Stop()
	}
	if cfg.Ctx != nil {
		if err := ctxErr(cfg.Ctx); err != nil {
			return Result{Err: err} // context already dead: never start
		}
		stop := context.AfterFunc(cfg.Ctx, func() { in.requestStop(ctxErr(cfg.Ctx)) })
		defer stop()
	}

	dev := plat.Current()
	cyclesBefore := dev.Stats.SimCycles.Load()
	kernelsBefore := dev.Stats.Kernels.Load()
	inBefore := dev.Stats.ElemsCopiedIn.Load()
	outBefore := dev.Stats.ElemsCopiedOut.Load()
	bytesInBefore := dev.Stats.BytesCopiedIn.Load()
	bytesOutBefore := dev.Stats.BytesCopiedOut.Load()
	hitsBefore := dev.Stats.PresentHits.Load()
	missesBefore := dev.Stats.PresentMisses.Load()
	waitsBefore := dev.Stats.QueueWaits.Load()
	res := Result{}
	func() {
		defer func() {
			if r := recover(); r != nil {
				switch e := r.(type) {
				case stopSignal:
					res.Err = e.err
				default:
					panic(r)
				}
			}
		}()
		entry := exe.Prog.EntryFunc()
		if entry == nil {
			res.Err = &RuntimeError{Msg: "program has no entry procedure"}
			return
		}
		v, err := in.callFunction(entry, nil, nil, false)
		if err != nil {
			res.Err = err
			return
		}
		res.Exit = v.AsInt()
	}()
	// Drain async queues so deferred async errors surface.
	if res.Err == nil {
		if err := plat.Current().WaitAll(); err != nil {
			res.Err = err
		}
	} else {
		_ = plat.Current().WaitAll()
	}
	// Fold the host goroutine's unflushed statement charges into the total
	// (raw add, not step: a budget abort must not fire outside the recover).
	in.ops.Add(in.hostOps.pend)
	in.hostOps.pend = 0
	res.Ops = in.ops.Load()
	res.Output = out.String()
	res.SimCycles = dev.Stats.SimCycles.Load() - cyclesBefore
	res.Kernels = dev.Stats.Kernels.Load() - kernelsBefore
	res.ElemsIn = dev.Stats.ElemsCopiedIn.Load() - inBefore
	res.ElemsOut = dev.Stats.ElemsCopiedOut.Load() - outBefore
	res.BytesIn = dev.Stats.BytesCopiedIn.Load() - bytesInBefore
	res.BytesOut = dev.Stats.BytesCopiedOut.Load() - bytesOutBefore
	res.PresentHits = dev.Stats.PresentHits.Load() - hitsBefore
	res.PresentMisses = dev.Stats.PresentMisses.Load() - missesBefore
	res.QueueWaits = dev.Stats.QueueWaits.Load() - waitsBefore
	if in.rc != nil {
		res.Races = in.rc.races()
	}
	res.SpmdBatchedNests = in.spmdBatched.Load()
	in.spmdMu.Lock()
	if len(in.spmdFallbacks) > 0 {
		res.SpmdFallbacks = make(map[string]int64, len(in.spmdFallbacks))
		for k, v := range in.spmdFallbacks {
			res.SpmdFallbacks[k] = v
		}
	}
	in.spmdMu.Unlock()
	return res
}

// stopSignal aborts the run from arbitrarily deep recursion (budget or
// deadline exhaustion, including inside kernel goroutines).
type stopSignal struct{ err error }

// ctxErr maps a context's termination to the run sentinels: deadline
// expiry to ErrDeadline, any other cancellation to ErrCanceled, nil while
// the context is live.
func ctxErr(ctx context.Context) error {
	switch ctx.Err() {
	case nil:
		return nil
	case context.DeadlineExceeded:
		return ErrDeadline
	default:
		return ErrCanceled
	}
}

// Interp is the execution state of one run.
type Interp struct {
	exe    *compiler.Executable
	plat   *device.Platform
	maxOps int64
	seed   int64
	// code is the lowered bytecode module when the VM engine is active;
	// nil means every statement tree-walks and no nest is lane-batched.
	code *bytecode.Module
	// rc is the cross-lane race tracker; nil unless RunConfig.RaceCheck.
	rc *raceTracker
	// The lane-batching counters feed the accv_spmd_* telemetry series
	// through Result.
	spmdBatched   atomic.Int64
	spmdMu        sync.Mutex
	spmdFallbacks map[string]int64

	ops atomic.Int64
	// hostOps counts the host goroutine's statements; kernel lanes count
	// into their own kernelState.ops. Only the host goroutine touches it.
	hostOps opCounter
	// stopErr, once non-nil, aborts the run at the next step check with
	// the stored sentinel (ErrDeadline or ErrCanceled). First writer wins.
	stopErr atomic.Pointer[error]

	outMu sync.Mutex
	out   *strings.Builder
	sink  io.Writer

	// regionMu serializes reduction combining and other region bookkeeping.
	regionMu sync.Mutex
}

// step charges n interpreted operations and enforces budget and deadline.
// It is called on every statement and loop iteration; the panic unwinds to
// Run (host context) or to the gang goroutine wrapper (device context).
// The checks run whenever the charge crosses a 256-op boundary, which
// amortizes them regardless of the caller's batch size.
func (in *Interp) step(n int64) {
	v := in.ops.Add(n)
	if (v-n)>>8 != v>>8 {
		if v > in.maxOps {
			panic(stopSignal{ErrBudget})
		}
		if p := in.stopErr.Load(); p != nil {
			panic(stopSignal{*p})
		}
	}
}

// opCounter counts one goroutine's interpreted operations — the host's, a
// kernel lane's or a batch worker's — and charges them to the run's shared
// budget in chunks of 64, so concurrent lanes do not serialize on one
// atomic and host code does not pay one atomic add per statement. Budget
// and stop checks still run every 64 charges, plenty for hang detection.
// A lane or worker flushes its remainder as it ends; Run folds the host's
// in.
type opCounter struct {
	n    int64 // every op counted
	pend int64 // ops counted but not yet charged
}

// add counts n ≤ 64 ops, charging each full chunk of 64.
func (o *opCounter) add(in *Interp, n int64) {
	o.n += n
	o.pend += n
	if o.pend >= 64 {
		o.charge(in)
	}
}

// charge charges the full chunk pend holds and keeps the rest. It runs
// once per 64 ops; kept out of line, it leaves add small enough to inline
// into the per-op paths.
//
//go:noinline
func (o *opCounter) charge(in *Interp) {
	in.step(o.pend &^ 63)
	o.pend &= 63
}

// flush charges the remainder. A lane calls it as it ends, inside its
// laneRecover, so a budget stop it raises becomes the lane's error.
func (o *opCounter) flush(in *Interp) {
	if p := o.pend; p > 0 {
		o.pend = 0
		in.step(p)
	}
}

// noteFallback records one nest execution that declined lane batching.
func (in *Interp) noteFallback(reason string) {
	in.spmdMu.Lock()
	if in.spmdFallbacks == nil {
		in.spmdFallbacks = map[string]int64{}
	}
	in.spmdFallbacks[reason]++
	in.spmdMu.Unlock()
}

// requestStop asks the run to abort with the given sentinel at the next
// step check. The first request wins; later ones are ignored.
func (in *Interp) requestStop(err error) {
	in.stopErr.CompareAndSwap(nil, &err)
}

// printf writes formatted output to the captured stdout.
func (in *Interp) printf(s string) {
	in.outMu.Lock()
	defer in.outMu.Unlock()
	in.out.WriteString(s)
	if in.sink != nil {
		io.WriteString(in.sink, s)
	}
}

// hooks returns the executable's vendor hooks.
func (in *Interp) hooks() compiler.Hooks { return in.exe.Hooks }
