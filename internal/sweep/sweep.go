// Package sweep runs cross-version validation sweeps — the paper's §V
// evaluation workload (Table I, Fig. 8): one suite per (version × lang)
// cell of a vendor family — with memoized execution. Per cell and
// template it computes a behavioral fingerprint (fingerprint.go) and
// shares one execution per distinct fingerprint across the whole sweep
// through a single-flight core.MemoTable, so a template whose compiled
// behavior does not change between two releases executes once. Reports
// rendered from a memoized sweep are byte-identical to a naive
// per-version loop (sweep_differential_test.go holds that line).
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"accv/internal/ast"
	"accv/internal/compiler"
	"accv/internal/core"
	"accv/internal/interp"
	"accv/internal/obs"
	"accv/internal/vendors"
)

// Options parameterizes a sweep. The zero value sweeps the C templates
// with the core defaults at GOMAXPROCS parallelism.
type Options struct {
	// Langs selects the languages (default: C only). Each language is a
	// column of cells across every version.
	Langs []ast.Lang
	// Family restricts the template set (empty: the full 1.0 registry).
	Family string
	// Parallelism is the total worker budget, the -j of accval: it is
	// split across concurrent cells, and within a cell it becomes the
	// core scheduler's Workers. Default GOMAXPROCS.
	Parallelism int
	// Iterations, Timeout, Vet, Engine, FailFast mirror core.Config and
	// apply to every cell identically (a sweep varies the version,
	// nothing else). FailFast is per cell: a failure cancels that cell's
	// remaining tests, not the other cells.
	Iterations int
	Timeout    time.Duration
	Vet        core.VetPolicy
	Engine     interp.Engine
	FailFast   bool
	// Obs receives the per-cell suite telemetry plus the sweep counters
	// accv_sweep_memo_{hits,misses}_total and the per-version
	// accv_sweep_saved_runs gauge (docs/OBSERVABILITY.md).
	Obs *obs.Observer
	// NoMemo disables fingerprint memoization: every cell runs naively.
	// This is the differential-testing baseline; it is never faster.
	NoMemo bool
	// Cache, when non-nil, is the sweep's compiled-program cache; nil
	// compiles every source. Within one sweep the memo already runs each
	// distinct fingerprint once, so only a long-lived owner that sweeps
	// again (the accvd service, across requests) gains from one. Version
	// and language are in the key, so sharing is always sound.
	Cache *compiler.Cache
	// Memo, when non-nil (and NoMemo is false), is used as the sweep's
	// result memo instead of a fresh per-run table. Fingerprints are
	// salted with the effective run configuration, so one table may be
	// shared across sweeps with different options — only behaviorally
	// identical executions ever collide, and concurrent identical sweeps
	// coalesce through the table's single-flight entries.
	Memo *core.MemoTable
	// Store, when non-nil (and NoMemo is false), backs the memo with a
	// persistent result store (internal/store): the sweep warms from it
	// before executing anything and writes every verdict through, so
	// repeated sweeps across processes and CI jobs start warm. Because
	// fingerprints are salted with the effective run configuration, one
	// store directory may serve sweeps with different options safely.
	// Result.StoreHits reports this sweep's disk hits, disjoint from the
	// memo counters (docs/STORE.md).
	Store core.ResultStore
}

// Result is a completed sweep: the per-cell suite results in
// deterministic (version-major, lang-minor) order plus memo telemetry.
type Result struct {
	Vendor   string
	Versions []string
	Langs    []ast.Lang
	// Cells holds one SuiteResult per (version, lang): Cells[vi][li] is
	// Versions[vi] run over the Langs[li] template set.
	Cells [][]*core.SuiteResult
	// MemoHits is the number of test executions the memo table saved;
	// MemoMisses is the number actually executed. Both are zero under
	// NoMemo.
	MemoHits, MemoMisses int64
	// StoreHits is the number of tests served from the persistent result
	// store (Options.Store) — executions some earlier process already
	// paid for. Disjoint from MemoHits and MemoMisses; zero without a
	// store.
	StoreHits int64
	Duration  time.Duration
}

// Run sweeps every simulated version of a vendor family ("caps", "pgi",
// "cray") across the selected languages. Cancellation of ctx returns the
// partial result with interrupted tests marked Canceled and err carrying
// ctx.Err(), matching core.RunSuiteContext.
func Run(ctx context.Context, vendor string, opts Options) (*Result, error) {
	versions := vendors.All()[vendor]
	if len(versions) == 0 {
		return nil, fmt.Errorf("sweep: no simulated versions for compiler %q (use caps, pgi, or cray)", vendor)
	}
	langs := opts.Langs
	if len(langs) == 0 {
		langs = []ast.Lang{ast.LangC}
	}
	par := opts.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}

	type cell struct {
		vi, li int
		tc     compiler.Toolchain
	}
	var cells []cell
	for vi := range versions {
		for li := range langs {
			tc, err := vendors.New(vendor, versions[vi])
			if err != nil {
				return nil, err
			}
			cells = append(cells, cell{vi: vi, li: li, tc: tc})
		}
	}

	// Split the worker budget: up to par cells in flight, each cell's
	// inner scheduler gets an equal share (at least 1). With J ≥ number
	// of cells the split goes wide across cells, which is where the memo
	// table's single-flight pays off; with J=1 the sweep degenerates to
	// the sequential loop, still memoized.
	cellPar := par
	if cellPar > len(cells) {
		cellPar = len(cells)
	}
	inner := par / cellPar
	if inner < 1 {
		inner = 1
	}

	baseCfg := core.Config{
		Iterations: opts.Iterations,
		Timeout:    opts.Timeout,
		Workers:    inner,
		Vet:        opts.Vet,
		Engine:     opts.Engine,
		FailFast:   opts.FailFast,
		Obs:        opts.Obs,
		Cache:      opts.Cache,
	}
	var (
		memo *core.MemoTable
		fps  *Fingerprinter
	)
	if !opts.NoMemo {
		memo = opts.Memo
		if memo == nil {
			memo = core.NewMemoTable()
		}
		fps = NewFingerprinter(ConfigSalt(baseCfg.WithDefaults()))
	}
	// Shared tables carry lifetime totals; report this run's share as the
	// delta so Result.MemoHits/Misses keep their per-sweep meaning.
	var memoHits0, memoMisses0 int64
	if memo != nil {
		memoHits0, memoMisses0 = memo.Stats()
	}

	start := time.Now()
	res := &Result{Vendor: vendor, Versions: versions, Langs: langs}
	res.Cells = make([][]*core.SuiteResult, len(versions))
	for vi := range versions {
		res.Cells[vi] = make([]*core.SuiteResult, len(langs))
	}

	jobs := make(chan cell, len(cells))
	for _, c := range cells {
		jobs <- c
	}
	close(jobs)

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for w := 0; w < cellPar; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range jobs {
				cfg := baseCfg
				cfg.Toolchain = c.tc
				if memo != nil {
					cfg.Memo = memo
					cfg.Fingerprint = fps.For(c.tc)
					cfg.Store = opts.Store
				}
				templates := TemplatesFor(opts.Family, langs[c.li])
				sr, err := core.RunSuiteContext(ctx, cfg, templates)
				mu.Lock()
				res.Cells[c.vi][c.li] = sr
				if err != nil && firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				if opts.Obs != nil && sr != nil {
					opts.Obs.SetGauge("accv_sweep_saved_runs", float64(sr.MemoHits),
						obs.L("compiler", vendor),
						obs.L("version", versions[c.vi]),
						obs.L("lang", langs[c.li].String()))
				}
			}
		}()
	}
	wg.Wait()

	res.Duration = time.Since(start)
	if memo != nil {
		hits, misses := memo.Stats()
		res.MemoHits, res.MemoMisses = hits-memoHits0, misses-memoMisses0
	}
	// Disk hits are per-cell suite telemetry (shared stores carry other
	// processes' traffic, so the cells — not the store's lifetime
	// counters — are this sweep's share).
	for vi := range res.Cells {
		for li := range res.Cells[vi] {
			if sr := res.Cells[vi][li]; sr != nil {
				res.StoreHits += int64(sr.StoreHits)
			}
		}
	}
	return res, firstErr
}

// TemplatesFor returns the template set one sweep cell runs — one
// family's slice, or the whole 1.0 registry for the language — in the
// order the cell's SuiteResult lists them. It is exported so
// internal/bench measures exactly the templates a sweep cell runs.
func TemplatesFor(family string, lang ast.Lang) []*core.Template {
	if family != "" {
		return core.ByFamily(family, lang)
	}
	return core.ByLang(lang)
}
