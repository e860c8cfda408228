// The unit executor: the worker-side half of the shard protocol. It
// replicates exactly the per-cell configuration internal/sweep.Run
// builds — same core.Config, same ConfigSalt, same Fingerprinter — so a
// unit executed here is indistinguishable (results and store entries
// alike) from the same templates executed by an unsharded sweep.
package shard

import (
	"context"
	"fmt"
	"sync"
	"time"

	"accv/internal/compiler"
	"accv/internal/core"
	"accv/internal/interp"
	"accv/internal/obs"
	"accv/internal/store"
	"accv/internal/sweep"
	"accv/internal/vendors"
)

// ExecOptions configures an Executor. The zero value executes units with
// a private compile cache and a private memo table, opening the store
// directory each Spec names.
type ExecOptions struct {
	// Obs receives the executor's suite telemetry (accv_tests_total and
	// friends); nil runs unobserved.
	Obs *obs.Observer
	// Cache, when non-nil, is the shared compiled-program cache (the
	// accvd service passes its own); nil gets a fresh executor-wide one.
	Cache *compiler.Cache
	// Memo, when non-nil, is the shared single-flight memo table; nil
	// gets a fresh executor-wide one. Fingerprints are salted with the
	// effective run configuration, so one table serves heterogeneous
	// Specs safely.
	Memo *core.MemoTable
	// Store, when non-nil, is the fixed persistent result store backing
	// every unit, and Spec.StoreDir is ignored — the accvd service pins
	// its own -store this way so remote clients cannot point the daemon
	// at arbitrary directories.
	Store core.ResultStore
}

// Executor runs shard units in-process. One Executor per worker process
// (or per daemon): its compile cache, memo table, fingerprinters, and
// opened stores are shared across every unit it runs. Safe for
// concurrent use.
type Executor struct {
	opt   ExecOptions
	cache *compiler.Cache
	memo  *core.MemoTable

	mu     sync.Mutex
	fps    map[string]*sweep.Fingerprinter // per config salt
	stores map[string]*store.Store         // per opened StoreDir
}

// NewExecutor builds an executor over the given shared state.
func NewExecutor(opt ExecOptions) *Executor {
	e := &Executor{
		opt:    opt,
		cache:  opt.Cache,
		memo:   opt.Memo,
		fps:    map[string]*sweep.Fingerprinter{},
		stores: map[string]*store.Store{},
	}
	if e.cache == nil {
		e.cache = compiler.NewCache()
	}
	if e.memo == nil {
		e.memo = core.NewMemoTable()
	}
	return e
}

// Run executes one unit under its spec and returns the per-slot results.
// Context cancellation (the coordinator's per-unit deadline, a canceled
// request) returns an error — a unit is completed wholesale or not at
// all, so the coordinator can re-dispatch it without partial-merge
// bookkeeping.
func (e *Executor) Run(ctx context.Context, u Unit, spec Spec) (*UnitResult, error) {
	cfg, templates, err := e.config(u, spec)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	sr, err := core.RunSuiteContext(ctx, cfg, templates)
	if err != nil {
		return nil, fmt.Errorf("shard: unit %s: %w", u, err)
	}
	return &UnitResult{
		Unit:       u,
		Compiler:   sr.Compiler,
		Version:    sr.Version,
		Results:    sr.Results,
		MemoHits:   sr.MemoHits,
		MemoMisses: sr.MemoMisses,
		StoreHits:  sr.StoreHits,
		DurationMS: time.Since(start).Milliseconds(),
	}, nil
}

// config maps (unit, spec) onto the exact core.Config sweep.Run would
// give the unit's cell, plus the unit's template slice.
func (e *Executor) config(u Unit, spec Spec) (core.Config, []*core.Template, error) {
	lang, err := ParseLang(u.Lang)
	if err != nil {
		return core.Config{}, nil, err
	}
	vet, err := core.ParseVetPolicy(spec.Vet)
	if err != nil {
		return core.Config{}, nil, err
	}
	engine, err := interp.ParseEngine(spec.Engine)
	if err != nil {
		return core.Config{}, nil, err
	}
	tc, err := vendors.New(u.Vendor, u.Version)
	if err != nil {
		return core.Config{}, nil, err
	}
	if vet == core.VetOff {
		if vc, ok := tc.(compiler.VetConfigurable); ok {
			vc.SetVet(compiler.VetOff)
		}
	}
	templates := sweep.TemplatesFor(spec.Family, lang)
	from, to := u.From, u.To
	if to == 0 || to > len(templates) {
		to = len(templates)
	}
	if from < 0 || from > to {
		return core.Config{}, nil, fmt.Errorf("shard: unit %s: range outside the %d-template cell", u, len(templates))
	}

	inner := spec.Parallelism
	if inner < 1 {
		inner = 1
	}
	cfg := core.Config{
		Toolchain:  tc,
		Iterations: spec.Iterations,
		Timeout:    msDuration(spec.TimeoutMS),
		Workers:    inner,
		Vet:        vet,
		Engine:     engine,
		FailFast:   spec.FailFast,
		Obs:        e.opt.Obs,
		Cache:      e.cache,
	}
	if spec.RetryAttempts > 0 {
		cfg.Retry = core.RetryPolicy{
			Attempts: spec.RetryAttempts,
			Backoff:  msDuration(spec.RetryBackoffMS),
		}
	}
	if !spec.NoMemo {
		cfg.Memo = e.memo
		fps, err := e.fingerprinter(cfg)
		if err != nil {
			return core.Config{}, nil, err
		}
		cfg.Fingerprint = fps.For(tc)
		st, err := e.store(spec)
		if err != nil {
			return core.Config{}, nil, err
		}
		cfg.Store = st
	}
	return cfg, templates[from:to], nil
}

// fingerprinter returns the executor's shared fingerprinter for one
// config salt — sharing the pristine-compile cache across every unit and
// version of the same run shape, exactly as one sweep.Run invocation
// shares it across its cells.
func (e *Executor) fingerprinter(cfg core.Config) (*sweep.Fingerprinter, error) {
	base := cfg
	base.Toolchain = nil // the salt must not depend on the unit's version
	salt := sweep.ConfigSalt(base.WithDefaults())
	e.mu.Lock()
	defer e.mu.Unlock()
	f := e.fps[salt]
	if f == nil {
		f = sweep.NewFingerprinter(salt)
		e.fps[salt] = f
	}
	return f, nil
}

// store resolves the unit's persistent result store: the pinned
// ExecOptions.Store when configured, else the (cached) handle for
// Spec.StoreDir, else nil.
func (e *Executor) store(spec Spec) (core.ResultStore, error) {
	if e.opt.Store != nil {
		return e.opt.Store, nil
	}
	if spec.StoreDir == "" {
		return nil, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if s := e.stores[spec.StoreDir]; s != nil {
		return s, nil
	}
	s, err := store.Open(spec.StoreDir, store.Options{MaxEntries: spec.StoreCap, Obs: e.opt.Obs})
	if err != nil {
		return nil, err
	}
	e.stores[spec.StoreDir] = s
	return s, nil
}
