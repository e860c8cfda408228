// The cross-version sweep facade: RunSweep drives internal/sweep, the
// memoized engine behind accval sweep and the Fig. 8 / Table I
// reproductions. See docs/PERFORMANCE.md, "The cross-version sweep memo".
package accv

import (
	"context"

	"accv/internal/sweep"
)

// SweepResult is a completed cross-version sweep: one SuiteResult per
// (version × lang) cell in deterministic order, plus memo telemetry.
type SweepResult = sweep.Result

// RunSweep validates every simulated release of a vendor family ("caps",
// "pgi", "cray") across the selected languages, memoizing execution by
// behavioral fingerprint so a test whose compiled behavior is unchanged
// between two releases executes once. Reports rendered from the cells are
// byte-identical to a naive per-version loop.
//
// The options share the Runner vocabulary — WithLangs, WithFamily,
// WithIterations, WithParallelism (the total worker budget across cells),
// WithTimeout, WithVet, WithEngine, WithObs, WithCompileCache,
// WithSweepMemo and WithResultStore. Canceling ctx returns the partial
// result with interrupted tests marked Canceled, together with ctx's
// error.
func RunSweep(ctx context.Context, vendor string, opts ...Option) (*SweepResult, error) {
	o := gather(opts)
	return sweep.Run(ctx, vendor, sweep.Options{
		Langs:       o.langs,
		Family:      o.family,
		Parallelism: o.parallelism,
		Iterations:  o.iterations,
		Timeout:     o.timeout,
		Vet:         o.vet,
		Engine:      o.engine,
		FailFast:    o.failFast,
		Obs:         o.obs,
		Cache:       o.cache,
		Memo:        o.memo,
		Store:       o.store,
	})
}
