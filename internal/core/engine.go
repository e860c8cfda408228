// The parallel suite execution engine: a fixed worker pool fans the
// template list out across goroutines, each test runs with an isolated
// device/interpreter instance under a per-test context deadline, and
// results merge back deterministically — slot i of the result slice is
// template i, whatever order the workers finished in, so parallel and
// sequential runs of a deterministic template set render byte-identical
// reports. Cancellation is cooperative: canceling the caller's context
// (or the first failure, in fail-fast mode) aborts in-flight tests at
// their next interpreted-operation check and marks unstarted ones
// Canceled without running them.
package core

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"accv/internal/obs"
)

// RunSuite executes every template against the configured toolchain,
// fanning tests out over the worker pool. Results come back in template
// order. Invalid configs panic; use RunSuiteContext for an error return.
func RunSuite(cfg Config, templates []*Template) *SuiteResult {
	res, _ := runSuite(context.Background(), cfg.validated(), templates)
	return res
}

// RunSuiteContext is RunSuite under a caller context. It returns an
// error for invalid configs without running anything. Cancellation of
// ctx mid-run is not an error: the partial result is returned with the
// interrupted tests marked Canceled, and err carries ctx.Err() so
// callers can distinguish a completed run from an interrupted one.
// A fail-fast abort is requested behavior, not an error.
func RunSuiteContext(ctx context.Context, cfg Config, templates []*Template) (*SuiteResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return runSuite(ctx, cfg.withDefaults(), templates)
}

// runSuite is the scheduler. The config must be validated and defaulted.
func runSuite(ctx context.Context, cfg Config, templates []*Template) (*SuiteResult, error) {
	start := time.Now()
	results := make([]TestResult, len(templates))
	lang := suiteLang(templates)

	var suiteSpan *obs.Span
	if cfg.Obs != nil {
		suiteSpan = cfg.Obs.StartSpan("suite.run",
			obs.L("compiler", cfg.Toolchain.Name()),
			obs.L("version", cfg.Toolchain.Version()),
			obs.L("lang", langLabel(lang)),
			obs.L("tests", strconv.Itoa(len(templates))),
			obs.L("workers", strconv.Itoa(cfg.Workers)))
	}

	// runCtx is the cooperative cancellation scope: the caller's ctx plus
	// the fail-fast trigger. Every per-test deadline nests inside it.
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()

	// The queue holds every template index up front; queueDepth tracks
	// how many are enqueued but not yet claimed by a worker. depthMu
	// orders each decrement with its gauge update, so the last value
	// published is the final depth.
	jobs := make(chan int, len(templates))
	for i := range templates {
		jobs <- i
	}
	close(jobs)
	var depthMu sync.Mutex
	queueDepth := len(templates)

	workers := cfg.Workers
	if workers > len(templates) {
		workers = len(templates)
	}
	var memoHits, memoMisses, storeHits atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			workerLabel := obs.L("worker", strconv.Itoa(worker))
			for i := range jobs {
				depthMu.Lock()
				queueDepth--
				if cfg.Obs != nil {
					cfg.Obs.SetGauge("accv_suite_queue_depth", float64(queueDepth))
				}
				depthMu.Unlock()
				if cfg.Obs != nil {
					cfg.Obs.SetGauge("accv_suite_worker_busy", 1, workerLabel)
				}
				if runCtx.Err() != nil {
					// Canceled before this test started: record the
					// skip without spending a run on it.
					results[i] = skippedResult(cfg, templates[i])
				} else {
					var served int
					results[i], served = runMemoized(runCtx, cfg, templates[i], suiteSpan, worker)
					switch served {
					case memoHit:
						memoHits.Add(1)
						if cfg.Obs != nil {
							cfg.Obs.Add("accv_sweep_memo_hits_total", 1)
							// Keep the accv_tests_total ≡ suite-size
							// invariant: memoized tests still count, under
							// the outcome their reused result carries.
							cfg.Obs.Add("accv_tests_total", 1,
								obs.L("lang", templates[i].Lang.String()),
								obs.L("family", templates[i].Family),
								obs.L("outcome", results[i].Outcome.MetricLabel()))
						}
					case memoStoreHit:
						// Served from the persistent store: counted on
						// its own series (the store itself emits
						// accv_store_hits_total at load time), never as
						// a memo hit or miss — the three series stay
						// disjoint. The accv_tests_total ≡ suite-size
						// invariant still holds.
						storeHits.Add(1)
						if cfg.Obs != nil {
							cfg.Obs.Add("accv_tests_total", 1,
								obs.L("lang", templates[i].Lang.String()),
								obs.L("family", templates[i].Family),
								obs.L("outcome", results[i].Outcome.MetricLabel()))
						}
					case memoMiss:
						memoMisses.Add(1)
						if cfg.Obs != nil {
							cfg.Obs.Add("accv_sweep_memo_misses_total", 1)
						}
					}
				}
				if cfg.Obs != nil {
					cfg.Obs.SetGauge("accv_suite_worker_busy", 0, workerLabel)
				}
				if cfg.Progress != nil {
					cfg.Progress(results[i])
				}
				if cfg.FailFast && results[i].Outcome.Failed() && results[i].Outcome.Verdict() {
					cancelRun()
				}
			}
		}(w)
	}
	wg.Wait()

	res := &SuiteResult{
		Compiler:   cfg.Toolchain.Name(),
		Version:    cfg.Toolchain.Version(),
		Lang:       lang,
		Results:    results,
		Duration:   time.Since(start),
		MemoHits:   int(memoHits.Load()),
		MemoMisses: int(memoMisses.Load()),
		StoreHits:  int(storeHits.Load()),
	}
	if cfg.Obs != nil {
		suiteSpan.End()
		cfg.Obs.SetGauge("accv_suite_pass_rate", res.PassRate(),
			obs.L("compiler", res.Compiler),
			obs.L("version", res.Version),
			obs.L("lang", langLabel(lang)))
	}
	return res, ctx.Err()
}

// skippedResult records a test the cancellation reached before it
// started. It still counts in accv_tests_total (outcome canceled) so the
// metric sums to the suite size whatever happens.
func skippedResult(cfg Config, tpl *Template) TestResult {
	res := TestResult{
		Name: tpl.Name, Lang: tpl.Lang, Family: tpl.Family,
		Description: tpl.Description,
		Outcome:     Canceled,
		Detail:      "suite canceled before the test started",
	}
	if cfg.Obs != nil {
		cfg.Obs.Add("accv_tests_total", 1,
			obs.L("lang", tpl.Lang.String()),
			obs.L("family", tpl.Family),
			obs.L("outcome", res.Outcome.MetricLabel()))
	}
	return res
}
