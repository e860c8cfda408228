// The sweep memo table: cross-suite memoization of whole TestResults by
// behavioral fingerprint. The sweep engine (internal/sweep) computes, per
// (template, toolchain version), a fingerprint of every input that shapes
// the test's behavior — see docs/PERFORMANCE.md, "The cross-version sweep
// memo" — and suites sharing one MemoTable execute each distinct
// fingerprint once. Entries are single-flight: the first worker to claim a
// fingerprint runs the test while concurrent claimants wait on it, so two
// sweep cells never duplicate the same execution.
package core

import (
	"context"
	"sync"
	"sync/atomic"

	"accv/internal/analysis"
	"accv/internal/obs"
)

// ResultStore is the memo table's persistence hook: a durable
// content-addressed store of TestResults keyed by behavioral fingerprint
// (internal/store implements it on disk). Load returns the stored result
// for a fingerprint, if any; Save persists one. Both must be safe for
// concurrent use; Save is fire-and-forget (the engine never blocks a
// verdict on persistence errors).
type ResultStore interface {
	Load(fp string) (TestResult, bool)
	Save(fp string, res TestResult)
}

// MemoTable is a shared, concurrency-safe result store keyed by
// behavioral fingerprint. The zero value is not usable; call NewMemoTable.
type MemoTable struct {
	mu sync.Mutex
	m  map[string]*memoEntry

	hits   atomic.Int64
	misses atomic.Int64
}

type memoEntry struct {
	done chan struct{} // closed when the leader finishes
	res  TestResult
	ok   bool // false: leader's result was not memoizable (canceled)
}

// NewMemoTable returns an empty memo table. A table is scoped to one
// logical sweep environment: callers that vary inputs the fingerprint
// cannot see (e.g. harness fault injection mutating hooks post-compile)
// must use separate tables per environment.
func NewMemoTable() *MemoTable {
	return &MemoTable{m: map[string]*memoEntry{}}
}

// Stats returns the cumulative hit/miss counts. A hit is a TestResult
// served from the table (an execution saved); a miss is an execution that
// populated it.
func (t *MemoTable) Stats() (hits, misses int64) {
	return t.hits.Load(), t.misses.Load()
}

// Len returns the number of completed entries (for tests).
func (t *MemoTable) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// cloneResult deep-copies the slices a TestResult carries so a memoized
// result handed to one sweep cell can never alias another cell's copy.
func cloneResult(res TestResult) TestResult {
	if res.BugIDs != nil {
		res.BugIDs = append([]string(nil), res.BugIDs...)
	}
	if res.Findings != nil {
		res.Findings = append([]analysis.Finding(nil), res.Findings...)
	}
	return res
}

// memoOutcome classifies how a test was served for the suite counters.
// The classes are disjoint by construction — a result is served exactly
// one way — which is what keeps accv_sweep_memo_{hits,misses}_total and
// accv_store_hits_total disjoint series (docs/OBSERVABILITY.md).
const (
	memoOff      = iota // memoization not configured or template opted out
	memoMiss            // executed and stored (or executed after a failed lead)
	memoHit             // served from the in-memory table
	memoStoreHit        // served from the persistent result store (disk)
)

// runMemoized wraps runTest with the memo table and its optional
// persistent backing store. A leader first consults cfg.Store — a disk
// hit publishes into the in-memory table (so later claimants are memo
// hits) without counting as a memo hit or miss itself — then executes on
// a true miss and writes the verdict through. Canceled results are never
// stored — a canceled leader deletes its entry so a later claimant
// re-runs the test instead of inheriting the cancellation.
func runMemoized(ctx context.Context, cfg Config, tpl *Template, parent *obs.Span, worker int) (TestResult, int) {
	if cfg.Memo == nil || cfg.Fingerprint == nil {
		return runTest(ctx, cfg, tpl, parent, worker), memoOff
	}
	fp, ok := cfg.Fingerprint(tpl)
	if !ok {
		return runTest(ctx, cfg, tpl, parent, worker), memoOff
	}
	t := cfg.Memo
	for {
		t.mu.Lock()
		e := t.m[fp]
		if e == nil {
			// Leader: serve from disk if possible, else run the test;
			// either way publish and wake the waiters.
			e = &memoEntry{done: make(chan struct{})}
			t.m[fp] = e
			t.mu.Unlock()
			if cfg.Store != nil {
				if res, ok := cfg.Store.Load(fp); ok && res.Outcome != Canceled {
					e.res = cloneResult(res)
					e.ok = true
					close(e.done)
					return res, memoStoreHit
				}
			}
			res := runTest(ctx, cfg, tpl, parent, worker)
			if res.Outcome != Canceled {
				e.res = cloneResult(res)
				e.ok = true
				if cfg.Store != nil {
					cfg.Store.Save(fp, e.res)
				}
			}
			if !e.ok {
				t.mu.Lock()
				delete(t.m, fp)
				t.mu.Unlock()
			}
			close(e.done)
			t.misses.Add(1)
			return res, memoMiss
		}
		t.mu.Unlock()
		select {
		case <-e.done:
			if e.ok {
				t.hits.Add(1)
				return cloneResult(e.res), memoHit
			}
			// The leader was canceled and withdrew the entry; retry —
			// either this worker becomes the new leader or a healthier
			// one already did.
			continue
		case <-ctx.Done():
			return skippedResult(cfg, tpl), memoOff
		}
	}
}
