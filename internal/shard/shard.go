// Package shard is the sharded sweep coordinator: it partitions the
// cross-version (version × lang × template) grid of a sweep into work
// units, dispatches them to N workers — in-process executors, forked
// `accval shard-worker` subprocesses speaking JSON over stdio, or remote
// accvd instances via POST /v1/shard/run — and merges the unit results
// back into a sweep.Result whose rendered Table I / Fig. 8 / CSV output
// is byte-identical to the single-process sweep.
//
// Workers share one persistent result store directory (Spec.StoreDir;
// internal/store's flock'd atomic writers make that safe), so the
// memo/store dedup applies across worker processes: a unit one worker
// already executed is a disk hit for every other worker, and a warm
// store re-runs the whole sweep without executing a single test.
//
// The coordinator owns the unhappy paths: a per-unit deadline, bounded
// re-dispatch of failed units, re-queue plus worker respawn when a
// worker process dies mid-unit, and speculative re-splitting of the
// slowest in-flight unit onto idle workers (work stealing). The merge is
// deterministic and order-independent — results land in template-index
// slots, first write wins — so duplicated speculative work is discarded
// harmlessly. See docs/PERFORMANCE.md, "Sharded sweeps".
package shard

import (
	"fmt"
	"time"

	"accv/internal/ast"
	"accv/internal/core"
)

// Unit is one schedulable slice of the sweep grid: a contiguous template
// range [From, To) of one (vendor, version, lang) cell. The default unit
// is the whole cell (From 0, To = cell size); the coordinator re-splits
// units for straggler mitigation. Seq identifies one dispatch — a stolen
// half-range is a new Unit with a new Seq over the same slots.
type Unit struct {
	Seq     int    `json:"seq"`
	Vendor  string `json:"vendor"`
	Version string `json:"version"`
	Lang    string `json:"lang"` // "c" | "fortran"
	From    int    `json:"from"`
	To      int    `json:"to"`
}

func (u Unit) String() string {
	return fmt.Sprintf("%s-%s-%s[%d:%d)", u.Vendor, u.Version, u.Lang, u.From, u.To)
}

// rangeKey identifies the slot range a unit covers, independent of the
// dispatch Seq — the retry budget is per range, not per dispatch.
func (u Unit) rangeKey() string {
	return fmt.Sprintf("%s/%s/%s/%d/%d", u.Vendor, u.Version, u.Lang, u.From, u.To)
}

// Spec is the run-shaping configuration every worker must apply
// identically — the sweep.Options fields minus the grid itself. Two
// workers given the same Spec produce interchangeable results for the
// same unit, and (because fingerprints are salted with exactly these
// fields, not with Parallelism) store entries interchangeable with an
// unsharded `accval sweep` under the same flags.
type Spec struct {
	Family         string `json:"family,omitempty"`
	Iterations     int    `json:"iterations,omitempty"`
	TimeoutMS      int64  `json:"timeout_ms,omitempty"`
	Vet            string `json:"vet,omitempty"`    // "on" | "warn" | "off"
	Engine         string `json:"engine,omitempty"` // "vm" | "tree"
	RetryAttempts  int    `json:"retry_attempts,omitempty"`
	RetryBackoffMS int64  `json:"retry_backoff_ms,omitempty"`
	FailFast       bool   `json:"fail_fast,omitempty"`
	// Parallelism is the worker's inner core-scheduler width per unit
	// (0: 1). It is deliberately absent from the fingerprint salt, so
	// sharded and unsharded sweeps share one store soundly.
	Parallelism int `json:"parallelism,omitempty"`
	// NoMemo disables fingerprint memoization inside the worker (the
	// differential-testing baseline).
	NoMemo bool `json:"no_memo,omitempty"`
	// StoreDir, when non-empty, is the shared persistent result store
	// every worker warms from and writes through (docs/STORE.md). The
	// accvd shard endpoint ignores it in favor of the daemon's own
	// -store configuration.
	StoreDir string `json:"store_dir,omitempty"`
	StoreCap int    `json:"store_cap,omitempty"`
}

// UnitResult is one completed unit: the per-template results for the
// unit's slots, in slot order, plus the worker-local memo telemetry.
type UnitResult struct {
	Unit       Unit              `json:"unit"`
	Compiler   string            `json:"compiler"`
	Version    string            `json:"version"`
	Results    []core.TestResult `json:"results"`
	MemoHits   int               `json:"memo_hits"`
	MemoMisses int               `json:"memo_misses"`
	StoreHits  int               `json:"store_hits"`
	DurationMS int64             `json:"duration_ms"`
}

// RunRequest is the wire form of one unit dispatch — the stdio worker
// protocol and the accvd POST /v1/shard/run endpoint both speak it.
type RunRequest struct {
	Unit Unit `json:"unit"`
	Spec Spec `json:"spec"`
}

// ParseLang maps a wire language name onto the AST language.
func ParseLang(s string) (ast.Lang, error) {
	switch s {
	case "c", "":
		return ast.LangC, nil
	case "fortran", "f":
		return ast.LangFortran, nil
	}
	return ast.LangC, fmt.Errorf("unknown lang %q (want c or fortran)", s)
}

func msDuration(ms int64) time.Duration { return time.Duration(ms) * time.Millisecond }
