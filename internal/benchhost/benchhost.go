// Package benchhost records the measuring host's parallel capability for
// the BENCH_*.json writers, and makes the limits honest: every record
// carries host_cores and gomaxprocs, and a parallel measurement that the
// scheduler width cannot actually exercise says so in the test log
// instead of publishing a silently serialized number.
package benchhost

import "runtime"

// Cores is the host's logical CPU count — the ceiling any multi-process
// measurement (re-exec'd store writers) can use.
func Cores() int { return runtime.NumCPU() }

// Procs is this process's scheduler width — the ceiling any in-process
// parallel measurement can use, regardless of how many workers it asks
// for.
func Procs() int { return runtime.GOMAXPROCS(0) }

// Logger is the subset of testing.TB the limit report needs (so both
// tests and benchmarks can call LogIfLimited).
type Logger interface {
	Logf(format string, args ...any)
}

// LogIfLimited reports when a measurement fanning work across width
// workers cannot actually run them in parallel on this host: either the
// process scheduler width (GOMAXPROCS) or the physical core count is
// below the requested width. It returns true when the measurement is
// limited, so callers can also gate speedup-floor assertions on a host
// that can physically express the speedup.
func LogIfLimited(t Logger, width int) bool {
	limited := false
	if p := Procs(); p < width {
		t.Logf("benchhost: GOMAXPROCS=%d < %d workers — this measurement serializes in-process parallelism and understates speedup", p, width)
		limited = true
	}
	if c := Cores(); c < width {
		t.Logf("benchhost: host has %d cores < %d workers — wall-clock speedup is bounded by the hardware, not the implementation", c, width)
		limited = true
	}
	return limited
}
