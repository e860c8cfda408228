package accv_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"accv"
)

// counterValue sums a counter's exported points across label sets.
func counterValue(t *testing.T, o *accv.Observer, name string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := o.WriteMetricsJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap accv.MetricsSnapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, p := range snap.Counters {
		if p.Name == name {
			total += p.Value
		}
	}
	return total
}

// TestWarmStoreSweepExecutesNothing pins the store's warm path for every
// vendor: a second sweep against a warm store — fresh process state,
// fresh memo table, a different worker width — performs zero redundant
// executions, and the disk hits that replaced them are accounted
// disjointly from the memo counters. The cold sweep runs sequentially and
// the warm one 16 wide — eight cells in flight, two workers each — so
// worker width must not be part of a store key.
func TestWarmStoreSweepExecutesNothing(t *testing.T) {
	for _, vendor := range []string{"caps", "pgi", "cray"} {
		t.Run(vendor, func(t *testing.T) { warmStoreSweepExecutesNothing(t, vendor) })
	}
}

func warmStoreSweepExecutesNothing(t *testing.T, vendor string) {
	dir := t.TempDir()
	ctx := context.Background()
	sweepOpts := func(st *accv.ResultStore, o *accv.Observer, workers int) []accv.Option {
		return []accv.Option{
			accv.WithFamily("data"), accv.WithIterations(1),
			accv.WithObs(o), accv.WithResultStore(st), accv.WithParallelism(workers),
		}
	}

	cold := accv.NewObserver()
	st, err := accv.OpenStore(dir, accv.WithObs(cold))
	if err != nil {
		t.Fatal(err)
	}
	first, err := accv.RunSweep(ctx, vendor, sweepOpts(st, cold, 1)...)
	if err != nil {
		t.Fatal(err)
	}
	if first.MemoMisses == 0 {
		t.Fatal("cold sweep executed nothing; the pin below would be vacuous")
	}
	if first.StoreHits != 0 {
		t.Errorf("cold sweep against an empty store reported %d disk hits", first.StoreHits)
	}
	if got := counterValue(t, cold, "accv_store_misses_total"); got == 0 {
		t.Error("cold sweep emitted no accv_store_misses_total")
	}

	// Fresh handle over the same directory = a new process.
	warmObs := accv.NewObserver()
	st2, err := accv.OpenStore(dir, accv.WithObs(warmObs))
	if err != nil {
		t.Fatal(err)
	}
	second, err := accv.RunSweep(ctx, vendor, sweepOpts(st2, warmObs, 16)...)
	if err != nil {
		t.Fatal(err)
	}
	if second.MemoMisses != 0 {
		t.Errorf("warm sweep executed %d tests, want 0", second.MemoMisses)
	}
	if second.StoreHits == 0 {
		t.Error("warm sweep reported no disk hits")
	}

	// Disjoint accounting (docs/OBSERVABILITY.md): disk hits are
	// accv_store_hits_total only — the warm sweep emitted zero memo
	// misses, and its memo hits are deduplication within the sweep, not
	// re-labeled disk traffic.
	if got := counterValue(t, warmObs, "accv_sweep_memo_misses_total"); got != 0 {
		t.Errorf("warm sweep emitted accv_sweep_memo_misses_total = %v, want 0", got)
	}
	storeHits := counterValue(t, warmObs, "accv_store_hits_total")
	if storeHits != float64(second.StoreHits) {
		t.Errorf("accv_store_hits_total = %v, SweepResult.StoreHits = %d (must agree)",
			storeHits, second.StoreHits)
	}
	if got := counterValue(t, warmObs, "accv_sweep_memo_hits_total"); got != float64(second.MemoHits) {
		t.Errorf("accv_sweep_memo_hits_total = %v, SweepResult.MemoHits = %d (must agree)",
			got, second.MemoHits)
	}

	// Both sweeps agree on every cell verdict.
	for vi := range first.Cells {
		for li := range first.Cells[vi] {
			a, b := first.Cells[vi][li], second.Cells[vi][li]
			if a.Passed() != b.Passed() || a.Failed() != b.Failed() || a.Total() != b.Total() {
				t.Errorf("cell [%d][%d] verdicts differ between cold and warm sweeps", vi, li)
			}
		}
	}
}
