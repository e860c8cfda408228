package accv_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"accv"
)

// TestTelemetryContract enforces the documentation-first telemetry
// contract: docs/OBSERVABILITY.md specifies every span and metric name
// before the code lands, so every name the pipeline emits at runtime must
// appear there. It drives a real suite run and a real harness screening
// with one shared observer, then cross-checks the exports against the
// document.
func TestTelemetryContract(t *testing.T) {
	doc, err := os.ReadFile("docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatalf("telemetry contract missing: %v", err)
	}
	contract := string(doc)

	o := accv.NewObserver()

	// A suite run with cross tests and async/data traffic.
	pgi, err := accv.NewCompiler("pgi", "13.2")
	if err != nil {
		t.Fatal(err)
	}
	suite, err := accv.NewRunner(accv.C, accv.WithIterations(2), accv.WithObs(o), accv.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	suite.Run(pgi)

	// A memoized sweep over a small family: drives the sweep memo counters
	// and the per-cell saved-runs gauge.
	if _, err := accv.RunSweep(context.Background(), "pgi",
		accv.WithFamily("data"), accv.WithObs(o)); err != nil {
		t.Fatal(err)
	}

	// A store-backed sweep pair over a fresh directory: the cold pass
	// drives accv_store_misses_total (and the entries gauge), the warm
	// pass — through a fresh handle, as a restarted process would —
	// drives accv_store_hits_total.
	dir := t.TempDir()
	for i := 0; i < 2; i++ {
		st, err := accv.OpenStore(dir, accv.WithObs(o))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := accv.RunSweep(context.Background(), "pgi",
			accv.WithFamily("data"), accv.WithObs(o), accv.WithResultStore(st)); err != nil {
			t.Fatal(err)
		}
	}

	// A suite run under the default engine: drives the batched-nest
	// counter and — via the corpus's racy cross variants and unproven
	// nests — the per-reason fallback counter.
	vmRunner, err := accv.NewRunner(accv.C, accv.WithIterations(1), accv.WithObs(o))
	if err != nil {
		t.Fatal(err)
	}
	vmRunner.Run(accv.Reference())

	// A harness screening epoch plus a degradation query.
	h := accv.NewHarness(2, accv.DefaultStacks()[:1])
	h.Obs = o
	if err := h.InjectFault(1, accv.BadMemory); err != nil {
		t.Fatal(err)
	}
	if _, err := h.ScreenRandomNodes(2, 7); err != nil {
		t.Fatal(err)
	}
	h.DetectDegraded(5)

	// Metrics: valid JSON, every name and label key documented.
	var buf bytes.Buffer
	if err := o.WriteMetricsJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap accv.MetricsSnapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("metrics export is not valid JSON: %v", err)
	}
	if len(snap.Counters) == 0 || len(snap.Gauges) == 0 || len(snap.Histograms) == 0 {
		t.Fatalf("export unexpectedly sparse: %d counters, %d gauges, %d histograms",
			len(snap.Counters), len(snap.Gauges), len(snap.Histograms))
	}
	checkPoint := func(name string, labels map[string]string) {
		if !strings.Contains(contract, "`"+name+"`") {
			t.Errorf("metric %q emitted but not documented in docs/OBSERVABILITY.md", name)
		}
		for k := range labels {
			if !strings.Contains(contract, "`"+k+"`") {
				t.Errorf("label %q of metric %q not documented", k, name)
			}
		}
	}
	for _, p := range snap.Counters {
		checkPoint(p.Name, p.Labels)
	}
	for _, p := range snap.Gauges {
		checkPoint(p.Name, p.Labels)
	}
	for _, hp := range snap.Histograms {
		checkPoint(hp.Name, hp.Labels)
	}

	// The key hot-path series must actually have fired.
	for _, want := range []string{
		"accv_tests_total", "accv_runs_total", "accv_interp_ops_total",
		"accv_device_kernels_total", "accv_device_bytes_total",
		"accv_present_lookups_total", "accv_queue_waits_total",
		"accv_harness_screenings_total", "accv_compile_cache_misses_total",
		"accv_sweep_memo_hits_total", "accv_sweep_memo_misses_total",
		"accv_store_hits_total", "accv_store_misses_total",
		"accv_spmd_batched_nests_total", "accv_spmd_fallback_nests_total",
	} {
		found := false
		for _, p := range snap.Counters {
			if p.Name == want && p.Value > 0 {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("counter %q never incremented during the contract run", want)
		}
	}

	// The sweep must have published the per-cell saved-runs gauge with a
	// nonzero value somewhere (the data family shares heavily across
	// adjacent pgi releases).
	savedSomewhere := false
	for _, p := range snap.Gauges {
		if p.Name == "accv_sweep_saved_runs" && p.Value > 0 {
			savedSomewhere = true
			break
		}
	}
	if !savedSomewhere {
		t.Error("gauge accv_sweep_saved_runs never rose above zero during the sweep")
	}

	// Trace: valid JSON, every span name documented.
	buf.Reset()
	if err := o.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		Spans []struct {
			Name   string            `json:"name"`
			Labels map[string]string `json:"labels"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	if len(trace.Spans) == 0 {
		t.Fatal("no spans recorded")
	}
	spanNames := map[string]bool{}
	for _, s := range trace.Spans {
		spanNames[s.Name] = true
		if !strings.Contains(contract, "`"+s.Name+"`") {
			t.Errorf("span %q emitted but not documented in docs/OBSERVABILITY.md", s.Name)
		}
		for k := range s.Labels {
			if !strings.Contains(contract, "`"+k+"`") {
				t.Errorf("label %q of span %q not documented", k, s.Name)
			}
		}
	}
	for _, want := range []string{"suite.run", "test.run", "harness.screen"} {
		if !spanNames[want] {
			t.Errorf("span %q never emitted during the contract run", want)
		}
	}

	// Prometheus text export renders without error and types every family.
	buf.Reset()
	if err := o.WriteMetricsText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "# TYPE accv_tests_total counter") {
		t.Error("prometheus export missing TYPE line for accv_tests_total")
	}
}
