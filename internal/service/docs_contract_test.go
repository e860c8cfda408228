// The docs contract test: docs/SERVICE.md is the normative API reference,
// so every routed endpoint, every error code, and every accvd flag must
// appear there — and every accvd_* metric series the daemon emits under a
// representative traffic mix must appear in docs/OBSERVABILITY.md, the
// telemetry contract the root obs_contract_test.go enforces for the
// engine's accv_* series.
package service

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"strings"
	"testing"
)

func TestServiceDocsContract(t *testing.T) {
	doc, err := os.ReadFile("../../docs/SERVICE.md")
	if err != nil {
		t.Fatalf("service API reference missing: %v", err)
	}
	ref := string(doc)

	for _, ep := range Endpoints() {
		if !strings.Contains(ref, "`"+ep+"`") {
			t.Errorf("endpoint %q routed but not documented in docs/SERVICE.md", ep)
		}
	}
	for _, code := range ErrorCodes() {
		if !strings.Contains(ref, "`"+code+"`") {
			t.Errorf("error code %q returned but not documented in docs/SERVICE.md", code)
		}
	}
	for _, name := range FlagNames() {
		if !strings.Contains(ref, "`-"+name+"`") {
			t.Errorf("flag -%s registered but not documented in docs/SERVICE.md", name)
		}
	}
}

// TestServiceTelemetryContract drives a traffic mix that touches every
// accvd_* series — served requests, admission refusals on both budgets,
// coalescing, cache evictions, a drain — then asserts every name and
// label key the daemon emitted is documented in docs/OBSERVABILITY.md.
func TestServiceTelemetryContract(t *testing.T) {
	doc, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatalf("telemetry contract missing: %v", err)
	}
	contract := string(doc)

	// CacheCap 1 forces evictions as soon as two distinct programs compile.
	s, ts := newTestServer(t, Config{CacheCap: 1, MaxClientInflight: 1})

	postJSON(t, ts.URL+"/v1/compile", CompileRequest{Source: figure1Source}, nil)
	postJSON(t, ts.URL+"/v1/compile",
		CompileRequest{Source: "int acc_test() { return 1; }"}, nil)
	postJSON(t, ts.URL+"/v1/run", RunRequest{Source: figure1Source}, nil)
	postJSON(t, ts.URL+"/v1/vet", VetRequest{Source: vetHazardSource}, nil)
	postJSON(t, ts.URL+"/v1/suite",
		SuiteRequest{Family: "wait", Iterations: 1}, nil)
	postJSON(t, ts.URL+"/v1/sweep",
		SweepRequest{Vendor: "pgi", Family: "wait", Iterations: 1}, nil)

	// A client-quota refusal and an op-budget refusal.
	release, err := s.adm.Admit("hog", 1)
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest("POST", ts.URL+"/v1/vet",
		strings.NewReader(`{"source":"int acc_test() { return 1; }"}`))
	req.Header.Set("X-Accvd-Client", "hog")
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
	release()

	// A drain refusal (the server keeps serving probes afterwards).
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if resp, err := http.Post(ts.URL+"/v1/compile", "application/json",
		strings.NewReader(`{"source":"x"}`)); err == nil {
		resp.Body.Close()
	}

	var buf strings.Builder
	s.syncCacheMetrics()
	if err := s.Observer().WriteMetricsJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters []struct {
			Name   string            `json:"name"`
			Labels map[string]string `json:"labels"`
			Value  int64             `json:"value"`
		} `json:"counters"`
		Gauges []struct {
			Name   string            `json:"name"`
			Labels map[string]string `json:"labels"`
		} `json:"gauges"`
		Histograms []struct {
			Name   string            `json:"name"`
			Labels map[string]string `json:"labels"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &snap); err != nil {
		t.Fatalf("metrics export is not valid JSON: %v", err)
	}

	check := func(name string, labels map[string]string) {
		if !strings.HasPrefix(name, "accvd_") && name != "accv_compile_cache_evictions_total" {
			return // engine series are the root obs contract test's job
		}
		if !strings.Contains(contract, "`"+name+"`") {
			t.Errorf("metric %q emitted but not documented in docs/OBSERVABILITY.md", name)
		}
		for k := range labels {
			if !strings.Contains(contract, "`"+k+"`") {
				t.Errorf("label %q of metric %q not documented", k, name)
			}
		}
	}
	emitted := map[string]bool{}
	for _, p := range snap.Counters {
		check(p.Name, p.Labels)
		if p.Value > 0 {
			emitted[p.Name] = true
		}
	}
	for _, p := range snap.Gauges {
		check(p.Name, p.Labels)
		emitted[p.Name] = true
	}
	for _, p := range snap.Histograms {
		check(p.Name, p.Labels)
		emitted[p.Name] = true
	}

	// Every documented accvd series must actually have fired under the
	// mix above — the anti-vacuity direction of the contract.
	for _, want := range []string{
		"accvd_requests_total",
		"accvd_request_duration_seconds",
		"accvd_inflight_requests",
		"accvd_admission_rejections_total",
		"accvd_draining",
		"accv_compile_cache_evictions_total",
	} {
		if !emitted[want] {
			t.Errorf("series %q never emitted during the contract traffic mix", want)
		}
	}
}
