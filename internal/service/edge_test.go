// Edge-case tests pinning the operational contracts docs/SERVICE.md
// documents: quota refusals are 429 with Retry-After, in-flight requests
// survive a graceful drain while new ones are refused, malformed JSON
// yields structured 400s, and canceled clients give their admission
// slots back.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// decodeErrorEnvelope asserts resp carries the structured error body and
// returns its code.
func decodeErrorEnvelope(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var env errorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("response is not the error envelope: %v", err)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("error envelope missing code or message: %+v", env)
	}
	return env.Error.Code
}

// TestQuotaExhaustion429 pins the client-quota refusal: with the quota
// held, the same client's next request is 429 + Retry-After with code
// quota_exhausted, and succeeds again once a slot frees.
func TestQuotaExhaustion429(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxClientInflight: 1})

	release, err := s.adm.Admit("tenant-a", 1)
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest("POST", ts.URL+"/v1/compile",
		strings.NewReader(`{"source":"int acc_test() { return 1; }"}`))
	req.Header.Set("X-Accvd-Client", "tenant-a")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	if code := decodeErrorEnvelope(t, resp); code != codeQuotaExhausted {
		t.Errorf("error code = %q, want %q", code, codeQuotaExhausted)
	}

	// Another client is unaffected by tenant-a's quota.
	req2, _ := http.NewRequest("POST", ts.URL+"/v1/compile",
		strings.NewReader(`{"source":"int acc_test() { return 1; }"}`))
	req2.Header.Set("X-Accvd-Client", "tenant-b")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("other client's status = %d, want 200", resp2.StatusCode)
	}

	release()
	req3, _ := http.NewRequest("POST", ts.URL+"/v1/compile",
		strings.NewReader(`{"source":"int acc_test() { return 1; }"}`))
	req3.Header.Set("X-Accvd-Client", "tenant-a")
	resp4, err := http.DefaultClient.Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	resp4.Body.Close()
	if resp4.StatusCode != http.StatusOK {
		t.Errorf("after release, status = %d, want 200", resp4.StatusCode)
	}
	if v := metricValue(t, ts, "accvd_admission_rejections_total"); v < 1 {
		t.Errorf("accvd_admission_rejections_total = %v, want >= 1", v)
	}
}

// TestOpBudget429 pins the aggregate op-budget refusal path.
func TestOpBudget429(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflightOps: 100})
	release, err := s.adm.Admit("holder", 90)
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	// Any run charges at least the default 16M-op budget — far past the
	// 10 ops remaining — so a different client is refused on ops, not quota.
	resp := postJSON(t, ts.URL+"/v1/run", RunRequest{Source: figure1Source}, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
}

// TestMalformedJSON400 pins that every body-taking endpoint turns bad
// bodies into structured 400s with code bad_request.
func TestMalformedJSON400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	paths := []string{"/v1/compile", "/v1/run", "/v1/vet", "/v1/suite", "/v1/suite/stream", "/v1/sweep"}
	bodies := map[string]string{
		"truncated":     `{"source":`,
		"unknown_field": `{"definitely_not_a_field": 1}`,
		"trailing_data": `{} {"second": "value"}`,
		"wrong_type":    `{"source": 12}`,
	}
	for _, path := range paths {
		for name, body := range bodies {
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %s: status = %d, want 400", path, name, resp.StatusCode)
				resp.Body.Close()
				continue
			}
			if code := decodeErrorEnvelope(t, resp); code != codeBadRequest {
				t.Errorf("%s %s: error code = %q, want %q", path, name, code, codeBadRequest)
			}
		}
	}
}

// TestDrainRefusesNewWork pins the drain gate at the mechanism level:
// with one request still in flight, Drain blocks, new work is refused
// with 503 (code draining), /healthz flips to 503, and /metrics stays
// live; Drain returns once the straggler leaves.
func TestDrainRefusesNewWork(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if !s.enter() { // simulate one in-flight work request
		t.Fatal("enter refused before drain")
	}

	drainErr := make(chan error, 1)
	go func() { drainErr <- s.Drain(context.Background()) }()
	waitFor(t, "drain mode", func() bool { return s.Draining() })

	resp, err := http.Post(ts.URL+"/v1/compile", "application/json",
		strings.NewReader(`{"source":"int acc_test() { return 1; }"}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("work during drain: status = %d, want 503", resp.StatusCode)
	}
	if code := decodeErrorEnvelope(t, resp); code != codeDraining {
		t.Errorf("error code = %q, want %q", code, codeDraining)
	}

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(hz.Body)
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable || !bytes.Contains(raw, []byte(`"draining":true`)) {
		t.Errorf("healthz during drain = %d %s, want 503 with draining:true", hz.StatusCode, raw)
	}

	mt, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mt.Body.Close()
	if mt.StatusCode != http.StatusOK {
		t.Errorf("metrics during drain: status = %d, want 200 (operators watch the drain)", mt.StatusCode)
	}
	if v := metricValue(t, ts, "accvd_draining"); v != 1 {
		t.Errorf("accvd_draining = %v during drain, want 1", v)
	}

	select {
	case err := <-drainErr:
		t.Fatalf("Drain returned %v with a request still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	s.leave()
	select {
	case err := <-drainErr:
		if err != nil {
			t.Fatalf("Drain = %v after the last request left", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Drain did not return after the last request left")
	}
}

// TestDrainDeadline pins that Drain gives up with ctx.Err() when the
// straggler outlives the deadline.
func TestDrainDeadline(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	if !s.enter() {
		t.Fatal("enter refused")
	}
	defer s.leave()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Drain = %v, want context.DeadlineExceeded", err)
	}
}

// TestDrainInflightSurvives drives the contract over real HTTP: a suite
// request started before the drain completes normally while the drain is
// in progress.
func TestDrainInflightSurvives(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	type result struct {
		status int
		total  int
	}
	done := make(chan result, 1)
	go func() {
		var out SuiteResponse
		resp := postJSON(t, ts.URL+"/v1/suite",
			SuiteRequest{Family: "update", Iterations: 2}, &out)
		done <- result{resp.StatusCode, out.Total}
	}()
	waitFor(t, "suite request in flight", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.inflight > 0
	})

	drainErr := make(chan error, 1)
	go func() { drainErr <- s.Drain(context.Background()) }()
	waitFor(t, "drain mode", func() bool { return s.Draining() })

	res := <-done
	if res.status != http.StatusOK || res.total == 0 {
		t.Errorf("in-flight suite during drain: status %d total %d, want 200 with results", res.status, res.total)
	}
	if err := <-drainErr; err != nil {
		t.Errorf("Drain = %v after in-flight request finished", err)
	}
}

// TestCanceledClientReleasesSlots pins that a client that disconnects
// mid-run gives back both its admission slot and its held op budget,
// even though the handler may still be unwinding.
func TestCanceledClientReleasesSlots(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	// A deliberately slow program: ~4M iterations of straight-line code,
	// with an op budget raised far above the default so the run is still
	// going when the client hangs up.
	slow := `
int acc_test()
{
    int i, j, sink;
    sink = 0;
    for (i = 0; i < 2000; i++)
        for (j = 0; j < 2000; j++)
            sink = sink + 1;
    return (sink > 0);
}
`
	body, _ := json.Marshal(RunRequest{Source: slow, MaxOps: 1 << 40})
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/run", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")

	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errCh <- err
	}()
	waitFor(t, "run admitted", func() bool { return s.adm.Inflight() > 0 })
	cancel()
	if err := <-errCh; err == nil {
		t.Log("request completed before cancel took effect (slow program too fast); slot release still checked")
	}
	waitFor(t, "admission slot released", func() bool {
		return s.adm.Inflight() == 0 && s.adm.HeldOps() == 0
	})
}

// waitFor polls cond (1ms interval, 10s deadline).
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEngineSelection pins the engine field of the run and suite
// endpoints: "tree" is accepted end-to-end (the single-program path and
// the suite path both thread it through to the interpreter), and an
// unknown engine — including the retired "spmd" — is refused with a
// structured 400 naming the valid set, not silently executed on the
// default engine.
func TestEngineSelection(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	var run RunResponse
	resp := postJSON(t, ts.URL+"/v1/run", RunRequest{Source: figure1Source, Engine: "tree"}, &run)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run engine=tree status = %d, want 200", resp.StatusCode)
	}
	if run.Exit != 1 || run.Error != "" {
		t.Fatalf("run engine=tree = %+v, want exit 1 with no error", run)
	}

	var suite SuiteResponse
	resp = postJSON(t, ts.URL+"/v1/suite", SuiteRequest{Family: "data", Iterations: 1, Engine: "tree"}, &suite)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("suite engine=tree status = %d, want 200", resp.StatusCode)
	}
	if suite.Total == 0 || suite.Report == "" {
		t.Fatalf("suite engine=tree = %+v, want a populated report", suite)
	}

	for _, tc := range []struct {
		path string
		body any
	}{
		{"/v1/run", RunRequest{Source: figure1Source, Engine: "warp"}},
		{"/v1/suite", SuiteRequest{Engine: "warp"}},
		{"/v1/run", RunRequest{Source: figure1Source, Engine: "spmd"}},
		{"/v1/suite", SuiteRequest{Engine: "spmd"}},
	} {
		body, err := json.Marshal(tc.body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+tc.path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %s: status = %d, want 400 (body: %s)", tc.path, body, resp.StatusCode, raw)
			continue
		}
		var env errorEnvelope
		if err := json.Unmarshal(raw, &env); err != nil {
			t.Fatalf("%s %s: response is not the error envelope: %v", tc.path, body, err)
		}
		if env.Error.Code != codeBadRequest {
			t.Errorf("%s %s: error code = %q, want %q", tc.path, body, env.Error.Code, codeBadRequest)
		}
		if !strings.Contains(env.Error.Message, "want vm or tree") {
			t.Errorf("%s %s: error message %q does not name the valid engines", tc.path, body, env.Error.Message)
		}
	}
}
