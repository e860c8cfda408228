package core

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"accv/internal/ast"
	"accv/internal/compiler"
	"accv/internal/obs"
)

// passTemplate returns a minimal passing C template.
func passTemplate(name string) *Template {
	return &Template{
		Name: name, Lang: ast.LangC, Family: "engfam", Description: "d",
		Source: "    return 1;\n", NoCross: true,
	}
}

// hangTemplate loops forever; only a budget or deadline can end it.
func hangTemplate(name string) *Template {
	return &Template{
		Name: name, Lang: ast.LangC, Family: "engfam", Description: "d",
		Source: "    while (1) { }\n    return 1;\n", NoCross: true,
	}
}

// failTemplate returns the wrong verification result.
func failTemplate(name string) *Template {
	return &Template{
		Name: name, Lang: ast.LangC, Family: "engfam", Description: "d",
		Source: "    return 0;\n", NoCross: true,
	}
}

func TestConfigValidate(t *testing.T) {
	ref := compiler.NewReference()
	cases := []struct {
		name string
		cfg  Config
		want string // substring of the error, "" for valid
	}{
		{"zero config with toolchain", Config{Toolchain: ref}, ""},
		{"no toolchain", Config{}, "Toolchain"},
		{"negative iterations", Config{Toolchain: ref, Iterations: -1}, "Iterations"},
		{"negative maxops", Config{Toolchain: ref, MaxOps: -1}, "MaxOps"},
		{"negative timeout", Config{Toolchain: ref, Timeout: -time.Second}, "Timeout"},
		{"negative workers", Config{Toolchain: ref, Workers: -2}, "Workers"},
		{"negative devices", Config{Toolchain: ref, Devices: -1}, "Devices"},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

// The context entry points return validation errors; the legacy ones
// panic, because they predate the error return and silently coercing the
// config (the historical behaviour) hid real bugs.
func TestInvalidConfigSurfaces(t *testing.T) {
	bad := Config{Toolchain: compiler.NewReference(), Workers: -1}
	if _, err := RunSuiteContext(context.Background(), bad, nil); err == nil {
		t.Error("RunSuiteContext accepted a negative worker count")
	}
	if _, err := RunTestContext(context.Background(), bad, passTemplate("v")); err == nil {
		t.Error("RunTestContext accepted a negative worker count")
	}
	defer func() {
		if recover() == nil {
			t.Error("RunSuite must panic on an invalid config")
		}
	}()
	RunSuite(bad, nil)
}

// The acceptance regression: a deliberately-hung template is killed by
// the per-test deadline and the rest of the suite still completes with
// real verdicts.
func TestHungTemplateDoesNotStallSuite(t *testing.T) {
	tpls := []*Template{passTemplate("h1"), hangTemplate("h2"), passTemplate("h3")}
	cfg := Config{
		Toolchain:  compiler.NewReference(),
		Iterations: 1,
		Timeout:    100 * time.Millisecond,
		MaxOps:     1 << 40, // the op budget must not be what ends the hang
		Workers:    2,
	}
	start := time.Now()
	res, err := RunSuiteContext(context.Background(), cfg, tpls)
	if err != nil {
		t.Fatalf("RunSuiteContext: %v", err)
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("suite took %s; the hang was not killed by its deadline", took)
	}
	for i, want := range []Outcome{Pass, FailTimeout, Pass} {
		if res.Results[i].Outcome != want {
			t.Errorf("test %d (%s): outcome %s, want %s (detail: %s)",
				i, res.Results[i].Name, res.Results[i].Outcome, want, res.Results[i].Detail)
		}
	}
}

// A context deadline (as opposed to the per-run wall timer) must also end
// a hung run, reporting FailTimeout — the hang is still the program's
// fault, however it was detected.
func TestContextDeadlineKillsHungTest(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	cfg := Config{
		Toolchain:  compiler.NewReference(),
		Iterations: 1,
		Timeout:    time.Hour, // wall timer out of the picture
		MaxOps:     1 << 40,
	}
	res, err := RunTestContext(ctx, cfg, hangTemplate("ctxhang"))
	if err != nil {
		t.Fatalf("RunTestContext: %v", err)
	}
	if res.Outcome != FailTimeout {
		t.Errorf("outcome %s (detail %s), want %s", res.Outcome, res.Detail, FailTimeout)
	}
}

// Canceling the caller's context mid-run aborts cooperatively: the run
// returns a partial result where unfinished tests are Canceled — not
// failure verdicts — together with the context's error.
func TestRunSuiteContextCancel(t *testing.T) {
	var tpls []*Template
	for i := 0; i < 8; i++ {
		tpls = append(tpls, passTemplate("c"+string(rune('a'+i))))
	}
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	cfg := Config{
		Toolchain:  compiler.NewReference(),
		Iterations: 1,
		Workers:    1, // deterministic: cancellation lands between tests
		Progress: func(TestResult) {
			if ran.Add(1) == 2 {
				cancel()
			}
		},
	}
	res, err := RunSuiteContext(ctx, cfg, tpls)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := res.Results[0].Outcome; got != Pass {
		t.Errorf("first test: outcome %s, want pass", got)
	}
	canceled := res.ByOutcome()[Canceled]
	if canceled == 0 {
		t.Error("no test reported Canceled after mid-run cancellation")
	}
	for i := range res.Results {
		r := &res.Results[i]
		if r.Outcome == Canceled && r.Outcome.Verdict() {
			t.Fatal("Canceled must not count as a verdict")
		}
		if r.Outcome != Pass && r.Outcome != Canceled {
			t.Errorf("test %s: outcome %s after cancellation, want pass or canceled", r.Name, r.Outcome)
		}
	}
	// A context that is dead before the run starts cancels everything.
	res2, err := RunSuiteContext(ctx, cfg, tpls)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled ctx: err = %v", err)
	}
	if got := res2.ByOutcome()[Canceled]; got != len(tpls) {
		t.Errorf("pre-canceled ctx: %d canceled, want %d", got, len(tpls))
	}
}

// Fail-fast cancels the remainder of the suite after the first defect
// verdict; the failing test's own result is kept.
func TestFailFast(t *testing.T) {
	tpls := []*Template{
		passTemplate("ffa"),
		failTemplate("ffb"),
		passTemplate("ffc"),
		passTemplate("ffd"),
	}
	cfg := Config{
		Toolchain:  compiler.NewReference(),
		Iterations: 1,
		Workers:    1, // deterministic schedule: b fails before c and d start
		FailFast:   true,
	}
	res, err := RunSuiteContext(context.Background(), cfg, tpls)
	if err != nil {
		t.Fatalf("fail-fast is requested behaviour, not an error: %v", err)
	}
	for i, want := range []Outcome{Pass, FailWrongResult, Canceled, Canceled} {
		if res.Results[i].Outcome != want {
			t.Errorf("test %d (%s): outcome %s, want %s",
				i, res.Results[i].Name, res.Results[i].Outcome, want)
		}
	}
	if res.Failed() != 3 {
		t.Errorf("Failed() = %d, want 3 (one verdict + two canceled)", res.Failed())
	}
}

// The scheduler's queue-depth and worker-utilization gauges land in the
// registry, and the worker span label is attributed.
func TestSchedulerMetrics(t *testing.T) {
	o := obs.NewObserver()
	cfg := Config{Toolchain: compiler.NewReference(), Iterations: 1, Workers: 2, Obs: o}
	tpls := []*Template{passTemplate("sm1"), passTemplate("sm2"), passTemplate("sm3")}
	if _, err := RunSuiteContext(context.Background(), cfg, tpls); err != nil {
		t.Fatal(err)
	}
	if got := o.Metrics.Gauge("accv_suite_queue_depth").Value(); got != 0 {
		t.Errorf("final queue depth %v, want 0", got)
	}
	snap := o.Metrics.Snapshot()
	busySeries := 0
	for _, g := range snap.Gauges {
		if g.Name == "accv_suite_worker_busy" {
			busySeries++
			if g.Labels["worker"] == "" {
				t.Error("worker_busy gauge missing worker label")
			}
			if g.Value != 0 {
				t.Errorf("worker %s still busy after the run", g.Labels["worker"])
			}
		}
	}
	if busySeries == 0 {
		t.Error("no accv_suite_worker_busy series emitted")
	}
}
