package accv_test

// Determinism tests for the parallel execution engine: fanning the suite
// over a worker pool must change wall-clock time and nothing else. Run
// under -race in CI, these double as the scheduler's data-race stress.

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"accv"
)

// noCrossTemplates selects the C templates without a cross variant. Their
// results carry no cross-race statistics, so for a correct compiler every
// field of the report is deterministic — the strongest set on which
// byte-identity can legitimately be demanded.
func noCrossTemplates(t *testing.T) []*accv.Template {
	t.Helper()
	var out []*accv.Template
	for _, tpl := range accv.AllTemplates() {
		if tpl.Lang == accv.C && tpl.NoCross {
			out = append(out, tpl)
		}
	}
	if len(out) < 10 {
		t.Fatalf("only %d NoCross C templates; fixture too small", len(out))
	}
	return out
}

// render draws the Text and CSV reports with durations zeroed — the one
// field that legitimately differs between otherwise identical runs.
func render(t *testing.T, res *accv.SuiteResult) (string, string) {
	t.Helper()
	res.Duration = 0
	var text, csv bytes.Buffer
	if err := accv.WriteReport(&text, res, accv.Text); err != nil {
		t.Fatal(err)
	}
	if err := accv.WriteReport(&csv, res, accv.CSV); err != nil {
		t.Fatal(err)
	}
	return text.String(), csv.String()
}

// TestParallelReportsByteIdentical is the acceptance check: parallel and
// sequential runs of a deterministic template set render byte-identical
// Text and CSV reports.
func TestParallelReportsByteIdentical(t *testing.T) {
	tpls := noCrossTemplates(t)
	ref := accv.Reference()
	opts := []accv.Option{accv.WithIterations(2), accv.WithTemplates(tpls...)}

	seq, err := accv.NewRunner(accv.C, append(opts, accv.WithParallelism(1))...)
	if err != nil {
		t.Fatal(err)
	}
	par, err := accv.NewRunner(accv.C, append(opts, accv.WithParallelism(8))...)
	if err != nil {
		t.Fatal(err)
	}
	seqText, seqCSV := render(t, seq.Run(ref))
	parText, parCSV := render(t, par.Run(ref))
	if seqText != parText {
		t.Errorf("Text reports diverge between -j 1 and -j 8:\n--- sequential ---\n%s\n--- parallel ---\n%s", seqText, parText)
	}
	if seqCSV != parCSV {
		t.Errorf("CSV reports diverge between -j 1 and -j 8")
	}
}

// TestParallelSuiteStress runs the full C suite at parallelism 8
// repeatedly against a buggy vendor compiler and checks the result set
// (name, outcome) matches a sequential run — the -race leg in CI makes
// this the scheduler's data-race stress test. Vendor verdicts on racy
// cross variants differ only in certainty, never in outcome, for a
// deterministic functional defect set.
func TestParallelSuiteStress(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite stress skipped in -short mode")
	}
	pgi, err := accv.NewCompiler("pgi", "13.2")
	if err != nil {
		t.Fatal(err)
	}
	seqRunner, err := accv.NewRunner(accv.C, accv.WithIterations(1), accv.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	want := seqRunner.Run(pgi)

	rounds := 2
	for round := 0; round < rounds; round++ {
		parRunner, err := accv.NewRunner(accv.C, accv.WithIterations(1), accv.WithParallelism(8))
		if err != nil {
			t.Fatal(err)
		}
		got := parRunner.Run(pgi)
		if got.Total() != want.Total() {
			t.Fatalf("round %d: %d results, want %d", round, got.Total(), want.Total())
		}
		for i := range want.Results {
			w, g := &want.Results[i], &got.Results[i]
			if w.Name != g.Name || w.Outcome != g.Outcome {
				t.Errorf("round %d: result %d = %s/%s, want %s/%s",
					round, i, g.Name, g.Outcome, w.Name, w.Outcome)
			}
		}
	}
}

// TestRunnerContextCancel exercises the facade's context plumbing: a
// canceled context stops the suite and marks unreached tests canceled.
func TestRunnerContextCancel(t *testing.T) {
	r, err := accv.NewRunner(accv.C, accv.WithIterations(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := r.RunContext(ctx, accv.Reference())
	if err == nil {
		t.Fatal("RunContext under a dead context must return the context error")
	}
	for i := range res.Results {
		if res.Results[i].Outcome.Verdict() {
			t.Fatalf("test %s got verdict %s under a dead context",
				res.Results[i].Name, res.Results[i].Outcome)
		}
	}
}

// TestCompileAndRunContextCancel: a hung program under a context deadline
// ends with a timeout error instead of hanging the caller.
func TestCompileAndRunContextCancel(t *testing.T) {
	src := `
int acc_test() {
    int i = 0;
    while (1) { i = i + 1; }
    return 1;
}`
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := accv.CompileAndRunContext(ctx, src, accv.C, accv.Reference(),
		accv.WithBudget(1<<40))
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if res.Err == nil || !strings.Contains(res.Err.Error(), "deadline") {
		t.Errorf("Err = %v, want a deadline abort", res.Err)
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Errorf("run outlived its context by %s", took)
	}
}

// TestRunnerRejectsNonsense: option validation happens at construction.
func TestRunnerRejectsNonsense(t *testing.T) {
	if _, err := accv.NewRunner(accv.C, accv.WithParallelism(-4)); err == nil {
		t.Error("negative parallelism accepted")
	}
}

// TestRunnerFailFast: the facade's fail-fast option cancels the tail of
// the suite after the first defect verdict.
func TestRunnerFailFast(t *testing.T) {
	tpls := []*accv.Template{{
		Name: "ff_fail", Lang: accv.C, Family: "fixture", Description: "always fails",
		Source: "    return 0;\n", NoCross: true,
	}}
	for _, name := range []string{"ff_p1", "ff_p2", "ff_p3"} {
		tpls = append(tpls, &accv.Template{
			Name: name, Lang: accv.C, Family: "fixture", Description: "passes",
			Source: "    return 1;\n", NoCross: true,
		})
	}
	r, err := accv.NewRunner(accv.C,
		accv.WithIterations(1),
		accv.WithTemplates(tpls...),
		accv.WithFailFast(),
		accv.WithParallelism(1)) // deterministic: the failure lands first
	if err != nil {
		t.Fatal(err)
	}
	res := r.Run(accv.Reference())
	first := &res.Results[0]
	if !first.Outcome.Failed() || !first.Outcome.Verdict() {
		t.Fatalf("first test: outcome %s, want a defect verdict", first.Outcome)
	}
	for _, r := range res.Results[1:] {
		if r.Outcome.Verdict() {
			t.Errorf("test %s reached verdict %s after fail-fast triggered", r.Name, r.Outcome)
		}
	}
}
