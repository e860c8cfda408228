package core

import (
	"strings"
	"testing"
	"time"

	"accv/internal/ast"
	"accv/internal/compiler"
	"accv/internal/obs"
)

// hazardousTemplate triggers ACV002 (error severity): the kernel reads a
// create-allocated array that was never copied in.
func hazardousTemplate() *Template {
	return &Template{
		Name: "vet_hazard", Lang: ast.LangC, Family: "vet", Description: "intentionally hazardous",
		NoCross: true,
		Source: `    int i, errors;
    int b[8], c[8];
    for (i = 0; i < 8; i++) { b[i] = i; c[i] = -1; }
    #pragma acc data create(b[0:8]) copyout(c[0:8])
    {
        #pragma acc parallel present(b[0:8], c[0:8])
        {
            #pragma acc loop
            for (i = 0; i < 8; i++) {
                c[i] = b[i];
            }
        }
    }
    errors = 0;
    return (errors == 0);
`,
	}
}

func vetCfg(policy VetPolicy, o *obs.Observer) Config {
	return Config{
		Toolchain: compiler.NewReference(), Iterations: 1,
		Timeout: 2 * time.Second, Vet: policy, Obs: o,
	}
}

func TestParseVetPolicy(t *testing.T) {
	for _, tt := range []struct {
		in      string
		want    VetPolicy
		wantErr bool
	}{
		{"", VetEnforce, false},
		{"on", VetEnforce, false},
		{"true", VetEnforce, false},
		{"enforce", VetEnforce, false},
		{"warn", VetWarnOnly, false},
		{"off", VetOff, false},
		{"false", VetOff, false},
		{"loud", VetEnforce, true},
	} {
		got, err := ParseVetPolicy(tt.in)
		if (err != nil) != tt.wantErr || got != tt.want {
			t.Errorf("ParseVetPolicy(%q) = %v, %v; want %v, error %v", tt.in, got, err, tt.want, tt.wantErr)
		}
		if err != nil && !strings.Contains(err.Error(), "want on, warn, or off") {
			t.Errorf("ParseVetPolicy(%q) error %q does not name the valid policies", tt.in, err)
		}
	}
}

func TestVetEnforceFailsHazardousTest(t *testing.T) {
	o := obs.NewObserver()
	res := RunTest(vetCfg(VetEnforce, o), hazardousTemplate())
	if res.Outcome != VetFail {
		t.Fatalf("outcome = %v, want VetFail (detail %q)", res.Outcome, res.Detail)
	}
	if !strings.Contains(res.Detail, "ACV002") {
		t.Errorf("detail %q does not name the finding", res.Detail)
	}
	if len(res.Findings) == 0 {
		t.Error("findings not recorded on the result")
	}
	if res.Outcome.Verdict() {
		t.Error("VetFail must not count as a compiler verdict")
	}
	if res.FuncRuns != 0 {
		t.Errorf("test ran %d functional iterations despite failing vet", res.FuncRuns)
	}
	snap := o.Metrics.Snapshot()
	found := false
	for _, c := range snap.Counters {
		if c.Name == "accv_vet_findings_total" && c.Labels["analyzer"] == "ACV002" && c.Labels["severity"] == "error" {
			found = true
		}
	}
	if !found {
		t.Errorf("accv_vet_findings_total{analyzer=ACV002,severity=error} not emitted: %+v", snap.Counters)
	}
}

// laneRaceTemplate triggers ACV010 (error severity): a gang loop
// read-modify-writes a region-shared accumulator with no reduction clause.
func laneRaceTemplate() *Template {
	return &Template{
		Name: "vet_lane_race", Lang: ast.LangC, Family: "vet", Description: "intentionally racy",
		NoCross: true,
		Source: `    int i, sum;
    int a[16];
    for (i = 0; i < 16; i++) a[i] = i;
    sum = 0;
    #pragma acc parallel copyin(a[0:16]) copy(sum)
    {
        #pragma acc loop gang
        for (i = 0; i < 16; i++) {
            sum = sum + a[i];
        }
    }
    return (sum == 120);
`,
	}
}

// TestVetFindingsMetricAnalyzerLabel pins the analyzer-label contract of
// accv_vet_findings_total across the registry's range: the lane-race
// analyzers (ACV007–ACV010) emit under their own IDs, exactly like the
// data-movement ones (docs/OBSERVABILITY.md).
func TestVetFindingsMetricAnalyzerLabel(t *testing.T) {
	o := obs.NewObserver()
	res := RunTest(vetCfg(VetEnforce, o), laneRaceTemplate())
	if res.Outcome != VetFail {
		t.Fatalf("outcome = %v, want VetFail (detail %q)", res.Outcome, res.Detail)
	}
	snap := o.Metrics.Snapshot()
	found := false
	for _, c := range snap.Counters {
		if c.Name == "accv_vet_findings_total" && c.Labels["analyzer"] == "ACV010" && c.Labels["severity"] == "error" {
			found = true
		}
	}
	if !found {
		t.Errorf("accv_vet_findings_total{analyzer=ACV010,severity=error} not emitted: %+v", snap.Counters)
	}
}

func TestVetWarnOnlyRecordsWithoutFailing(t *testing.T) {
	res := RunTest(vetCfg(VetWarnOnly, nil), hazardousTemplate())
	if res.Outcome == VetFail {
		t.Fatalf("warn-only policy failed the test: %q", res.Detail)
	}
	if len(res.Findings) == 0 {
		t.Error("warn-only policy must still record findings")
	}
}

// TestVetOffSkipsAnalysis asserts the off policy ignores findings: the
// hazardous test is not failed over them and none is recorded.
func TestVetOffSkipsAnalysis(t *testing.T) {
	res := RunTest(vetCfg(VetOff, nil), hazardousTemplate())
	if res.Outcome == VetFail {
		t.Fatalf("vet-off policy failed the test: %q", res.Detail)
	}
	if res.Findings != nil {
		t.Errorf("findings recorded under VetOff: %v", res.Findings)
	}
}

// TestVetOffLeavesTheToolchainEnforcing runs the hazardous test under the
// off policy and then under the enforcing one on the same toolchain: the
// off run must not turn analysis off for the runs after it. The second
// pair shares a compile cache too, so the enforcing run reuses the
// executable the off run compiled and must still find the hazard.
func TestVetOffLeavesTheToolchainEnforcing(t *testing.T) {
	for _, cache := range []*compiler.Cache{nil, compiler.NewCache()} {
		ref := compiler.NewReference()
		off, enforce := vetCfg(VetOff, nil), vetCfg(VetEnforce, nil)
		off.Toolchain, enforce.Toolchain = ref, ref
		off.Cache, enforce.Cache = cache, cache
		if res := RunTest(off, hazardousTemplate()); res.Outcome == VetFail {
			t.Fatalf("vet-off policy failed the test: %q", res.Detail)
		}
		if res := RunTest(enforce, hazardousTemplate()); res.Outcome != VetFail {
			t.Fatalf("enforcing run after a vet-off run on the same toolchain (cache %v): outcome %v, want VetFail (detail %q)", cache != nil, res.Outcome, res.Detail)
		}
		if cache != nil {
			if hits, _ := cache.Stats(); hits != 1 {
				t.Errorf("enforcing run compiled again: %d cache hits, want 1", hits)
			}
		}
	}
}

// TestVetDefaultOnCleanSuite asserts the default policy is enforcing and
// harmless on hazard-free sources.
func TestVetDefaultOnCleanSuite(t *testing.T) {
	src := `    int i;
    int a[8], b[8];
    for (i = 0; i < 8; i++) { a[i] = i; b[i] = 0; }
    #pragma acc parallel copyin(a[0:8]) copyout(b[0:8])
    {
        #pragma acc loop
        for (i = 0; i < 8; i++) {
            b[i] = a[i] + 1;
        }
    }
    for (i = 0; i < 8; i++) {
        if (b[i] != i + 1) return 0;
    }
    return 1;
`
	tpl := &Template{Name: "clean", Lang: ast.LangC, Family: "vet", Description: "clean", Source: src, NoCross: true}
	res := RunTest(Config{Toolchain: compiler.NewReference(), Iterations: 1}, tpl)
	if res.Outcome != Pass {
		t.Fatalf("outcome = %v (%s), want Pass", res.Outcome, res.Detail)
	}
	if len(res.Findings) != 0 {
		t.Errorf("clean source produced findings: %v", res.Findings)
	}
}
