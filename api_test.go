package accv

// Tests of the public facade: the API surface a downstream user programs
// against.

import (
	"strings"
	"testing"
)

func TestCompileAndRunWithOptions(t *testing.T) {
	src := `
int acc_test()
{
    acc_init(acc_device_not_host);
    return (acc_get_device_num(acc_device_not_host) == 2);
}
`
	res, err := CompileAndRun(src, C, Reference(),
		WithEnv("ACC_DEVICE_NUM", "2"),
		WithDevices(3),
		WithSeed(9),
	)
	if err != nil || res.Err != nil {
		t.Fatalf("%v / %v", err, res.Err)
	}
	if res.Exit != 1 {
		t.Error("WithEnv/WithDevices must reach the platform")
	}
}

func TestCompileAndRunBudget(t *testing.T) {
	src := `
int acc_test()
{
    while (1) { }
    return 1;
}
`
	res, err := CompileAndRun(src, C, Reference(), WithBudget(50_000))
	if err != nil {
		t.Fatal(err)
	}
	if res.Err == nil {
		t.Error("budget must abort the hang")
	}
}

func TestCompileErrorsSurface(t *testing.T) {
	if _, err := CompileAndRun("not a program", C, Reference()); err == nil {
		t.Error("frontend errors must surface")
	}
	src := `
int acc_test()
{
    int i;
    #pragma acc loop
    for (i = 0; i < 4; i++) ;
    return 1;
}
`
	if _, err := CompileAndRun(src, C, Reference()); err == nil {
		t.Error("compile errors must surface")
	}
}

// mustRunner builds a Runner with newRunner (NewRunner or NewRunner20),
// failing the test on a configuration error.
func mustRunner(t *testing.T, newRunner func(Language, ...Option) (*Runner, error), lang Language, opts ...Option) *Runner {
	t.Helper()
	r, err := newRunner(lang, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSuiteFamilySelection(t *testing.T) {
	r := mustRunner(t, NewRunner, C, WithFamily("env"), WithIterations(1))
	tpls := r.Templates()
	if len(tpls) != 2 {
		t.Fatalf("env family has %d C tests, want 2", len(tpls))
	}
	res := r.Run(Reference())
	if res.Failed() != 0 {
		t.Errorf("env family must pass on the reference compiler: %+v", res.Results)
	}
}

func TestVersionsAndVendors(t *testing.T) {
	if len(Vendors()) != 3 {
		t.Error("three simulated vendors")
	}
	for _, v := range Vendors() {
		if len(Versions(v)) != 8 {
			t.Errorf("%s must have 8 simulated releases (Table I)", v)
		}
	}
	if Versions("gcc") != nil {
		t.Error("unknown vendor has no versions")
	}
	if _, err := NewCompiler("gcc", "13"); err == nil {
		t.Error("unknown compiler must fail")
	}
}

func TestFacadeReportWriters(t *testing.T) {
	tc, _ := NewCompiler("cray", "8.1.2")
	res := mustRunner(t, NewRunner, C, WithFamily("wait"), WithIterations(1)).Run(tc)
	var sb strings.Builder
	if err := WriteReport(&sb, res, Text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "cray 8.1.2") {
		t.Error("text report identity")
	}
	sb.Reset()
	if err := WriteBugReport(&sb, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Bug report") {
		t.Error("bug report header")
	}
}

func TestFamiliesAndLookup(t *testing.T) {
	fams := Families()
	if len(fams) < 10 {
		t.Errorf("families: %v", fams)
	}
	if LookupTemplate("loop", C) == nil || LookupTemplate("loop", Fortran) == nil {
		t.Error("loop template must exist in both languages")
	}
	if LookupTemplate("definitely_not_a_feature", C) != nil {
		t.Error("unknown lookup must be nil")
	}
	if n := len(AllTemplates()); n != 218 {
		t.Errorf("registry census: %d (210 OpenACC 1.0 + 8 OpenACC 2.0)", n)
	}
	if n := len(mustRunner(t, NewRunner, C).Templates()); n != 105 {
		t.Errorf("1.0 C suite: %d tests", n)
	}
	if n := len(mustRunner(t, NewRunner20, C).Templates()); n != 4 {
		t.Errorf("2.0 C suite: %d tests", n)
	}
}

func TestSuite20OnReference20(t *testing.T) {
	res := mustRunner(t, NewRunner20, C, WithIterations(2)).Run(Reference20())
	if res.Failed() != 0 {
		for _, r := range res.Results {
			if r.Outcome.Failed() {
				t.Errorf("%s: %s (%s)", r.ID(), r.Outcome, r.Detail)
			}
		}
	}
	// On a 1.0 compiler every 2.0 test is (correctly) unsupported.
	res10 := mustRunner(t, NewRunner20, C, WithIterations(1)).Run(Reference())
	if res10.Passed() != 0 {
		t.Errorf("2.0 features must not pass on a 1.0 compiler: %d passed", res10.Passed())
	}
}

func TestParseBothLanguages(t *testing.T) {
	if _, err := Parse("int acc_test() { return 1; }", C); err != nil {
		t.Error(err)
	}
	if _, err := Parse("program t\n  test_result = 1\nend program t\n", Fortran); err != nil {
		t.Error(err)
	}
}

func TestBugDatabase(t *testing.T) {
	// Entry counts per vendor across both languages (the Table I totals).
	want := map[string]int{"caps": 106, "pgi": 22, "cray": 22}
	for vendor, n := range want {
		db := BugDatabase(vendor)
		if len(db) != n {
			t.Errorf("%s bug database has %d entries, want %d", vendor, len(db), n)
		}
		seen := map[string]bool{}
		for _, b := range db {
			if b.ID == "" || b.Title == "" {
				t.Errorf("%s: incomplete entry %+v", vendor, b)
			}
			if seen[b.ID] {
				t.Errorf("%s: duplicate id %s", vendor, b.ID)
			}
			seen[b.ID] = true
		}
	}
	if BugDatabase("reference") != nil {
		t.Error("the reference compiler has no bug database")
	}
	if BugDatabase("gcc") != nil {
		t.Error("unknown vendors have no bug database")
	}
}
