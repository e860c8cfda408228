package compiler

import (
	"reflect"
	"testing"

	"accv/internal/cfront"
)

// TestPlanRejectsLikeCompile: Plan is Compile's sema stage, so a program
// sema rejects fails Plan with exactly the diagnostics and error Compile
// reports.
func TestPlanRejectsLikeCompile(t *testing.T) {
	prog, err := cfront.Parse(`
int acc_test() {
    int i;
    #pragma acc loop
    for (i = 0; i < 4; i++) ;
    return 1;
}`)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	pexe, pdiags, perr := Plan(prog, Options{})
	cexe, cdiags, cerr := Compile(prog, Options{})
	if perr == nil || cerr == nil {
		t.Fatalf("want both to fail: Plan err %v, Compile err %v", perr, cerr)
	}
	if pexe != nil || cexe != nil {
		t.Error("a rejected program returned an executable")
	}
	if _, ok := perr.(*CompileError); !ok {
		t.Errorf("Plan error is %T, want *CompileError", perr)
	}
	if perr.Error() != cerr.Error() {
		t.Errorf("errors differ:\n  Plan:    %v\n  Compile: %v", perr, cerr)
	}
	if !reflect.DeepEqual(pdiags, cdiags) {
		t.Errorf("diagnostics differ:\n  Plan:    %v\n  Compile: %v", pdiags, cdiags)
	}
}

// TestPlanMatchesCompile: on an accepted program Plan builds the same
// regions, loop plans, hooks and diagnostics as Compile, and none of the
// later stages' artifacts.
func TestPlanMatchesCompile(t *testing.T) {
	prog, err := cfront.Parse(laneSafetySrc)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	plan, pdiags, err := Plan(prog, Options{})
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	exe, cdiags, err := Compile(prog, Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if exe.LaneSafety == nil || exe.Code == nil || exe.Batch == nil {
		t.Fatal("Compile produced no later-stage artifacts; the nil checks below would be vacuous")
	}
	if len(exe.Regions) == 0 || len(exe.Loops) == 0 {
		t.Fatal("program planned no regions or loops")
	}
	if !reflect.DeepEqual(plan.Regions, exe.Regions) {
		t.Error("Plan regions differ from Compile's")
	}
	if !reflect.DeepEqual(plan.Loops, exe.Loops) {
		t.Error("Plan loop plans differ from Compile's")
	}
	if plan.Hooks != exe.Hooks {
		t.Errorf("hooks differ: %+v vs %+v", plan.Hooks, exe.Hooks)
	}
	if !reflect.DeepEqual(pdiags, cdiags) || !reflect.DeepEqual(plan.Diags, exe.Diags) {
		t.Errorf("diagnostics differ: %v vs %v", pdiags, cdiags)
	}
	if plan.Prog != prog || plan.Opts != exe.Opts {
		t.Error("Plan does not carry the program and options")
	}
	if plan.Findings != nil || plan.LaneSafety != nil || plan.Code != nil ||
		plan.Batch != nil || plan.BatchDecline != nil {
		t.Error("Plan ran a stage after sema")
	}
}
