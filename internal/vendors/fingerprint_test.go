package vendors

import (
	"reflect"
	"testing"

	"accv/internal/ast"
	"accv/internal/cfront"
	"accv/internal/compiler"
	"accv/internal/directive"
)

// storeOnlySrc is a pure store-only loop nest: the kernel writes a[i]
// without reading it, no private/reduction clauses, disjoint write/read
// sets. Dropping, de-sequencing, or redundantly executing its loop plan is
// behaviorally invisible, which the inertness analysis must detect.
const storeOnlySrc = `
int acc_test() {
    int n = 16;
    int i, errors;
    int a[16];
    for (i = 0; i < n; i++) a[i] = 0;
    #pragma acc parallel copy(a[0:n]) num_gangs(4)
    {
        #pragma acc loop gang
        for (i = 0; i < n; i++) a[i] = i + 1;
    }
    errors = 0;
    for (i = 0; i < n; i++) {
        if (a[i] != i + 1) errors++;
    }
    return (errors == 0);
}
`

func planBase(t *testing.T, v *Vendor, src string) *compiler.Executable {
	t.Helper()
	prog, err := cfront.Parse(src)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	exe, _, err := v.BasePlan(prog)
	if err != nil {
		t.Fatalf("base plan: %v", err)
	}
	return exe
}

// TestSemanticsKeyExcludesIdentity pins the sharing precondition: the
// semantics key must digest only behavior-shaping configuration, never the
// inert name/version strings, or no two versions could ever share a
// fingerprint.
func TestSemanticsKeyExcludesIdentity(t *testing.T) {
	a := &Vendor{name: "alpha", version: "1.0"}
	b := &Vendor{name: "beta", version: "9.9"}
	if a.SemanticsKey() != b.SemanticsKey() {
		t.Errorf("semantics keys differ on identity alone:\n  a: %s\n  b: %s",
			a.SemanticsKey(), b.SemanticsKey())
	}
}

// TestFiredEffectsDoesNotMutatePristine verifies replay purity: computing
// the fired set must leave the pristine executable untouched, and repeated
// calls must agree — the fingerprint of a template cannot depend on how
// many times it was computed.
func TestFiredEffectsDoesNotMutatePristine(t *testing.T) {
	v := &Vendor{name: "t", version: "1", bugs: []Bug{
		bug(ast.LangC, "skip-copy", "copy skip", "", "", skipData(directive.Copy, onParallel)),
		bug(ast.LangC, "loop-red", "redundant", "", "", loopRedundant(directive.Gang)),
	}}
	exe := planBase(t, v, copySrc)
	for _, r := range exe.Regions {
		if len(r.SkipDataExplicit) != 0 {
			t.Fatal("pristine plan already carries effects")
		}
	}
	first := v.FiredEffects(exe)
	if len(first) == 0 {
		t.Fatal("no effects fired on a program both bugs plainly affect")
	}
	for _, r := range exe.Regions {
		if len(r.SkipDataExplicit) != 0 {
			t.Error("FiredEffects mutated the pristine executable's regions")
		}
	}
	for _, plan := range exe.Loops {
		if plan.Redundant || plan.DropPlan {
			t.Error("FiredEffects mutated the pristine executable's loop plans")
		}
	}
	second := v.FiredEffects(exe)
	if !reflect.DeepEqual(first, second) {
		t.Errorf("repeated FiredEffects disagree:\n  first:  %v\n  second: %v", first, second)
	}
}

// TestFiredEffectsVersionGated verifies the fired set tracks version
// gating: an effect outside its [Introduced, FixedIn) window must not
// appear, which is exactly what lets two releases on the same side of a
// fix share a fingerprint while releases across it split.
func TestFiredEffectsVersionGated(t *testing.T) {
	b := Bug{ID: "gated", Title: "gated", Lang: ast.LangC, FixedIn: "2.0",
		Effects: []Effect{skipData(directive.Copy, onParallel)}}
	fired := func(version string) []string {
		v := &Vendor{name: "t", version: version, bugs: []Bug{b}}
		return v.FiredEffects(planBase(t, v, copySrc))
	}
	if got := fired("1.5"); len(got) != 1 {
		t.Errorf("at 1.5 (before the fix) want 1 fired effect, got %v", got)
	}
	if got := fired("2.1"); len(got) != 0 {
		t.Errorf("at 2.1 (after the fix) want no fired effects, got %v", got)
	}
}

// TestFiredEffectsNoActiveEffect: a release with no effect active for the
// program's language — bug fixed, bug in the other frontend, or effect
// gated out — fires nothing, and replays without allocating, because the
// scratch copy is made only once an effect is active.
func TestFiredEffectsNoActiveEffect(t *testing.T) {
	gated := skipData(directive.Copy, onParallel)
	gated.MaxVersion = "1.9"
	v := &Vendor{name: "t", version: "2.1", bugs: []Bug{
		bug(ast.LangC, "fixed", "fixed in 2.0", "", "2.0", skipData(directive.Copy, onParallel)),
		bug(ast.LangFortran, "fortran", "Fortran only", "", "", skipData(directive.Copy, onParallel)),
		bug(ast.LangC, "gated", "effect gated to <= 1.9", "", "", gated),
	}}
	exe := planBase(t, v, copySrc)
	if got := v.FiredEffects(exe); got != nil {
		t.Errorf("FiredEffects = %v, want nil", got)
	}
	if n := testing.AllocsPerRun(100, func() { v.FiredEffects(exe) }); n != 0 {
		t.Errorf("FiredEffects allocates %v times with no active effect, want 0", n)
	}
}

// TestLoopMutationInertness drives the loop-inertness analysis through
// FiredEffects: plan mutations on a pure store-only nest must not fire
// (the mutated schedule computes identical results), while the same
// mutations on a read-modify-write nest must.
func TestLoopMutationInertness(t *testing.T) {
	effects := map[string]Effect{
		"drop-plan": loopDrop(directive.Gang),
		"redundant": loopRedundant(directive.Gang),
	}
	for name, fx := range effects {
		t.Run(name, func(t *testing.T) {
			v := &Vendor{name: "t", version: "1", bugs: []Bug{
				bug(ast.LangC, "b", name, "", "", fx),
			}}
			// copySrc increments a[i] in place: schedule-observable.
			if got := v.FiredEffects(planBase(t, v, copySrc)); len(got) == 0 {
				t.Errorf("%s on a read-modify-write nest must fire", name)
			}
			// storeOnlySrc only stores: the mutation is inert.
			if got := v.FiredEffects(planBase(t, v, storeOnlySrc)); len(got) != 0 {
				t.Errorf("%s on a store-only nest must be inert, fired %v", name, got)
			}
		})
	}
	// Partial-lane execution drops iterations entirely — never inert, even
	// on a store-only nest (elements keep their stale host values).
	v := &Vendor{name: "t", version: "1", bugs: []Bug{
		bug(ast.LangC, "b", "partial", "", "", loopPartial(directive.Gang)),
	}}
	if got := v.FiredEffects(planBase(t, v, storeOnlySrc)); len(got) == 0 {
		t.Error("partial-lanes must fire even on a store-only nest")
	}
}

// TestLoopInertnessRespectsInductionEscape covers the subtle C case: a
// kernels-region scalar is shared with copyback, so a loop whose
// assignment-style init writes the enclosing (escaping) induction binding
// is NOT inert — plain execution and lane execution leave different final
// values in the scalar.
func TestLoopInertnessRespectsInductionEscape(t *testing.T) {
	// In a kernels region the scalar i is present-or-copied (shared, copied
	// back); the loop writes it via the for-init assignment and the host
	// reads it after the region.
	src := `
int acc_test() {
    int n = 8;
    int i;
    int a[8];
    #pragma acc kernels copy(a[0:n]) copy(i)
    {
        #pragma acc loop
        for (i = 0; i < n; i++) a[i] = 7;
    }
    return (a[0] == 7);
}
`
	v := &Vendor{name: "t", version: "1", bugs: []Bug{
		bug(ast.LangC, "b", "redundant", "", "", loopRedundant(directive.Gang)),
	}}
	if got := v.FiredEffects(planBase(t, v, src)); len(got) == 0 {
		t.Error("redundant execution must fire when the induction variable escapes through region data")
	}
}
