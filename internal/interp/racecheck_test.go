package interp_test

// Differential validation of the static cross-lane analysis against the
// dynamic race checker (docs/ANALYSIS.md): every race the -race-check
// interpreter observes at runtime must land inside a loop nest (or region
// remainder) the static LaneSafety oracle refused to prove independent.
// Together with the corpus zero-false-positive contract in
// internal/analysis, this bounds the analysis from both sides: it never
// flags the functional suite, and it never certifies a nest whose races
// are actually observable.
//
// The sweep runs both generated variants of every registered template
// under the *reference* semantics. Functional variants are race-free by
// construction; cross variants drop or mutate the directive under test,
// which for privatization/reduction features produces genuinely racy
// programs — exactly the executions the static side must not certify.

import (
	"fmt"
	"testing"

	"accv/internal/analysis"
	"accv/internal/ast"
	"accv/internal/cfront"
	"accv/internal/compiler"
	"accv/internal/core"
	"accv/internal/device"
	"accv/internal/ffront"
	"accv/internal/interp"
	_ "accv/internal/templates"
)

// parseVariant parses one generated test program; a parse failure returns
// nil (the harness classifies that variant as a compile error, so there is
// nothing to execute or certify).
func parseVariant(lang ast.Lang, src string) *ast.Program {
	var (
		prog *ast.Program
		err  error
	)
	if lang == ast.LangFortran {
		prog, err = ffront.Parse(src)
	} else {
		prog, err = cfront.Parse(src)
	}
	if err != nil {
		return nil
	}
	return prog
}

// raceCovered reports whether a dynamic race is accounted for by the
// static oracle: some non-proven-independent LaneSafety entry spans one of
// the racing lines, or names the racing variable among its blocking
// accesses (calls into helper procedures surface at the call site, not the
// callee's lines).
func raceCovered(safety []analysis.LaneSafety, r interp.Race) bool {
	for _, s := range safety {
		if s.Verdict == analysis.LaneProvenIndependent {
			continue
		}
		if (r.WriteLine >= s.Line && r.WriteLine <= s.EndLine) ||
			(r.OtherLine >= s.Line && r.OtherLine <= s.EndLine) {
			return true
		}
		for _, b := range s.Blocking {
			if b.Var == r.Var {
				return true
			}
		}
	}
	return false
}

// TestRaceCheckDifferential is the zero-false-negative contract: across
// every template, both variants, no dynamically observed race may fall in
// a nest the static analysis proved independent.
func TestRaceCheckDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("race-check sweep is slow")
	}
	ref10 := compiler.NewReference()
	ref20 := &compiler.Reference{Opts: compiler.Options{
		Spec: compiler.Spec20, Name: "reference", Version: "2.0"}}
	for _, tpl := range core.All() {
		tpl := tpl
		t.Run(tpl.ID(), func(t *testing.T) {
			t.Parallel()
			functional, cross, hasCross, err := tpl.Generate()
			if err != nil {
				t.Fatalf("generate: %v", err)
			}
			variants := []struct{ name, src string }{{"functional", functional}}
			if hasCross {
				variants = append(variants, struct{ name, src string }{"cross", cross})
			}
			ref := compiler.Toolchain(ref10)
			if tpl.Spec20 {
				ref = ref20
			}
			for _, v := range variants {
				prog := parseVariant(tpl.Lang, v.src)
				if prog == nil {
					continue // parse error: nothing runs, nothing to certify
				}
				exe, _, cerr := ref.Compile(prog)
				if cerr != nil {
					continue
				}
				for seed := int64(1); seed <= 2; seed++ {
					plat := device.NewPlatform(ref.DeviceConfig(), 1)
					res := interp.Run(exe, interp.RunConfig{
						Platform:  plat,
						Seed:      seed,
						Env:       tpl.Env,
						RaceCheck: true,
					})
					for _, r := range res.Races {
						if !raceCovered(exe.LaneSafety, r) {
							t.Errorf("%s variant, seed %d: dynamic %v not covered by static LaneSafety (%v)",
								v.name, seed, r, exe.LaneSafety)
						}
					}
				}
			}
		})
	}
}

// raceCheckSource is a deliberately racy program: the gang loop
// read-modify-writes a shared accumulator without a reduction clause.
const raceCheckSource = `#include <stdio.h>
#include <stdlib.h>
#include <math.h>
#include <openacc.h>

int acc_test()
{
    int i, sum;
    int a[64];
    for (i = 0; i < 64; i++) a[i] = i + 1;
    sum = 0;
    #pragma acc parallel copyin(a[0:64]) copy(sum) num_gangs(8)
    {
        #pragma acc loop gang
        for (i = 0; i < 64; i++) {
            sum = sum + a[i];
        }
    }
    return (sum == 2080);
}
`

// TestRaceCheckHasTeeth pins the dynamic side of the differential: the
// shared-accumulator program must produce observable write-write or
// read-write conflicts on "sum" within a few seeds, and the static oracle
// must agree (proven-dependent), so the differential contract is exercised
// by at least one genuinely racy execution.
func TestRaceCheckHasTeeth(t *testing.T) {
	prog, err := cfront.Parse(raceCheckSource)
	if err != nil {
		t.Fatal(err)
	}
	ref := compiler.NewReference()
	exe, _, err := ref.Compile(prog)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}

	dep := false
	for _, s := range exe.LaneSafety {
		if s.Verdict == analysis.LaneProvenDependent {
			dep = true
		}
	}
	if !dep {
		t.Fatalf("static oracle did not prove the shared accumulator dependent: %v", exe.LaneSafety)
	}

	seen := false
	for seed := int64(1); seed <= 20 && !seen; seed++ {
		res := interp.Run(exe, interp.RunConfig{Seed: seed, RaceCheck: true})
		if res.Err != nil {
			t.Fatalf("seed %d: %v", seed, res.Err)
		}
		for _, r := range res.Races {
			if r.Var == "sum" {
				seen = true
			}
			if !raceCovered(exe.LaneSafety, r) {
				t.Errorf("seed %d: %v not covered by %v", seed, r, exe.LaneSafety)
			}
		}
	}
	if !seen {
		t.Error("no dynamic race on \"sum\" observed in 20 seeds; the tracker has lost its teeth")
	}
}

// TestRaceCheckCleanRun pins the other direction on a data-parallel
// program: disjoint per-lane element writes must report no races at all.
func TestRaceCheckCleanRun(t *testing.T) {
	src := `#include <stdio.h>
#include <stdlib.h>
#include <math.h>
#include <openacc.h>

int acc_test()
{
    int i;
    int a[64];
    for (i = 0; i < 64; i++) a[i] = 0;
    #pragma acc parallel copy(a[0:64]) num_gangs(8)
    {
        #pragma acc loop gang
        for (i = 0; i < 64; i++) {
            a[i] = 2 * i;
        }
    }
    for (i = 0; i < 64; i++) {
        if (a[i] != 2*i) return 0;
    }
    return 1;
}
`
	prog, err := cfront.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	exe, _, err := compiler.NewReference().Compile(prog)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res := interp.Run(exe, interp.RunConfig{Seed: 7, RaceCheck: true})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Exit != 1 {
		t.Fatalf("exit = %d, want 1", res.Exit)
	}
	if len(res.Races) != 0 {
		msg := ""
		for _, r := range res.Races {
			msg += fmt.Sprintf("\n  %v", r)
		}
		t.Fatalf("clean program reported races:%s", msg)
	}
}
