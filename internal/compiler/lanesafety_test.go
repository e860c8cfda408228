package compiler

import (
	"testing"

	"accv/internal/analysis"
)

// The SPMD-safety query: a consumer (the future SPMD lowerer, accvet's
// -lane-safety mode) asks the Executable which loop nests are proven free
// of cross-lane conflicts. This pins the contract end to end: Compile
// attaches one LaneSafety entry per partitioned nest, a disjoint
// element-per-lane nest is proven independent, a shared read-modify-write
// is proven dependent, and every compilation carries the oracle.

const laneSafetySrc = `
int acc_test() {
    int i;
    int sum;
    int a[64];
    for (i = 0; i < 64; i++) a[i] = i;
    sum = 0;
    #pragma acc parallel copy(a[0:64]) num_gangs(4)
    {
        #pragma acc loop gang
        for (i = 0; i < 64; i++) {
            a[i] = a[i] + 1;
        }
    }
    #pragma acc parallel copyin(a[0:64]) copy(sum) num_gangs(4)
    {
        #pragma acc loop gang
        for (i = 0; i < 64; i++) {
            sum = sum + a[i];
        }
    }
    return 1;
}`

func TestExecutableLaneSafety(t *testing.T) {
	exe := mustCompile(t, laneSafetySrc)
	if len(exe.LaneSafety) != 2 {
		t.Fatalf("LaneSafety entries = %d (%v), want 2", len(exe.LaneSafety), exe.LaneSafety)
	}
	first, second := exe.LaneSafety[0], exe.LaneSafety[1]
	if first.Verdict != analysis.LaneProvenIndependent {
		t.Errorf("disjoint element nest: verdict %s, want proven-independent (%+v)",
			first.Verdict, first)
	}
	if second.Verdict != analysis.LaneProvenDependent {
		t.Errorf("shared accumulator nest: verdict %s, want proven-dependent (%+v)",
			second.Verdict, second)
	}
	if second.Verdict == analysis.LaneProvenDependent {
		blocked := false
		for _, b := range second.Blocking {
			if b.Var == "sum" && b.Write {
				blocked = true
			}
		}
		if !blocked {
			t.Errorf("dependent nest does not name the blocking write on sum: %+v", second.Blocking)
		}
	}
	if first.Line >= second.Line {
		t.Errorf("entries not in source order: %d then %d", first.Line, second.Line)
	}
	for _, s := range exe.LaneSafety {
		if s.Func != "acc_test" || s.Levels == "" || s.EndLine < s.Line {
			t.Errorf("malformed entry: %+v", s)
		}
	}
}

// TestLaneSafetyVetOff: the oracle is computed whatever the vet policy —
// the VM keys batching off it, and engine selection must not change
// meaning with -vet off. The policy lives in the harness, so every
// compilation carries the oracle and batch-lowers the proven nest.
func TestLaneSafetyVetOff(t *testing.T) {
	exe, diags, err := compileC(t, laneSafetySrc, Options{})
	if err != nil {
		t.Fatalf("compile: %v (diags %v)", err, diags)
	}
	if len(exe.LaneSafety) == 0 {
		t.Fatal("compilation has no LaneSafety; the batching oracle must not depend on the vet policy")
	}
	if len(exe.Batch) == 0 {
		t.Fatal("compilation batch-lowered nothing; the proven nest should batch")
	}
}
