package interp_test

import (
	"fmt"
	"strings"
	"testing"

	"accv/internal/interp"
)

// TestElementKindsAgreeAcrossEngines stores int, float and double values
// into int, float and double arrays through =, +=, *= and /=, in host
// code, in a kernel nest the VM declines to batch and in one it batches,
// and requires the VM to leave every element with the tree-walker's bits:
// the VMs' word paths must convert on store exactly as Buffer.Store does,
// re-rounding float elements and truncating toward zero into ints.
func TestElementKindsAgreeAcrossEngines(t *testing.T) {
	const rows = 4
	// Case k stores into arrays ik (int), fk (float) and dk (double), one
	// array per case: the lane-safety oracle proves a nest only while each
	// lane writes one element of an array.
	var decls, inits, stmts, prints, arrays strings.Builder
	k := 0
	for _, src := range []string{"iv", "fv", "dv"} {
		for _, op := range []string{"=", "+=", "*=", "/="} {
			fmt.Fprintf(&decls, "    int i%[1]d[%[2]d];\n    float f%[1]d[%[2]d];\n    double d%[1]d[%[2]d];\n", k, rows)
			for _, arr := range []string{"i", "f", "d"} {
				fmt.Fprintf(&inits, "        %s%d[i] = 3;\n", arr, k)
				fmt.Fprintf(&stmts, "            %s%d[i] %s %s;\n", arr, k, op, src)
				fmt.Fprintf(&arrays, ", %s%d", arr, k)
			}
			fmt.Fprintf(&prints, "        printf(\"%%d %%g %%g\\n\", i%[1]d[i], f%[1]d[i], d%[1]d[i]);\n", k)
			k++
		}
	}
	cols := k
	copied := strings.TrimPrefix(arrays.String(), ", ")
	for _, tc := range []struct {
		name, body string
		batched    bool
	}{
		{name: "host code", body: `
    for (i = 0; i < %[2]d; i++) {
%[4]s    }`},
		{name: "declined kernel nest", body: `
    #pragma acc parallel copy(%[5]s) num_gangs(%[2]d)
    {
        #pragma acc loop gang
        for (i = 0; i < %[2]d; i++) {
            if (i >= 0) {
%[4]s            }
        }
    }`},
		{name: "batched kernel nest", batched: true, body: `
    #pragma acc parallel copy(%[5]s) num_gangs(%[2]d)
    {
        #pragma acc loop gang
        for (i = 0; i < %[2]d; i++) {
%[4]s        }
    }`},
	} {
		src := fmt.Sprintf(`
int acc_test() {
%[1]s    int iv = 16777217;
    float fv = 2.7;
    double dv = -1.0000001;
    int i;
    for (i = 0; i < %[2]d; i++) {
%[3]s    }`+tc.body+`
    for (i = 0; i < %[2]d; i++) {
%[6]s    }
    return 1;
}`, decls.String(), rows, inits.String(), stmts.String(), copied, prints.String())
		exe := compileErrorCase(t, tc.name, false, src)
		for i, l := range strings.Split(src, "\n") {
			if strings.TrimSpace(l) == "d11[i] /= dv;" && !lowersAccessAt(exe.Code, i+1) {
				t.Errorf("%s: the VM lowers no access at line %d, so the case does not exercise it", tc.name, i+1)
			}
		}
		var out [2]string
		for e, eng := range []interp.Engine{interp.EngineTree, interp.EngineVM} {
			res := interp.Run(exe, interp.RunConfig{Engine: eng, Seed: 1})
			if res.Err != nil || res.Exit != 1 {
				t.Fatalf("%s, %s engine: exit %d, %v", tc.name, eng, res.Exit, res.Err)
			}
			if n := strings.Count(res.Output, "\n"); n != rows*cols {
				t.Fatalf("%s, %s engine: %d elements printed, want %d", tc.name, eng, n, rows*cols)
			}
			out[e] = res.Output
			if eng != interp.EngineVM {
				continue
			}
			if tc.batched && res.SpmdBatchedNests == 0 {
				t.Errorf("%s: the nest did not run batched (fallbacks %v)", tc.name, res.SpmdFallbacks)
			}
			if !tc.batched && res.SpmdBatchedNests != 0 {
				t.Errorf("%s: %d nests ran batched, want none", tc.name, res.SpmdBatchedNests)
			}
		}
		if out[0] != out[1] {
			t.Errorf("%s: the engines disagree on the elements\ntree:\n%s\nvm:\n%s", tc.name, out[0], out[1])
		}
		// Every row took the same stores, so the rows agree too.
		lines := strings.Split(out[1], "\n")
		for r := 1; r < rows; r++ {
			for c := range cols {
				if got, want := lines[r*cols+c], lines[c]; got != want {
					t.Errorf("%s: row %d, case %d reads %q; row 0 reads %q", tc.name, r, c, got, want)
				}
			}
		}
	}
}

// TestBatchedLoadReadsItsUniformSubscript holds a batched element load to
// a subscript that is the same for every lane. The load's destination
// register is its first subscript's, so the subscript must be read before
// the register turns varying, or every lane loads the element its stale
// lane storage names.
func TestBatchedLoadReadsItsUniformSubscript(t *testing.T) {
	exe := compileErrorCase(t, "uniform subscript", false, `
int acc_test() {
    int a[8];
    int b[64];
    int i;
    int k = 2;
    for (i = 0; i < 8; i++) a[i] = 10 + i;
    #pragma acc parallel copyin(a) copyout(b) num_gangs(1)
    {
        #pragma acc loop gang
        for (i = 0; i < 64; i++) b[i] = a[k] + i;
    }
    for (i = 0; i < 64; i++)
        if (b[i] != 12 + i) return 0;
    return 1;
}`)
	for _, eng := range []interp.Engine{interp.EngineTree, interp.EngineVM} {
		res := interp.Run(exe, interp.RunConfig{Engine: eng, Seed: 1})
		if res.Err != nil || res.Exit != 1 {
			t.Errorf("%s engine: exit %d, %v", eng, res.Exit, res.Err)
		}
		if eng == interp.EngineVM && res.SpmdBatchedNests == 0 {
			t.Errorf("the nest did not run batched (fallbacks %v)", res.SpmdFallbacks)
		}
	}
}

// TestTreeSubscriptsDoNotAllocate holds the tree-walker's subscripted
// accesses to the heap: a host loop's allocations per run must not grow
// with its trip count. The tree-walker runs every -engine tree and
// -race-check run and every statement the VM escapes to it.
func TestTreeSubscriptsDoNotAllocate(t *testing.T) {
	allocs := func(n int) float64 {
		exe := compileErrorCase(t, "subscript loop", false, fmt.Sprintf(`
int acc_test() {
    int a[8][8];
    int i;
    int s = 0;
    for (i = 0; i < %[1]d; i++)
        a[i %% 8][i / 8 %% 8] = i;
    for (i = 0; i < %[1]d; i++)
        s = s + a[i %% 8][i / 8 %% 8];
    return s > 0;
}`, n))
		return testing.AllocsPerRun(3, func() {
			if res := interp.Run(exe, interp.RunConfig{Engine: interp.EngineTree}); res.Err != nil || res.Exit != 1 {
				t.Fatalf("trip count %d: exit %d, %v", n, res.Exit, res.Err)
			}
		})
	}
	few, many := allocs(100), allocs(10_000)
	if many > few+100 {
		t.Errorf("a host loop allocates %.0f times per run at 10,000 trips and %.0f at 100: its subscripts allocate", many, few)
	}
}
