package vendors_test

import (
	"testing"

	"accv/internal/ast"
	"accv/internal/cfront"
	"accv/internal/compiler"
	"accv/internal/device"
	"accv/internal/ffront"
	"accv/internal/interp"
	"accv/internal/vendors"
)

// orderCase is one nest the LaneSafety oracle proves independent and the
// reference lowering batches, compiled under a release whose bug effect
// rewrites its plan.
type orderCase struct {
	effect          string
	vendor, version string
	lang            ast.Lang
	src             string
	want            string // the nest's BatchDecline reason
}

var orderCases = []orderCase{
	{"ActNoCombine", "caps", "3.0.7", ast.LangC, `
int acc_test() {
    int i, a[64];
    int p = 1;
    for (i = 0; i < 64; i++) a[i] = 1;
    #pragma acc parallel loop reduction(*:p)
    for (i = 0; i < 64; i++)
        p = p * a[i];
    return p == 1;
}`, "bug-hook"},
	{"ActLoopRedundant", "caps", "3.0.8", ast.LangFortran, `
program redundant
  integer :: n, i
  integer :: a(64)
  n = 64
  !$acc parallel loop worker
  do i = 1, n
    a(i) = i
  end do
  if (a(n) == n) test_result = 1
end program redundant
`, "bug-hook"},
	{"ActLoopPartialLanes", "cray", "8.1.2", ast.LangC, `
int acc_test() {
    int i, a[64];
    #pragma acc parallel loop gang vector
    for (i = 0; i < 64; i++)
        a[i] = i;
    return a[63] == 63;
}`, "bug-hook"},
	{"ActLoopCollapseSwap", "cray", "8.1.2", ast.LangC, `
int acc_test() {
    int i, j, a[8][8];
    #pragma acc parallel loop collapse(2)
    for (i = 0; i < 8; i++)
        for (j = 0; j < 8; j++)
            a[i][j] = i * 8 + j;
    return a[7][7] == 63;
}`, "bug-hook"},
	{"ActLoopDropPlan", "caps", "3.0.8", ast.LangFortran, `
program dropped
  integer :: n, i
  integer :: a(64)
  n = 64
  !$acc parallel loop gang
  do i = 1, n
    a(i) = i
  end do
  if (a(n) == n) test_result = 1
end program dropped
`, "sequential"},
}

// compileNest compiles src under the release and under its pristine
// lowering, and returns both with the program's one loop directive.
func compileNest(t *testing.T, v *vendors.Vendor, lang ast.Lang, src string) (exe, base *compiler.Executable, p *ast.PragmaStmt) {
	t.Helper()
	parse := cfront.Parse
	if lang == ast.LangFortran {
		parse = ffront.Parse
	}
	prog, err := parse(src)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	if exe, _, err = v.Compile(prog); err != nil {
		t.Fatalf("compile: %v", err)
	}
	if base, _, err = v.BaseCompile(prog); err != nil {
		t.Fatalf("base compile: %v", err)
	}
	if len(exe.Loops) != 1 {
		t.Fatalf("%d loop plans, want 1", len(exe.Loops))
	}
	for p = range exe.Loops {
		break
	}
	return exe, base, p
}

// TestEffectsApplyBeforeBatchLowering pins the compile order: a release's
// bug effects rewrite the plans before batch lowering, so a nest whose
// plan an effect rewrote gets no batch program, only the reason it
// declines.
func TestEffectsApplyBeforeBatchLowering(t *testing.T) {
	for _, tc := range orderCases {
		t.Run(tc.effect, func(t *testing.T) {
			tcn, err := vendors.New(tc.vendor, tc.version)
			if err != nil {
				t.Fatal(err)
			}
			exe, base, p := compileNest(t, tcn.(*vendors.Vendor), tc.lang, tc.src)
			// The pristine lowering batches only oracle-proven nests.
			if base.Batch[p] == nil {
				t.Fatalf("the pristine lowering declines the nest (%s); the case tests nothing", base.BatchDecline[p])
			}
			if exe.Batch[p] != nil {
				t.Errorf("%s %s: the rewritten nest has a batch program", tc.vendor, tc.version)
			}
			if got := exe.BatchDecline[p]; got != tc.want {
				t.Errorf("%s %s: decline reason %q, want %q", tc.vendor, tc.version, got, tc.want)
			}
		})
	}
}

// TestSeqIgnoredNestStaysSequential: the seq-ignored bug partitions a
// loop the oracle judged as written, with no partitioned level, so its
// proven-independent verdict says nothing about the partitioned nest. A
// prefix loop under it must decline, at compile time and at run time.
func TestSeqIgnoredNestStaysSequential(t *testing.T) {
	const src = `
program prefix
  integer :: n, i
  integer :: a(64)
  n = 64
  do i = 1, n
    a(i) = 0
  end do
  !$acc parallel loop seq copy(a(1:n))
  do i = 2, n
    a(i) = a(i-1) + 1
  end do
  test_result = 1
end program prefix
`
	tc, err := vendors.New("pgi", "13.2")
	if err != nil {
		t.Fatal(err)
	}
	exe, _, p := compileNest(t, tc.(*vendors.Vendor), ast.LangFortran, src)
	if plan := exe.Loops[p]; plan.Seq {
		t.Fatal("pgi 13.2 Fortran kept the seq clause; the case tests nothing")
	}
	if exe.Batch[p] != nil || exe.BatchDecline[p] != "sequential" {
		t.Errorf("batch %v, decline reason %q; want no batch program and %q", exe.Batch[p] != nil, exe.BatchDecline[p], "sequential")
	}
	res := interp.Run(exe, interp.RunConfig{Platform: device.NewPlatform(tc.DeviceConfig(), 1)})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.SpmdBatchedNests != 0 || res.SpmdFallbacks["sequential"] == 0 {
		t.Errorf("batched %d, fallbacks %v; want the nest to fall back as sequential", res.SpmdBatchedNests, res.SpmdFallbacks)
	}
}
