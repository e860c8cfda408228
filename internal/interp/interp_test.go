package interp_test

import (
	"context"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"accv/internal/cfront"
	"accv/internal/compiler"
	"accv/internal/device"
	"accv/internal/ffront"
	"accv/internal/interp"
	"accv/internal/mem"
)

// run compiles and runs with full control over the configuration.
func run(t *testing.T, src string, cfg interp.RunConfig) interp.Result {
	t.Helper()
	prog, err := cfront.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	exe, _, err := compiler.Compile(prog, compiler.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return interp.Run(exe, cfg)
}

func TestParseEngine(t *testing.T) {
	for _, tt := range []struct {
		in      string
		want    interp.Engine
		wantErr bool
	}{
		{"", interp.EngineVM, false},
		{"vm", interp.EngineVM, false},
		{"tree", interp.EngineTree, false},
		{"spmd", interp.EngineVM, true},
		{"VM", interp.EngineVM, true},
	} {
		got, err := interp.ParseEngine(tt.in)
		if (err != nil) != tt.wantErr || got != tt.want {
			t.Errorf("ParseEngine(%q) = %v, %v; want %v, error %v", tt.in, got, err, tt.want, tt.wantErr)
		}
		if err != nil && !strings.Contains(err.Error(), "want vm or tree") {
			t.Errorf("ParseEngine(%q) error %q does not name the valid engines", tt.in, err)
		}
		if err == nil && tt.in != "" && got.String() != tt.in {
			t.Errorf("ParseEngine(%q).String() = %q, want the name back", tt.in, got)
		}
	}
}

func TestPrintfFormatting(t *testing.T) {
	res := run(t, `
int acc_test() {
    printf("d=%d f=%f s=%s pct=%%\n", 42, 1.5, "hi");
    fprintf(stderr, "ld=%ld\n", 7);
    return 1;
}`, interp.RunConfig{})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !strings.Contains(res.Output, "d=42 f=1.500000 s=hi pct=%") {
		t.Errorf("printf output: %q", res.Output)
	}
	if !strings.Contains(res.Output, "ld=7") {
		t.Errorf("fprintf output: %q", res.Output)
	}
}

func TestPointerArithmeticAndDeref(t *testing.T) {
	res := run(t, `
int acc_test() {
    int a[8];
    int *p = (int*) malloc(4 * sizeof(int));
    int i;
    for (i = 0; i < 4; i++) p[i] = i * 10;
    int *q = p + 1;
    a[0] = *q;
    a[1] = q[2];
    a[2] = q - p;
    free(p);
    return (a[0] == 10) && (a[1] == 30) && (a[2] == 1);
}`, interp.RunConfig{})
	if res.Err != nil || res.Exit != 1 {
		t.Fatalf("pointer semantics: %v exit=%d", res.Err, res.Exit)
	}
}

func TestIntegerDivisionSemantics(t *testing.T) {
	res := run(t, `
int acc_test() {
    int a = 7 / 2;
    int b = -7 / 2;
    int c = 7 % 3;
    double d = 7 / 2;
    double e = 7.0 / 2;
    return (a == 3) && (b == -3) && (c == 1) && (d == 3) && (e == 3.5);
}`, interp.RunConfig{})
	if res.Err != nil || res.Exit != 1 {
		t.Fatalf("C arithmetic semantics: %v exit=%d", res.Err, res.Exit)
	}
}

func TestDivisionByZeroIsRuntimeError(t *testing.T) {
	res := run(t, `
int acc_test() {
    int z = 0;
    return 1 / z;
}`, interp.RunConfig{})
	if res.Err == nil {
		t.Fatal("division by zero must be a runtime error")
	}
}

func TestOutOfBoundsIsRuntimeError(t *testing.T) {
	res := run(t, `
int acc_test() {
    int a[4];
    a[9] = 1;
    return 1;
}`, interp.RunConfig{})
	var re *interp.RuntimeError
	if res.Err == nil {
		t.Fatal("out-of-bounds store must fail")
	}
	if !asRuntimeError(res.Err, &re) {
		t.Fatalf("want RuntimeError, got %T", res.Err)
	}
}

// TestFailingLanesReportLowestLane pins the error a kernel reports when
// several gangs, or several worker lanes, fail: gang or worker g stores
// out of bounds at index 8+g, and every run under every engine and seed
// must report lane 0's index, whichever lane the scheduler ran first.
func TestFailingLanesReportLowestLane(t *testing.T) {
	for _, level := range []string{"gang", "worker"} {
		src := `
int acc_test() {
    int a[8];
    int i;
    #pragma acc parallel copy(a) num_gangs(4) num_workers(4)
    {
        #pragma acc loop ` + level + `
        for (i = 0; i < 4; i++) a[i + 8] = i;
    }
    return 1;
}`
		for _, eng := range []interp.Engine{interp.EngineVM, interp.EngineTree} {
			for seed := int64(1); seed <= 20; seed++ {
				res := run(t, src, interp.RunConfig{Engine: eng, Seed: seed})
				if res.Err == nil || !strings.Contains(res.Err.Error(), "index 8 out of range") {
					t.Fatalf("%s lanes, %s engine, seed %d: got %v, want lane 0's index 8", level, eng, seed, res.Err)
				}
			}
		}
	}
}

func asRuntimeError(err error, out **interp.RuntimeError) bool {
	re, ok := err.(*interp.RuntimeError)
	if ok {
		*out = re
	}
	return ok
}

func TestOpBudgetStopsInfiniteLoops(t *testing.T) {
	res := run(t, `
int acc_test() {
    int i = 0;
    while (1) { i = i + 1; }
    return 1;
}`, interp.RunConfig{MaxOps: 100000})
	if res.Err != interp.ErrBudget {
		t.Fatalf("want ErrBudget, got %v", res.Err)
	}
}

func TestWallDeadline(t *testing.T) {
	// An infinite loop with a generous op budget but a tiny wall deadline.
	res := run(t, `
int acc_test() {
    int i = 0;
    while (1) { i = i + 1; }
    return 1;
}`, interp.RunConfig{MaxOps: 1 << 40, Timeout: 30 * time.Millisecond})
	if res.Err != interp.ErrDeadline && res.Err != interp.ErrBudget {
		t.Fatalf("want deadline abort, got %v", res.Err)
	}
}

func TestContextCancelStopsRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	res := run(t, `
int acc_test() {
    int i = 0;
    while (1) { i = i + 1; }
    return 1;
}`, interp.RunConfig{MaxOps: 1 << 40, Ctx: ctx})
	if res.Err != interp.ErrCanceled {
		t.Fatalf("want ErrCanceled, got %v", res.Err)
	}
}

func TestContextDeadlineMapsToErrDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	res := run(t, `
int acc_test() {
    int i = 0;
    while (1) { i = i + 1; }
    return 1;
}`, interp.RunConfig{MaxOps: 1 << 40, Ctx: ctx})
	if res.Err != interp.ErrDeadline {
		t.Fatalf("want ErrDeadline, got %v", res.Err)
	}
}

func TestDeadContextNeverStarts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := run(t, `
int acc_test() {
    return 1;
}`, interp.RunConfig{Ctx: ctx})
	if res.Err != interp.ErrCanceled {
		t.Fatalf("want ErrCanceled for a pre-canceled context, got %v", res.Err)
	}
	if res.Ops != 0 {
		t.Errorf("ran %d ops under a dead context, want 0", res.Ops)
	}
}

func TestBudgetInsideKernel(t *testing.T) {
	// The hang is inside a compute region: gang goroutines must abort too.
	res := run(t, `
int acc_test() {
    int flag = 0;
    #pragma acc parallel copy(flag)
    {
        while (1) { flag = 1; }
    }
    return 1;
}`, interp.RunConfig{MaxOps: 200000})
	if res.Err != interp.ErrBudget {
		t.Fatalf("want ErrBudget from inside the kernel, got %v", res.Err)
	}
}

func TestHostCannotTouchDevicePointer(t *testing.T) {
	res := run(t, `
int acc_test() {
    int *d = (int*) acc_malloc(4 * sizeof(int));
    d[0] = 1;
    return 1;
}`, interp.RunConfig{})
	if res.Err == nil || !strings.Contains(res.Err.Error(), "segmentation fault") {
		t.Fatalf("host dereference of a device pointer must fault, got %v", res.Err)
	}
}

func TestRuntimeRoutinesOnHost(t *testing.T) {
	res := run(t, `
int acc_test() {
    if (acc_get_num_devices(acc_device_not_host) < 1) return 10;
    if (acc_on_device(acc_device_host) != 1) return 11;
    if (acc_on_device(acc_device_not_host) != 0) return 12;
    acc_init(acc_device_not_host);
    if (acc_get_device_num(acc_device_not_host) != 0) return 13;
    acc_set_device_num(1, acc_device_not_host);
    if (acc_get_device_num(acc_device_not_host) != 1) return 14;
    acc_shutdown(acc_device_not_host);
    return 1;
}`, interp.RunConfig{Platform: device.NewPlatform(device.Config{}, 2)})
	if res.Err != nil || res.Exit != 1 {
		t.Fatalf("runtime routines: %v exit=%d", res.Err, res.Exit)
	}
}

func TestAsyncErrorSurfacesAtWait(t *testing.T) {
	res := run(t, `
int acc_test() {
    int n = 8;
    int i;
    int a[8];
    #pragma acc parallel copy(a[0:n]) async(1)
    {
        #pragma acc loop
        for (i = 0; i < n; i++) a[i+100] = 1;
    }
    #pragma acc wait(1)
    return 1;
}`, interp.RunConfig{})
	if res.Err == nil {
		t.Fatal("async kernel fault must surface at wait")
	}
}

func TestUnwaitedAsyncErrorSurfacesAtExit(t *testing.T) {
	res := run(t, `
int acc_test() {
    int n = 8;
    int i;
    int a[8];
    #pragma acc parallel copy(a[0:n]) async(1)
    {
        #pragma acc loop
        for (i = 0; i < n; i++) a[i+100] = 1;
    }
    return 1;
}`, interp.RunConfig{})
	if res.Err == nil {
		t.Fatal("async kernel fault must surface when the program drains at exit")
	}
}

// The first acc_async_test after an async launch reports the work pending
// however long the host idles first, and polling still ends once it is done.
func TestFirstAsyncTestReportsPending(t *testing.T) {
	src := `
int acc_test() {
    int n = 64;
    int i, s, first, polls, errors;
    int a[64];
    for (i = 0; i < n; i++) a[i] = 0;
    #pragma acc parallel copy(a[0:n]) async(1)
    {
        #pragma acc loop
        for (i = 0; i < n; i++) a[i] = i + 1;
    }
    s = 0;
    for (i = 0; i < 200000; i++) s = s + 1;
    first = acc_async_test(1);
    polls = 0;
    while (!acc_async_test(1)) polls++;
    errors = 0;
    for (i = 0; i < n; i++) {
        if (a[i] != i + 1) errors++;
    }
    printf("first=%d errors=%d\n", first, errors);
    return 1;
}`
	for _, eng := range []interp.Engine{interp.EngineVM, interp.EngineTree} {
		res := run(t, src, interp.RunConfig{Engine: eng})
		if res.Err != nil {
			t.Fatalf("%s: %v", eng, res.Err)
		}
		if res.Output != "first=0 errors=0\n" {
			t.Errorf("%s: got %q, want the first test pending and every element copied back", eng, res.Output)
		}
	}
}

// Property: a device loop reduction over random int arrays equals the
// sequential Go sum, for every operator with an exact integer semantics.
func TestReductionMatchesSequential(t *testing.T) {
	ops := []struct {
		name string
		fold func(acc, v int64) int64
		init int64
	}{
		{"+", func(a, v int64) int64 { return a + v }, 0},
		{"&", func(a, v int64) int64 { return a & v }, -1},
		{"|", func(a, v int64) int64 { return a | v }, 0},
		{"^", func(a, v int64) int64 { return a ^ v }, 0},
	}
	prog, err := cfront.Parse(`
int acc_test() { return 1; }
`)
	if err != nil {
		t.Fatal(err)
	}
	_ = prog
	f := func(raw []int16, pick uint8) bool {
		if len(raw) == 0 || len(raw) > 24 {
			return true
		}
		op := ops[int(pick)%len(ops)]
		want := op.init
		src := "int acc_test() {\n    int i;\n    int s;\n    int a[24];\n"
		for i, v := range raw {
			src += "    a[" + itoa(int64(i)) + "] = " + itoa(int64(v)) + ";\n"
			want = op.fold(want, int64(v))
		}
		src += "    s = " + itoa(op.init) + ";\n"
		src += "    #pragma acc kernels loop reduction(" + op.name + ":s)\n"
		src += "    for (i = 0; i < " + itoa(int64(len(raw))) + "; i++)\n"
		src += "        s = s " + op.name + " a[i];\n"
		src += "    return (s == (" + itoa(want) + "));\n}\n"
		p, err := cfront.Parse(src)
		if err != nil {
			t.Logf("parse: %v\n%s", err, src)
			return false
		}
		exe, _, err := compiler.Compile(p, compiler.Options{})
		if err != nil {
			t.Logf("compile: %v", err)
			return false
		}
		r := interp.Run(exe, interp.RunConfig{Seed: int64(pick)})
		if r.Err != nil {
			t.Logf("run: %v", r.Err)
			return false
		}
		return r.Exit == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func itoa(v int64) string {
	if v < 0 {
		return "-" + itoa(-v)
	}
	if v < 10 {
		return string(rune('0' + v))
	}
	return itoa(v/10) + string(rune('0'+v%10))
}

// Property: Fortran and C frontends agree on a simple parameterized kernel.
func TestFrontendAgreement(t *testing.T) {
	f := func(n8 uint8, mul int8) bool {
		n := int64(n8%32) + 1
		m := int64(mul%5) + 6 // 1..10ish, nonzero
		cSrc := `
int acc_test() {
    int n = ` + itoa(n) + `;
    int i, errors;
    int a[33];
    for (i = 0; i < n; i++) a[i] = i;
    #pragma acc parallel loop copy(a[0:n])
    for (i = 0; i < n; i++) a[i] = a[i] * ` + itoa(m) + `;
    errors = 0;
    for (i = 0; i < n; i++) {
        if (a[i] != i * ` + itoa(m) + `) errors++;
    }
    return (errors == 0);
}`
		fSrc := `
program t
  integer :: n, i, errors
  integer :: a(33)
  n = ` + itoa(n) + `
  do i = 1, n
    a(i) = i - 1
  end do
  !$acc parallel loop copy(a(1:n))
  do i = 1, n
    a(i) = a(i) * ` + itoa(m) + `
  end do
  errors = 0
  do i = 1, n
    if (a(i) /= (i - 1) * ` + itoa(m) + `) errors = errors + 1
  end do
  if (errors == 0) test_result = 1
end program t
`
		cp, err := cfront.Parse(cSrc)
		if err != nil {
			return false
		}
		fp, err := ffront.Parse(fSrc)
		if err != nil {
			return false
		}
		ce, _, err := compiler.Compile(cp, compiler.Options{})
		if err != nil {
			return false
		}
		fe, _, err := compiler.Compile(fp, compiler.Options{})
		if err != nil {
			return false
		}
		cr := interp.Run(ce, interp.RunConfig{})
		fr := interp.Run(fe, interp.RunConfig{})
		return cr.Err == nil && fr.Err == nil && cr.Exit == 1 && fr.Exit == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestFortranLogicalType(t *testing.T) {
	prog, err := ffront.Parse(`
program t
  logical :: ok
  ok = .true.
  if (ok) then
    if (.not. .false.) test_result = 1
  end if
end program t
`)
	if err != nil {
		t.Fatal(err)
	}
	exe, _, err := compiler.Compile(prog, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := interp.Run(exe, interp.RunConfig{})
	if r.Err != nil || r.Exit != 1 {
		t.Fatalf("logical semantics: %v exit=%d", r.Err, r.Exit)
	}
}

func TestSimCyclesAccumulate(t *testing.T) {
	res := run(t, `
int acc_test() {
    int n = 256;
    int i;
    int a[256];
    #pragma acc parallel loop copyout(a[0:n]) num_gangs(4)
    for (i = 0; i < n; i++) a[i] = i;
    return 1;
}`, interp.RunConfig{})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.SimCycles <= 0 {
		t.Error("kernel execution must charge simulated cycles")
	}
	_ = mem.Int(0) // keep the import for the helper types above
}

func TestPointerComparisons(t *testing.T) {
	res := run(t, `
int acc_test() {
    int *p = (int*) malloc(4 * sizeof(int));
    int *q = p;
    int *r = (int*) malloc(4 * sizeof(int));
    int ok = 1;
    if (p != q) ok = 0;
    if (p == r) ok = 0;
    if (p == NULL) ok = 0;
    free(p);
    free(r);
    return ok;
}`, interp.RunConfig{})
	if res.Err != nil || res.Exit != 1 {
		t.Fatalf("pointer comparisons: %v exit=%d", res.Err, res.Exit)
	}
}

func TestUnaryOperators(t *testing.T) {
	res := run(t, `
int acc_test() {
    int x = 5;
    double d = -2.5;
    int ok = 1;
    if (-x != -5) ok = 0;
    if (~0 != -1) ok = 0;
    if (!0 != 1) ok = 0;
    if (!7 != 0) ok = 0;
    if (-d != 2.5) ok = 0;
    return ok;
}`, interp.RunConfig{})
	if res.Err != nil || res.Exit != 1 {
		t.Fatalf("unary operators: %v exit=%d", res.Err, res.Exit)
	}
}

func TestAddressOfScalar(t *testing.T) {
	res := run(t, `
int acc_test() {
    int x = 3;
    int *p = &x;
    *p = 9;
    return (x == 9);
}`, interp.RunConfig{})
	if res.Err != nil || res.Exit != 1 {
		t.Fatalf("address-of: %v exit=%d", res.Err, res.Exit)
	}
}

func TestMathBuiltins(t *testing.T) {
	res := run(t, `
int acc_test() {
    int ok = 1;
    if (fabs(-2.5) != 2.5) ok = 0;
    if (sqrt(16.0) != 4.0) ok = 0;
    if (pow(2.0, 10) != 1024.0) ok = 0;
    if (fmax(1.0, 2.0) != 2.0) ok = 0;
    if (fmin(1.0, 2.0) != 1.0) ok = 0;
    if (abs(-3) != 3) ok = 0;
    return ok;
}`, interp.RunConfig{})
	if res.Err != nil || res.Exit != 1 {
		t.Fatalf("math builtins: %v exit=%d", res.Err, res.Exit)
	}
}
