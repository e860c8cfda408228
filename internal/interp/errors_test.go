package interp_test

import (
	"errors"
	"testing"

	"accv/internal/ast"
	"accv/internal/bytecode"
	"accv/internal/cfront"
	"accv/internal/compiler"
	"accv/internal/ffront"
	"accv/internal/interp"
)

// TestRuntimeErrorsAgreeAcrossEngines runs one program per message the
// shared access rules raise (access.go and rt.VarInfo's rank and bounds
// checks) under the tree-walker and the VM, and requires the same
// RuntimeError, line and message, from both. The engine differentials over
// the template corpus see only a handful of crash messages, so this table
// is what holds the engines to the one copy of each rule.
//
// Under the VM a case marked batched must run its nest as a lane batch,
// and every other case but the ones marked tree must find the faulting
// access lowered to a VM instruction; the test checks both. Two messages
// have no case: "dereference of null pointer" (checkDeref's nil buffer)
// cannot be reached by any program under either engine, because every
// caller rejects a null pointer with its own message first; and a failed
// Buffer.Load of a scalar or pointer variable cannot happen, since both
// are one-element buffers read at element 0.
func TestRuntimeErrorsAgreeAcrossEngines(t *testing.T) {
	for _, tc := range []struct {
		name    string
		fortran bool
		src     string
		line    int
		msg     string
		// tree marks a fault the VM does not lower: it tree-walks the
		// access under both engines.
		tree bool
		// batched marks a fault inside a nest the VM runs as a lane batch.
		batched bool
	}{
		{name: "undeclared variable, load", src: `
int acc_test() {
    return y;
}`, line: 3, msg: `undeclared variable "y"`},
		{name: "undeclared variable, store", src: `
int acc_test() {
    y = 1;
    return 1;
}`, line: 3, msg: `undeclared variable "y"`},
		{name: "undeclared variable, subscript", src: `
int acc_test() {
    y[0] = 1;
    return 1;
}`, line: 3, msg: `undeclared variable "y"`},
		{name: "undeclared variable in a kernel", src: `
int acc_test() {
    int i;
    #pragma acc parallel num_gangs(1)
    {
        i = y;
    }
    return 1;
}`, line: 6, msg: `undeclared variable "y"`},
		{name: "array assigned without a subscript", src: `
int acc_test() {
    int a[4];
    a = 1;
    return 1;
}`, line: 4, msg: `cannot assign to array "a" without a subscript`},
		{name: "host variable in a compute region", src: `
#pragma acc routine
void touch(int *a) {
    a[0] = 1;
}
int acc_test() {
    int a[4];
    int *p = a;
    #pragma acc parallel copyin(p) num_gangs(1)
    {
        touch(p);
    }
    return 1;
}`, line: 4, msg: `compute region accesses host variable "a" that has no device copy`},
		{name: "device-resident variable in host code", src: `
void touch(int *a) {
    a[0] = 1;
}
int acc_test() {
    int a[4];
    #pragma acc data copy(a)
    {
        #pragma acc host_data use_device(a)
        {
            touch(a);
        }
    }
    return 1;
}`, line: 3, msg: `host code accesses device-resident variable "a"`},
		{name: "null pointer subscript", src: `
int acc_test() {
    int *p;
    p[0] = 1;
    return 1;
}`, line: 4, msg: `subscript of null pointer "p"`},
		{name: "pointer with two subscripts", src: `
int acc_test() {
    int a[4];
    int *p = a;
    p[1][2] = 1;
    return 1;
}`, line: 5, msg: "pointer subscript must be one-dimensional"},
		{name: "pointer expression with two subscripts", src: `
int acc_test() {
    int a[4];
    int *p = a;
    return (p + 1)[0][1];
}`, line: 5, msg: "pointer subscript must be one-dimensional", tree: true},
		{name: "too few subscripts", src: `
int acc_test() {
    int a[3][4];
    a[1] = 2;
    return 1;
}`, line: 4, msg: "a has 2 dimensions, indexed with 1 subscripts"},
		{name: "C index out of range, dimension 1", src: `
int acc_test() {
    int a[3][4];
    a[3][0] = 2;
    return 1;
}`, line: 4, msg: "index 3 out of range [0,3) in dimension 1 of a"},
		{name: "C index out of range, dimension 2", src: `
int acc_test() {
    int a[3][4];
    return a[0][-1];
}`, line: 4, msg: "index -1 out of range [0,4) in dimension 2 of a"},
		{name: "Fortran index below the lower bound, dimension 1", fortran: true, src: `
program t
  integer :: a(3,4)
  a(0,1) = 1
  test_result = 1
end program t
`, line: 4, msg: "index 0 out of range [1,4) in dimension 1 of a"},
		{name: "Fortran index out of range, dimension 2", fortran: true, src: `
program t
  integer :: a(3,4)
  a(3,5) = 1
  test_result = 1
end program t
`, line: 4, msg: "index 5 out of range [1,5) in dimension 2 of a"},
		{name: "Fortran index below a declared lower bound", fortran: true, src: `
program t
  integer :: b(2:4)
  b(1) = 1
  test_result = 1
end program t
`, line: 4, msg: "index 1 out of range [2,5) in dimension 1 of b"},
		{name: "host dereference of a device pointer", src: `
int acc_test() {
    int *d = (int*) acc_malloc(4 * sizeof(int));
    d[0] = 1;
    return 1;
}`, line: 4, msg: "segmentation fault: host dereference of device pointer (acc_malloc)"},
		{name: "device dereference of a host pointer", src: `
int acc_test() {
    int a[4];
    int *p = a;
    #pragma acc parallel copyin(p) num_gangs(1)
    {
        p[0] = 1;
    }
    return 1;
}`, line: 7, msg: "device dereference of host pointer (a)"},
		{name: "index out of range in a batched nest", src: `
int acc_test() {
    int a[8];
    int i;
    #pragma acc parallel copy(a) num_gangs(2)
    {
        #pragma acc loop gang
        for (i = 0; i < 16; i++) a[i] = i;
    }
    return 1;
}`, line: 8, msg: "index 8 out of range [0,8) in dimension 1 of a", batched: true},
	} {
		exe := compileErrorCase(t, tc.name, tc.fortran, tc.src)
		for _, eng := range []interp.Engine{interp.EngineTree, interp.EngineVM} {
			res := interp.Run(exe, interp.RunConfig{Engine: eng, Seed: 1})
			var re *interp.RuntimeError
			if !errors.As(res.Err, &re) {
				t.Errorf("%s, %s engine: got %v, want a runtime error", tc.name, eng, res.Err)
				continue
			}
			if re.Line != tc.line || re.Msg != tc.msg {
				t.Errorf("%s, %s engine: line %d %q, want line %d %q", tc.name, eng, re.Line, re.Msg, tc.line, tc.msg)
			}
			if eng == interp.EngineVM && tc.batched && res.SpmdBatchedNests == 0 {
				t.Errorf("%s: the nest did not run batched (fallbacks %v)", tc.name, res.SpmdFallbacks)
			}
		}
		if !tc.tree && !tc.batched && !lowersAccessAt(exe.Code, tc.line) {
			t.Errorf("%s: the VM lowers no access at line %d, so the case does not exercise it", tc.name, tc.line)
		}
	}
}

func compileErrorCase(t *testing.T, name string, fortran bool, src string) *compiler.Executable {
	t.Helper()
	var prog *ast.Program
	var err error
	if fortran {
		prog, err = ffront.Parse(src)
	} else {
		prog, err = cfront.Parse(src)
	}
	if err != nil {
		t.Fatalf("%s: parse: %v", name, err)
	}
	exe, _, err := compiler.Compile(prog, compiler.Options{Spec: compiler.Spec20})
	if err != nil {
		t.Fatalf("%s: compile: %v", name, err)
	}
	return exe
}

// lowersAccessAt reports whether a lowered proc loads or stores a named
// variable or element at the line.
func lowersAccessAt(m *bytecode.Module, line int) bool {
	for _, p := range m.Procs() {
		for _, ins := range p.Code {
			switch ins.Op {
			case bytecode.OpLoadVar, bytecode.OpStoreVar, bytecode.OpAugVar,
				bytecode.OpLoadIdx, bytecode.OpStoreIdx, bytecode.OpAugIdx:
				if int(ins.Line) == line {
					return true
				}
			}
		}
	}
	return false
}
