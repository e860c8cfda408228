package bytecode_test

import (
	"fmt"
	"testing"

	"accv/internal/ast"
	"accv/internal/bytecode"
	"accv/internal/cfront"
	"accv/internal/ffront"
)

// cNest wraps a loop body in a C function whose first loop is the nest:
// `i` is the induction variable, `s` the reduction variable when a case
// names it, and `k` and `t` lane-shared scalars.
func cNest(body string) string {
	return `
int f() {
    int i, k, s, t;
    int a[64], b[64];
    for (i = 0; i < 64; i++)
` + body + `
    return 0;
}`
}

// firstLoopBody returns the body of the outermost loop of prog.
func firstLoopBody(t *testing.T, prog *ast.Program) ast.Stmt {
	t.Helper()
	var body ast.Stmt
	ast.Walk(prog, func(n ast.Node) bool {
		if body != nil {
			return false
		}
		switch x := n.(type) {
		case *ast.ForStmt:
			body = x.Body
		case *ast.DoStmt:
			body = x.Body
		}
		return body == nil
	})
	if body == nil {
		t.Fatal("program has no loop")
	}
	return body
}

// TestLowering is the package's table test. Batch cases lower the first
// loop's body as a one-level nest over `i`: an accepted shape must emit
// want, a declined one must report reason. Program cases lower the whole
// program, and f's proc must hand the construct named by escaped to the
// tree-walker through want.
func TestLowering(t *testing.T) {
	cases := []struct {
		name    string
		src     string
		fortran bool
		batch   bool
		reds    []string
		reason  string      // batch: the decline reason, "" when accepted
		want    bytecode.Op // accepted batch: an opcode the lowering emits
		escaped string      // program: the node type want hands over
	}{
		// The batch language the measured programs use.
		{name: "block and declaration", batch: true, src: cNest(`{ int v = a[i]; b[i] = v; }`), want: bytecode.BDecl},
		{name: "store to a lane local", batch: true, src: cNest(`{ int v; v = a[i] * 2; b[i] = v; }`), want: bytecode.BStoreL},
		{name: "store to an element", batch: true, src: cNest(`b[i] = a[i] + 1;`), want: bytecode.BStoreIdx},
		{name: "compound store to an element", batch: true, src: cNest(`b[i] += a[i];`), want: bytecode.BAugIdx},
		{name: "store to a shared scalar", batch: true, src: cNest(`{ t = 3; b[i] = t; }`), want: bytecode.BStoreU},
		{name: "compound store after re-initialization", batch: true, src: cNest(`{ t = 3; t += 1; b[i] = t; }`), want: bytecode.BAugU},
		{name: "reduction s op= e", batch: true, src: cNest(`s += a[i];`), reds: []string{"s"}, want: bytecode.BRed},
		{name: "reduction s = s op e", batch: true, src: cNest(`s = s * a[i];`), reds: []string{"s"}, want: bytecode.BRed},
		{name: "reduction s++", batch: true, src: cNest(`s++;`), reds: []string{"s"}, want: bytecode.BRed},
		{name: "uniform counted for", batch: true, src: cNest(`{ double v = a[i]; for (k = 0; k < 48; k++) v = v + 0.5; b[i] = v; }`), want: bytecode.BJumpUFalse},

		// Constructs without a lockstep batch form.
		{name: "if", batch: true, src: cNest(`if (a[i] > 3) b[i] = 1;`), reason: "unsupported-construct"},
		{name: "uniform if", batch: true, src: cNest(`if (k > 3) b[i] = 1;`), reason: "unsupported-construct"},
		{name: "while", batch: true, src: cNest(`while (a[i] > 3) b[i] = 1;`), reason: "unsupported-construct"},
		{name: "fortran do", batch: true, fortran: true, src: `
program p
  integer :: i, k
  integer :: b(64)
  do i = 1, 64
    do k = 1, 4
      b(i) = b(i) + k
    end do
  end do
end program p
`, reason: "unsupported-construct"},
		{name: "varying-condition for", batch: true, src: cNest(`for (k = 0; k < a[i]; k++) b[i] = k;`), reason: "unsupported-construct"},
		{name: "varying-post for", batch: true, src: cNest(`{ int v = 0; for (k = 0; k < 4; v++) b[i] = k; }`), reason: "unsupported-construct"},
		{name: "&&", batch: true, src: cNest(`b[i] = a[i] > 0 && a[i] < 9;`), reason: "unsupported-construct"},
		{name: "||", batch: true, src: cNest(`b[i] = a[i] < 0 || a[i] > 9;`), reason: "unsupported-construct"},
		{name: "negation", batch: true, src: cNest(`b[i] = -a[i];`), reason: "unsupported-construct"},
		{name: "logical not", batch: true, src: cNest(`b[i] = !a[i];`), reason: "unsupported-construct"},
		{name: "compound store to a lane local", batch: true, src: cNest(`{ int v = 0; v += a[i]; b[i] = v; }`), reason: "unsupported-construct"},

		// The other decline reasons keep their triggers.
		{name: "reduction read", batch: true, src: cNest(`b[i] = s;`), reds: []string{"s"}, reason: "reduction-shape"},
		{name: "reduction plain store", batch: true, src: cNest(`s = a[i];`), reds: []string{"s"}, reason: "reduction-shape"},
		{name: "carried shared scalar", batch: true, src: cNest(`{ t += 1; b[i] = t; }`), reason: "shared-scalar-carried"},
		{name: "varying shared-scalar store", batch: true, src: cNest(`t = a[i];`), reason: "shared-scalar-store"},

		// Whole-program lowering: pointer access and bare returns escape.
		{name: "*p load", src: `int f(int *p) { int x; x = *p; return x; }`, want: bytecode.OpEvalExpr, escaped: "*ast.UnaryExpr"},
		{name: "*p store", src: `int f(int *p) { *p = 3; return 0; }`, want: bytecode.OpEscape, escaped: "*ast.AssignStmt"},
		{name: "*p compound store", src: `int f(int *p) { *p += 3; return 0; }`, want: bytecode.OpEscape, escaped: "*ast.AssignStmt"},
		{name: "bare return", src: `void f() { return; }`, want: bytecode.OpEscape, escaped: "*ast.ReturnStmt"},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			parse := cfront.Parse
			if tt.fortran {
				parse = ffront.Parse
			}
			prog, err := parse(tt.src)
			if err != nil {
				t.Fatal(err)
			}
			if tt.batch {
				bp, reason := bytecode.LowerBatch("nest", 1, firstLoopBody(t, prog), []string{"i"}, tt.reds)
				switch {
				case reason != tt.reason:
					t.Fatalf("decline reason = %q, want %q", reason, tt.reason)
				case reason == "" && !emits(bp.Code, tt.want):
					t.Errorf("lowering never emits opcode %d: %v", tt.want, bp.Code)
				}
				return
			}
			var f *bytecode.Proc
			for _, p := range bytecode.LowerProgram(prog).Procs() {
				if p.Name == "f" {
					f = p
				}
			}
			if f == nil {
				t.Fatal("f was not lowered")
			}
			var handed []string
			for _, in := range f.Code {
				switch {
				case in.Op != tt.want:
				case in.Op == bytecode.OpEscape:
					handed = append(handed, fmt.Sprintf("%T", f.Stmts[in.B]))
				case in.Op == bytecode.OpEvalExpr:
					handed = append(handed, fmt.Sprintf("%T", f.Exprs[in.B]))
				}
			}
			if len(handed) != 1 || handed[0] != tt.escaped {
				t.Errorf("opcode %d hands over %v, want [%s]", tt.want, handed, tt.escaped)
			}
		})
	}
}

func emits(code []bytecode.Ins, op bytecode.Op) bool {
	for _, in := range code {
		if in.Op == op {
			return true
		}
	}
	return false
}
