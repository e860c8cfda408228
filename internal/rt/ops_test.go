package rt_test

import (
	"math"
	"strings"
	"testing"
	"time"

	"accv/internal/ast"
	"accv/internal/mem"
	"accv/internal/rt"
)

// same reports whether two values have the same kind and payload; NaN
// equals NaN so a NaN result can be pinned.
func same(a, b mem.Value) bool {
	if a.K != b.K {
		return false
	}
	switch a.K {
	case mem.KF32, mem.KF64:
		return a.F == b.F || (math.IsNaN(a.F) && math.IsNaN(b.F))
	case mem.KPtr:
		return a.P == b.P
	case mem.KStr:
		return a.S == b.S
	}
	return a.I == b.I
}

func TestBinOp(t *testing.T) {
	i, f32, f64 := mem.Int, mem.F32, mem.F64
	inf := math.Inf(1)
	for _, tc := range []struct {
		name string
		k    ast.OpKind
		l, r mem.Value
		want mem.Value
		err  string // substring of the expected error; "" for none
	}{
		// int × int
		{"int add", ast.OpAdd, i(7), i(-2), i(5), ""},
		{"int sub", ast.OpSub, i(7), i(9), i(-2), ""},
		{"int mul", ast.OpMul, i(-3), i(4), i(-12), ""},
		{"int add wraps", ast.OpAdd, i(math.MaxInt64), i(1), i(math.MinInt64), ""},
		{"int div truncates", ast.OpDiv, i(-7), i(2), i(-3), ""},
		{"int div by zero", ast.OpDiv, i(1), i(0), mem.Value{}, "integer division by zero"},
		{"int rem sign of dividend", ast.OpRem, i(-7), i(2), i(-1), ""},
		{"int rem by zero", ast.OpRem, i(7), i(0), mem.Value{}, "integer modulo by zero"},
		{"int eq", ast.OpEq, i(3), i(3), i(1), ""},
		{"int ne", ast.OpNe, i(3), i(3), i(0), ""},
		{"int lt", ast.OpLt, i(-1), i(0), i(1), ""},
		{"int le", ast.OpLe, i(1), i(0), i(0), ""},
		{"int gt", ast.OpGt, i(1), i(0), i(1), ""},
		{"int ge", ast.OpGe, i(0), i(0), i(1), ""},
		{"and", ast.OpAnd, i(12), i(10), i(8), ""},
		{"or", ast.OpOr, i(12), i(10), i(14), ""},
		{"xor", ast.OpXor, i(12), i(10), i(6), ""},
		{"shl", ast.OpShl, i(1), i(3), i(8), ""},
		{"shl count masked to 6 bits", ast.OpShl, i(1), i(65), i(2), ""},
		{"shr is arithmetic", ast.OpShr, i(-8), i(1), i(-4), ""},
		{"shift of a float truncates", ast.OpShl, f64(2.9), i(1), i(4), ""},
		{"land", ast.OpLAnd, i(2), f64(0.5), i(1), ""},
		{"lor", ast.OpLOr, i(0), f64(0), i(0), ""},
		// Fortran **
		{"int pow", ast.OpPow, i(2), i(10), i(1024), ""},
		{"int pow zero exponent", ast.OpPow, i(-5), i(0), i(1), ""},
		{"int pow odd negative base", ast.OpPow, i(-2), i(3), i(-8), ""},
		{"int pow negative exponent", ast.OpPow, i(2), i(-1), i(0), ""},
		{"int pow one to a negative exponent", ast.OpPow, i(1), i(-1), i(1), ""},
		{"int pow minus one to an odd negative exponent", ast.OpPow, i(-1), i(-1), i(-1), ""},
		{"int pow minus one to an even negative exponent", ast.OpPow, i(-1), i(-2), i(1), ""},
		{"int pow zero to a negative exponent", ast.OpPow, i(0), i(-1), mem.Value{}, "integer division by zero"},
		{"int pow wraps as repeated multiplication", ast.OpPow, i(3), i(40), i(repeatedMul(3, 40)), ""},
		{"int pow huge exponent", ast.OpPow, i(2), i(2000000000), i(0), ""},
		{"f64 pow negative exponent", ast.OpPow, f64(2), i(-1), f64(0.5), ""},
		{"f32 pow negative exponent", ast.OpPow, f32(2), i(-2), f32(0.25), ""},
		{"mixed pow is f64", ast.OpPow, f32(2), f64(0.5), f64(math.Sqrt2), ""},
		// f32 and f64
		{"f32 add stays f32", ast.OpAdd, f32(1.5), f32(2.25), f32(3.75), ""},
		{"f32 rounds", ast.OpDiv, f32(1), f32(3), f32(1.0 / 3), ""},
		{"f32 div by zero is inf", ast.OpDiv, f32(1), f32(0), f32(inf), ""},
		{"f64 add rounds in double precision", ast.OpAdd, f64(0.1), f64(0.2), f64(0.30000000000000004), ""},
		{"f64 div by zero is inf", ast.OpDiv, f64(-1), f64(0), f64(-inf), ""},
		{"f64 zero over zero is nan", ast.OpDiv, f64(0), f64(0), f64(math.NaN()), ""},
		{"f64 lt yields int", ast.OpLt, f64(0.5), f64(1), i(1), ""},
		{"nan compares unequal", ast.OpEq, f64(math.NaN()), f64(math.NaN()), i(0), ""},
		{"nan ne", ast.OpNe, f64(math.NaN()), f64(1), i(1), ""},
		{"f32 ge yields int", ast.OpGe, f32(2), f32(2), i(1), ""},
		{"float rem", ast.OpRem, f64(7), i(2), mem.Value{}, "% requires integer operands"},
		// mixed kinds
		{"int plus f32 is f32", ast.OpAdd, i(1), f32(0.5), f32(1.5), ""},
		{"int over f64 is f64", ast.OpDiv, i(7), f64(2), f64(3.5), ""},
		{"f32 times f64 is f64", ast.OpMul, f32(0.5), f64(3), f64(1.5), ""},
		{"int eq f64", ast.OpEq, i(2), f64(2), i(1), ""},
		{"int gt f32", ast.OpGt, i(2), f32(2.5), i(0), ""},
		// not a binary operator
		{"unary kind", ast.OpNeg, i(1), i(2), mem.Value{}, "unsupported operator"},
	} {
		got, err := rt.BinOp(tc.k, tc.l, tc.r)
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("%s: got %v, %v; want error %q", tc.name, got, err, tc.err)
			}
			continue
		}
		if err != nil || !same(got, tc.want) {
			t.Errorf("%s: %v %s %v = %+v, %v; want %+v", tc.name, tc.l, tc.k, tc.r, got, err, tc.want)
		}
	}
	// Integer ** squares: one multiplication per unit of exponent took
	// seconds here, and no op budget or deadline can stop an operator.
	start := time.Now()
	if _, err := rt.BinOp(ast.OpPow, i(2), i(2000000000)); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Errorf("2**2000000000 took %v", d)
	}
}

func TestBinOpPointers(t *testing.T) {
	buf := mem.NewBuffer(mem.KInt, 8, mem.Host, "a")
	p := func(off int) mem.Value { return mem.PtrVal(mem.Ptr{Buf: buf, Off: off}) }
	other := mem.PtrVal(mem.Ptr{Buf: mem.NewBuffer(mem.KInt, 8, mem.Host, "b")})
	for _, tc := range []struct {
		name string
		k    ast.OpKind
		l, r mem.Value
		want mem.Value
		ok   bool
	}{
		{"ptr plus int", ast.OpAdd, p(2), mem.Int(3), p(5), true},
		{"int plus ptr", ast.OpAdd, mem.Int(3), p(2), p(5), true},
		{"ptr minus int", ast.OpSub, p(5), mem.Int(2), p(3), true},
		{"ptr minus ptr", ast.OpSub, p(5), p(2), mem.Int(3), true},
		{"ptrs into different buffers", ast.OpSub, p(5), other, mem.Value{}, false},
		{"ptr eq", ast.OpEq, p(1), p(1), mem.Int(1), true},
		{"ptr ne", ast.OpNe, p(1), p(2), mem.Int(1), true},
		{"null ptr eq 0", ast.OpEq, mem.PtrVal(mem.Ptr{}), mem.Int(0), mem.Int(1), true},
		{"ptr times int", ast.OpMul, p(1), mem.Int(2), mem.Value{}, false},
	} {
		got, err := rt.BinOp(tc.k, tc.l, tc.r)
		if tc.ok != (err == nil) || (tc.ok && !same(got, tc.want)) {
			t.Errorf("%s: got %+v, %v; want %+v (ok=%v)", tc.name, got, err, tc.want, tc.ok)
		}
	}
}

func TestUnOp(t *testing.T) {
	for _, tc := range []struct {
		name string
		k    ast.OpKind
		v    mem.Value
		want mem.Value
		ok   bool
	}{
		{"neg int", ast.OpNeg, mem.Int(5), mem.Int(-5), true},
		{"neg min int wraps", ast.OpNeg, mem.Int(math.MinInt64), mem.Int(math.MinInt64), true},
		{"neg f32 stays f32", ast.OpNeg, mem.F32(1.5), mem.F32(-1.5), true},
		{"neg f64", ast.OpNeg, mem.F64(2.5), mem.F64(-2.5), true},
		{"not zero", ast.OpNot, mem.Int(0), mem.Int(1), true},
		{"not nonzero float", ast.OpNot, mem.F64(0.5), mem.Int(0), true},
		{"bitnot", ast.OpBitNot, mem.Int(5), mem.Int(-6), true},
		{"bitnot truncates a float", ast.OpBitNot, mem.F64(5.7), mem.Int(-6), true},
		{"neg string", ast.OpNeg, mem.Str("x"), mem.Value{}, false},
		{"deref needs memory", ast.OpDeref, mem.Int(0), mem.Value{}, false},
		{"binary kind", ast.OpAdd, mem.Int(1), mem.Value{}, false},
	} {
		got, err := rt.UnOp(tc.k, tc.v)
		if tc.ok != (err == nil) || (tc.ok && !same(got, tc.want)) {
			t.Errorf("%s: got %+v, %v; want %+v (ok=%v)", tc.name, got, err, tc.want, tc.ok)
		}
	}
}

func TestEvalLit(t *testing.T) {
	for _, tc := range []struct {
		name string
		lit  *ast.BasicLit
		want mem.Value
		ok   bool
	}{
		{"memoized int", ast.NewLit(ast.IntLit, "42", 1), mem.Int(42), true},
		{"memoized hex", ast.NewLit(ast.IntLit, "0x1f", 1), mem.Int(31), true},
		{"memoized float", ast.NewLit(ast.FloatLit, "1.5e3", 1), mem.F64(1500), true},
		{"hand-built int", &ast.BasicLit{Kind: ast.IntLit, Value: "017"}, mem.Int(15), true},
		{"hand-built float", &ast.BasicLit{Kind: ast.FloatLit, Value: "0.25"}, mem.F64(0.25), true},
		{"memo wins over spelling", &ast.BasicLit{Kind: ast.IntLit, Value: "1", IntVal: 2, Known: true}, mem.Int(2), true},
		{"string", ast.NewLit(ast.StringLit, "%d\n", 1), mem.Str("%d\n"), true},
		{"bad int", ast.NewLit(ast.IntLit, "12abc", 1), mem.Value{}, false},
		{"bad float", ast.NewLit(ast.FloatLit, "1.2.3", 1), mem.Value{}, false},
	} {
		got, err := rt.EvalLit(tc.lit)
		if tc.ok != (err == nil) || (tc.ok && !same(got, tc.want)) {
			t.Errorf("%s: got %+v, %v; want %+v (ok=%v)", tc.name, got, err, tc.want, tc.ok)
		}
	}
}

// repeatedMul is base**exp the slow way, exp multiplications wrapping at
// 64 bits.
func repeatedMul(base, exp int64) int64 {
	out := int64(1)
	for ; exp > 0; exp-- {
		out *= base
	}
	return out
}
