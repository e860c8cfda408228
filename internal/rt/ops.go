package rt

import (
	"fmt"
	"math"
	"strconv"

	"accv/internal/ast"
	"accv/internal/mem"
)

// BinOp applies a (non-short-circuit) binary operator keyed by its interned
// kind. Errors carry no source position; callers attach the line. The kind
// must be a valid binary operator — callers translate ast.OpInvalid into
// their own "unsupported operator" diagnostic before dispatching here so the
// original spelling survives in the message.
func BinOp(k ast.OpKind, l, r mem.Value) (mem.Value, error) {
	// Pointer arithmetic: ptr ± int, and pointer comparisons.
	if l.K == mem.KPtr || r.K == mem.KPtr {
		return PointerOp(k, l, r)
	}
	bothInt := l.K == mem.KInt && r.K == mem.KInt
	switch k {
	case ast.OpPow: // Fortran power operator
		if bothInt {
			v, err := intPow(l.I, r.I)
			return mem.Int(v), err
		}
		f := math.Pow(l.AsFloat(), r.AsFloat())
		if l.K == mem.KF64 || r.K == mem.KF64 {
			return mem.F64(f), nil
		}
		return mem.F32(f), nil
	case ast.OpAdd, ast.OpSub, ast.OpMul, ast.OpDiv:
		if bothInt {
			a, b := l.I, r.I
			switch k {
			case ast.OpAdd:
				return mem.Int(a + b), nil
			case ast.OpSub:
				return mem.Int(a - b), nil
			case ast.OpMul:
				return mem.Int(a * b), nil
			default:
				if b == 0 {
					return mem.Value{}, fmt.Errorf("integer division by zero")
				}
				return mem.Int(a / b), nil
			}
		}
		a, b := l.AsFloat(), r.AsFloat()
		var f float64
		switch k {
		case ast.OpAdd:
			f = a + b
		case ast.OpSub:
			f = a - b
		case ast.OpMul:
			f = a * b
		default:
			f = a / b
		}
		if l.K == mem.KF64 || r.K == mem.KF64 {
			return mem.F64(f), nil
		}
		return mem.F32(f), nil
	case ast.OpRem:
		if !bothInt {
			return mem.Value{}, fmt.Errorf("%% requires integer operands")
		}
		if r.I == 0 {
			return mem.Value{}, fmt.Errorf("integer modulo by zero")
		}
		return mem.Int(l.I % r.I), nil
	case ast.OpEq, ast.OpNe, ast.OpLt, ast.OpLe, ast.OpGt, ast.OpGe:
		var res bool
		if bothInt {
			a, b := l.I, r.I
			switch k {
			case ast.OpEq:
				res = a == b
			case ast.OpNe:
				res = a != b
			case ast.OpLt:
				res = a < b
			case ast.OpLe:
				res = a <= b
			case ast.OpGt:
				res = a > b
			default:
				res = a >= b
			}
		} else {
			a, b := l.AsFloat(), r.AsFloat()
			switch k {
			case ast.OpEq:
				res = a == b
			case ast.OpNe:
				res = a != b
			case ast.OpLt:
				res = a < b
			case ast.OpLe:
				res = a <= b
			case ast.OpGt:
				res = a > b
			default:
				res = a >= b
			}
		}
		return mem.Bool(res), nil
	case ast.OpAnd, ast.OpOr, ast.OpXor, ast.OpShl, ast.OpShr:
		a, b := l.AsInt(), r.AsInt()
		switch k {
		case ast.OpAnd:
			return mem.Int(a & b), nil
		case ast.OpOr:
			return mem.Int(a | b), nil
		case ast.OpXor:
			return mem.Int(a ^ b), nil
		case ast.OpShl:
			return mem.Int(a << (uint(b) & 63)), nil
		default:
			return mem.Int(a >> (uint(b) & 63)), nil
		}
	case ast.OpLAnd, ast.OpLOr:
		// Non-short-circuit fallback (both operands already evaluated, as
		// in reduction combining).
		if k == ast.OpLAnd {
			return mem.Bool(l.Truth() && r.Truth()), nil
		}
		return mem.Bool(l.Truth() || r.Truth()), nil
	}
	return mem.Value{}, fmt.Errorf("unsupported operator %q", k.String())
}

// intPow is Fortran integer exponentiation, base**exp. It squares, in at
// most 64 steps, and wraps exactly as exp repeated multiplications would.
// A negative exponent gives the truncated quotient 1/base**−exp: 1 for
// base 1, ±1 by parity for base −1, a division by zero for base 0 and 0
// for any other base.
func intPow(base, exp int64) (int64, error) {
	if exp < 0 {
		switch base {
		case 1:
			return 1, nil
		case -1:
			if exp&1 == 0 {
				return 1, nil
			}
			return -1, nil
		case 0:
			return 0, fmt.Errorf("integer division by zero")
		}
		return 0, nil
	}
	out := int64(1)
	for ; exp > 0; exp >>= 1 {
		if exp&1 == 1 {
			out *= base
		}
		base *= base
	}
	return out, nil
}

// PointerOp handles pointer arithmetic and comparison.
func PointerOp(k ast.OpKind, l, r mem.Value) (mem.Value, error) {
	switch k {
	case ast.OpAdd:
		if l.K == mem.KPtr && r.K != mem.KPtr {
			p := l.P
			p.Off += int(r.AsInt())
			return mem.PtrVal(p), nil
		}
		if r.K == mem.KPtr && l.K != mem.KPtr {
			p := r.P
			p.Off += int(l.AsInt())
			return mem.PtrVal(p), nil
		}
	case ast.OpSub:
		if l.K == mem.KPtr && r.K != mem.KPtr {
			p := l.P
			p.Off -= int(r.AsInt())
			return mem.PtrVal(p), nil
		}
		if l.K == mem.KPtr && r.K == mem.KPtr && l.P.Buf == r.P.Buf {
			return mem.Int(int64(l.P.Off - r.P.Off)), nil
		}
	case ast.OpEq:
		return mem.Bool(l.P == r.P && l.K == r.K || (l.K == mem.KPtr && r.K == mem.KInt && r.I == 0 && l.P.IsNil())), nil
	case ast.OpNe:
		eq, _ := PointerOp(ast.OpEq, l, r)
		return mem.Bool(!eq.Truth()), nil
	}
	return mem.Value{}, fmt.Errorf("invalid pointer operation %q", k.String())
}

// UnOp applies a value-level unary operator (negate, logical not, bit
// complement). Address-of and dereference need scope and memory context and
// stay with the engines.
func UnOp(k ast.OpKind, v mem.Value) (mem.Value, error) {
	switch k {
	case ast.OpNeg:
		switch v.K {
		case mem.KInt:
			return mem.Int(-v.I), nil
		case mem.KF32:
			return mem.F32(-v.F), nil
		case mem.KF64:
			return mem.F64(-v.F), nil
		}
	case ast.OpNot:
		return mem.Bool(!v.Truth()), nil
	case ast.OpBitNot:
		return mem.Int(^v.AsInt()), nil
	}
	return mem.Value{}, fmt.Errorf("unsupported unary operator %q", k.String())
}

// EvalLit produces the value of a literal, using the payload memoized at
// parse time when available and falling back to parsing the spelling for
// hand-built nodes. The error (if any) carries no position.
func EvalLit(x *ast.BasicLit) (mem.Value, error) {
	if x.Known {
		if x.Kind == ast.IntLit {
			return mem.Int(x.IntVal), nil
		}
		return mem.F64(x.FloatVal), nil
	}
	return evalLitSlow(x)
}

func evalLitSlow(x *ast.BasicLit) (mem.Value, error) {
	switch x.Kind {
	case ast.IntLit:
		v, err := strconv.ParseInt(x.Value, 0, 64)
		if err != nil {
			return mem.Value{}, fmt.Errorf("bad integer literal %q", x.Value)
		}
		return mem.Int(v), nil
	case ast.FloatLit:
		f, err := strconv.ParseFloat(x.Value, 64)
		if err != nil {
			return mem.Value{}, fmt.Errorf("bad float literal %q", x.Value)
		}
		return mem.F64(f), nil
	default:
		return mem.Str(x.Value), nil
	}
}
