package interp

import (
	"fmt"
	"strconv"

	"accv/internal/ast"
	"accv/internal/mem"
	"accv/internal/rt"
)

// eval evaluates an expression.
func (c *execCtx) eval(e ast.Expr) (mem.Value, error) {
	switch x := e.(type) {
	case *ast.Ident:
		return c.evalIdent(x)
	case *ast.BasicLit:
		return evalLit(x)
	case *ast.IndexExpr:
		buf, idx, err := c.indexTarget(x)
		if err != nil {
			return mem.Value{}, err
		}
		c.maybeYield(buf)
		v, err := buf.Load(idx)
		if err != nil {
			return mem.Value{}, errf(x, "%v", err)
		}
		c.noteRead(buf, idx, ast.LineOf(x))
		return v, nil
	case *ast.CallExpr:
		return c.call(x)
	case *ast.BinaryExpr:
		return c.evalBinary(x)
	case *ast.UnaryExpr:
		return c.evalUnary(x)
	case *ast.CastExpr:
		v, err := c.eval(x.X)
		if err != nil {
			return mem.Value{}, err
		}
		if x.To.Ptr {
			if v.K != mem.KPtr {
				return mem.Value{}, errf(x, "cast of non-pointer to pointer type")
			}
			// Retag freshly allocated raw memory with the destination
			// element kind ((int*)acc_malloc(...) and friends).
			if v.P.Buf != nil && (v.P.Buf.Name == "acc_malloc" || v.P.Buf.Name == "malloc") {
				v.P.Buf.Elem = basicKind(ast.Type{Base: x.To.Base})
			}
			return v, nil
		}
		return v.Convert(basicKind(x.To)), nil
	case *ast.SizeofExpr:
		return mem.Int(mem.SizeofBasic(basicKind(x.Of))), nil
	}
	return mem.Value{}, errf(e, "unsupported expression %T", e)
}

// evalIdent resolves a name: host_data device views, then variables, then
// predefined runtime constants.
func (c *execCtx) evalIdent(x *ast.Ident) (mem.Value, error) {
	if p, ok := c.env.DeviceView(x.Name); ok {
		return mem.PtrVal(p), nil
	}
	if v, ok := c.env.Lookup(x.Name); ok {
		if v.IsArray() {
			// Arrays decay to a pointer to their first element, which
			// any lane the pointer reaches can follow.
			v.Buf.Escape()
			return mem.PtrVal(mem.Ptr{Buf: v.Buf, Off: -v.Bias}), nil
		}
		if err := c.checkSpace(v, x); err != nil {
			return mem.Value{}, err
		}
		c.maybeYield(v.Buf)
		val, err := v.Buf.Load(0)
		if err != nil {
			return mem.Value{}, errf(x, "%v", err)
		}
		c.noteRead(v.Buf, 0, ast.LineOf(x))
		return val, nil
	}
	if v, ok := runtimeConstants[x.Name]; ok {
		return v, nil
	}
	return mem.Value{}, errf(x, "undeclared variable %q", x.Name)
}

// evalLit produces a literal's value, via the payload memoized at parse time
// (rt.EvalLit re-parses only for hand-built nodes).
func evalLit(x *ast.BasicLit) (mem.Value, error) {
	v, err := rt.EvalLit(x)
	if err != nil {
		return mem.Value{}, errf(x, "%v", err)
	}
	return v, nil
}

// binKind returns the node's interned operator, recomputing it locally for
// hand-built nodes (the shared AST is never mutated — lowered programs run
// concurrently across goroutines).
func binKind(x *ast.BinaryExpr) ast.OpKind {
	if x.Kind != ast.OpInvalid {
		return x.Kind
	}
	return ast.BinOpKind(x.Op)
}

func unKind(x *ast.UnaryExpr) ast.OpKind {
	if x.Kind != ast.OpInvalid {
		return x.Kind
	}
	return ast.UnOpKind(x.Op)
}

// evalBinary evaluates a binary operation with short-circuit && and ||.
func (c *execCtx) evalBinary(x *ast.BinaryExpr) (mem.Value, error) {
	k := binKind(x)
	if k == ast.OpLAnd || k == ast.OpLOr {
		l, err := c.eval(x.X)
		if err != nil {
			return mem.Value{}, err
		}
		if k == ast.OpLAnd && !l.Truth() {
			return mem.Int(0), nil
		}
		if k == ast.OpLOr && l.Truth() {
			return mem.Int(1), nil
		}
		r, err := c.eval(x.Y)
		if err != nil {
			return mem.Value{}, err
		}
		return mem.Bool(r.Truth()), nil
	}
	l, err := c.eval(x.X)
	if err != nil {
		return mem.Value{}, err
	}
	r, err := c.eval(x.Y)
	if err != nil {
		return mem.Value{}, err
	}
	return applyBinary(k, x.Op, l, r, x)
}

// applyBinary dispatches through the shared operator kernels, preserving the
// original spelling in diagnostics for unknown operators.
func applyBinary(k ast.OpKind, op string, l, r mem.Value, at ast.Node) (mem.Value, error) {
	if k == ast.OpInvalid {
		if l.K == mem.KPtr || r.K == mem.KPtr {
			return mem.Value{}, errf(at, "invalid pointer operation %q", op)
		}
		return mem.Value{}, errf(at, "unsupported operator %q", op)
	}
	v, err := rt.BinOp(k, l, r)
	if err != nil {
		return mem.Value{}, errf(at, "%v", err)
	}
	return v, nil
}

// binaryOp applies a (non-short-circuit) binary operator by spelling; kept
// for call sites that carry operator strings (compound assignment,
// reduction combining, builtins).
func binaryOp(op string, l, r mem.Value, at ast.Node) (mem.Value, error) {
	return applyBinary(ast.BinOpKind(op), op, l, r, at)
}

// evalUnary evaluates prefix operators.
func (c *execCtx) evalUnary(x *ast.UnaryExpr) (mem.Value, error) {
	k := unKind(x)
	if k == ast.OpAddrOf {
		buf, idx, err := c.lvalue(x.X)
		if err != nil {
			return mem.Value{}, err
		}
		buf.Escape()
		return mem.PtrVal(mem.Ptr{Buf: buf, Off: idx}), nil
	}
	v, err := c.eval(x.X)
	if err != nil {
		return mem.Value{}, err
	}
	switch k {
	case ast.OpNeg, ast.OpNot, ast.OpBitNot:
		out, err := rt.UnOp(k, v)
		if err != nil {
			return mem.Value{}, errf(x, "%v", err)
		}
		return out, nil
	case ast.OpDeref:
		if v.K != mem.KPtr || v.P.IsNil() {
			return mem.Value{}, errf(x, "dereference of non-pointer value")
		}
		if err := c.checkDeref(v.P.Buf, x); err != nil {
			return mem.Value{}, err
		}
		c.maybeYield(v.P.Buf)
		out, err := v.P.Buf.Load(v.P.Off)
		if err != nil {
			return mem.Value{}, errf(x, "%v", err)
		}
		c.noteRead(v.P.Buf, v.P.Off, ast.LineOf(x))
		return out, nil
	}
	return mem.Value{}, errf(x, "unsupported unary operator %q", x.Op)
}

// formatValue renders a value for printf's %d/%f/%g/%s verbs.
func formatValue(verb byte, v mem.Value) string {
	switch verb {
	case 'd', 'i':
		return strconv.FormatInt(v.AsInt(), 10)
	case 'f':
		return strconv.FormatFloat(v.AsFloat(), 'f', 6, 64)
	case 'g', 'e':
		return strconv.FormatFloat(v.AsFloat(), 'g', -1, 64)
	case 's':
		return v.S
	}
	return fmt.Sprintf("%%%c", verb)
}
