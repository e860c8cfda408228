package interp

import (
	"fmt"

	"accv/internal/ast"
	"accv/internal/bytecode"
	"accv/internal/mem"
)

// ctl is the control-flow outcome of a statement.
type ctl int

const (
	ctlNone ctl = iota
	ctlReturn
)

// execCtx is an execution context: an environment plus, inside compute
// regions, the kernel lane identity.
type execCtx struct {
	in     *Interp
	env    *Env
	kernel *kernelState
	// hostFallback marks region bodies executing on the host because an if
	// clause evaluated false; loop directives then run sequentially.
	hostFallback bool
	// cudaLib marks procedures simulating low-level device libraries
	// (names prefixed "cuda"): they may dereference device pointers from
	// host code, which the host_data tests rely on.
	cudaLib bool
	retVal  mem.Value
	// memoStmt/memoProc are a one-slot cache of the last bytecode dispatch
	// decision: loop bodies re-enter exec with the same statement every
	// iteration, so this skips the module map lookup on the hot path.
	memoStmt ast.Stmt
	memoProc *bytecode.Proc
	// raceInv/raceSub are the -race-check lane coordinates (loop invocation
	// id and sub-lane index); zero outside partitioned loop lanes. Child
	// contexts inherit them through struct copies.
	raceInv int64
	raceSub int64
}

// space is the memory space new declarations live in.
func (c *execCtx) space() mem.Space {
	if c.kernel != nil {
		return mem.Device
	}
	return mem.Host
}

// child returns a context with a nested scope.
func (c *execCtx) child() *execCtx {
	cc := *c
	cc.env = NewEnv(c.env)
	return &cc
}

// errf raises a runtime error at the given node.
func errf(n ast.Node, format string, args ...any) error {
	return &RuntimeError{Line: ast.LineOf(n), Msg: fmt.Sprintf(format, args...)}
}

// callFunction invokes fn with evaluated argument bindings. Array arguments
// alias the caller's buffers; scalars are copied.
func (in *Interp) callFunction(fn *ast.FuncDecl, args []*VarInfo, kernel *kernelState, cudaLib bool) (mem.Value, error) {
	env := NewEnv(nil)
	for i, p := range fn.Params {
		if i < len(args) {
			v := args[i]
			v.Name = p.Name
			env.Bind(v)
		}
	}
	ctx := &execCtx{in: in, env: env, kernel: kernel, cudaLib: cudaLib}
	c, err := ctx.exec(fn.Body)
	if cerr := env.RunCleanup(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return mem.Value{}, err
	}
	if c == ctlReturn {
		return ctx.retVal, nil
	}
	return mem.Int(0), nil
}

// exec runs one statement, dispatching to the bytecode VM when the
// statement was lowered and the tree-walker otherwise.
func (c *execCtx) exec(st ast.Stmt) (ctl, error) {
	if st == nil {
		return ctlNone, nil
	}
	if code := c.in.code; code != nil {
		var p *bytecode.Proc
		if c.memoStmt == st {
			p = c.memoProc
		} else {
			p = code.Proc(st)
			c.memoStmt, c.memoProc = st, p
		}
		if p != nil {
			return c.execVM(p)
		}
	}
	return c.execTree(st)
}

// execTree runs one statement by walking its tree.
func (c *execCtx) execTree(st ast.Stmt) (ctl, error) {
	if st == nil {
		return ctlNone, nil
	}
	c.tick()
	switch x := st.(type) {
	case *ast.Block:
		// Only a block that declares something needs its own scope.
		cc := c
		if !x.Bare && x.Declares() {
			cc = c.child()
		}
		for _, s := range x.Stmts {
			ct, err := cc.exec(s)
			if err != nil || ct != ctlNone {
				c.retVal = cc.retVal
				return ct, err
			}
		}
		return ctlNone, nil
	case *ast.DeclStmt:
		return ctlNone, c.declare(x)
	case *ast.AssignStmt:
		return ctlNone, c.assign(x)
	case *ast.IncDecStmt:
		delta := mem.Int(1)
		op := "+="
		if x.Op == "--" {
			op = "-="
		}
		return ctlNone, c.assignTo(x.X, op, delta, x)
	case *ast.ExprStmt:
		_, err := c.eval(x.X)
		return ctlNone, err
	case *ast.IfStmt:
		v, err := c.eval(x.Cond)
		if err != nil {
			return ctlNone, err
		}
		if v.Truth() {
			return c.exec(x.Then)
		}
		return c.exec(x.Else)
	case *ast.ForStmt:
		cc := c.child()
		if x.Init != nil {
			if _, err := cc.exec(x.Init); err != nil {
				return ctlNone, err
			}
		}
		for {
			if x.Cond != nil {
				v, err := cc.eval(x.Cond)
				if err != nil {
					return ctlNone, err
				}
				if !v.Truth() {
					return ctlNone, nil
				}
			}
			ct, err := cc.exec(x.Body)
			if err != nil || ct != ctlNone {
				c.retVal = cc.retVal
				return ct, err
			}
			if x.Post != nil {
				if _, err := cc.exec(x.Post); err != nil {
					return ctlNone, err
				}
			}
		}
	case *ast.DoStmt:
		from, err := c.eval(x.From)
		if err != nil {
			return ctlNone, err
		}
		to, err := c.eval(x.To)
		if err != nil {
			return ctlNone, err
		}
		step := int64(1)
		if x.Step != nil {
			sv, err := c.eval(x.Step)
			if err != nil {
				return ctlNone, err
			}
			step = sv.AsInt()
		}
		if step == 0 {
			return ctlNone, errf(x, "do loop with zero step")
		}
		cc := c.child()
		iv := newScalar(x.Var, mem.KInt, c.space())
		cc.env.Bind(iv)
		for i := from.AsInt(); (step > 0 && i <= to.AsInt()) || (step < 0 && i >= to.AsInt()); i += step {
			if err := iv.Buf.Store(0, mem.Int(i)); err != nil {
				return ctlNone, err
			}
			ct, err := cc.exec(x.Body)
			if err != nil || ct != ctlNone {
				c.retVal = cc.retVal
				return ct, err
			}
		}
		return ctlNone, nil
	case *ast.WhileStmt:
		for {
			v, err := c.eval(x.Cond)
			if err != nil {
				return ctlNone, err
			}
			if !v.Truth() {
				return ctlNone, nil
			}
			ct, err := c.exec(x.Body)
			if err != nil || ct != ctlNone {
				return ct, err
			}
		}
	case *ast.ReturnStmt:
		if x.X != nil {
			v, err := c.eval(x.X)
			if err != nil {
				return ctlNone, err
			}
			c.retVal = v
		} else {
			c.retVal = mem.Int(0)
		}
		return ctlReturn, nil
	case *ast.PragmaStmt:
		return ctlNone, c.execPragma(x)
	}
	return ctlNone, errf(st, "unsupported statement %T", st)
}

// declare evaluates a declaration and binds the variable.
func (c *execCtx) declare(x *ast.DeclStmt) error {
	kind := basicKind(x.Type)
	v := &VarInfo{Name: x.Name, Kind: kind, IsPtr: x.Type.Ptr}
	total := 1
	for i, de := range x.Dims {
		dv, err := c.eval(de)
		if err != nil {
			return err
		}
		n := int(dv.AsInt())
		if n < 0 {
			return errf(x, "negative array dimension %d for %s", n, x.Name)
		}
		v.Dims = append(v.Dims, n)
		lo := 0
		if c.in.exe.Prog.Lang == ast.LangFortran {
			lo = 1
		}
		if i < len(x.Lower) && x.Lower[i] != nil {
			lv, err := c.eval(x.Lower[i])
			if err != nil {
				return err
			}
			lo = int(lv.AsInt())
			// Fortran a(lo:hi): the parsed dim is hi; extent = hi-lo+1.
			n = n - lo + 1
			if n < 0 {
				n = 0
			}
			v.Dims[i] = n
		}
		v.Lower = append(v.Lower, lo)
		total *= n
	}
	v.Buf = mem.NewBuffer(kind, total, c.space(), x.Name)
	if k := c.kernel; k != nil {
		v.Buf.Owner.Store(k.group) // kernel code's locals belong to the lane's group
	}
	if x.Init != nil {
		iv, err := c.eval(x.Init)
		if err != nil {
			return err
		}
		if err := v.Buf.Store(0, iv); err != nil {
			return err
		}
	}
	c.env.Bind(v)
	return nil
}

// assign executes an assignment statement.
func (c *execCtx) assign(x *ast.AssignStmt) error {
	rhs, err := c.eval(x.RHS)
	if err != nil {
		return err
	}
	return c.assignTo(x.LHS, x.Op, rhs, x)
}

// assignTo stores rhs into the lvalue, applying the compound operator.
func (c *execCtx) assignTo(lhs ast.Expr, op string, rhs mem.Value, at ast.Node) error {
	buf, idx, err := c.lvalue(lhs)
	if err != nil {
		return err
	}
	if op != "=" {
		c.maybeYield(buf)
		old, err := buf.Load(idx)
		if err != nil {
			return errf(at, "%v", err)
		}
		c.noteRead(buf, idx, ast.LineOf(at)) // the compound's RMW load
		rhs, err = binaryOp(op[:1], old, rhs, at)
		if err != nil {
			return err
		}
	}
	c.maybeYield(buf)
	if c.raceTracked(buf) {
		old, _ := buf.Load(idx) // pre-store value, for the changed-bits filter
		c.noteWrite(buf, idx, ast.LineOf(at), old, rhs)
	}
	if err := buf.Store(idx, rhs); err != nil {
		return errf(at, "%v", err)
	}
	return nil
}

// lvalue resolves an assignable expression to a buffer element.
func (c *execCtx) lvalue(e ast.Expr) (*mem.Buffer, int, error) {
	switch x := e.(type) {
	case *ast.Ident:
		line := ast.LineOf(x)
		v, err := c.lookupVar(x.Name, line)
		if err != nil {
			return nil, 0, err
		}
		if err := c.checkScalarStore(v, line); err != nil {
			return nil, 0, err
		}
		return v.Buf, 0, nil
	case *ast.IndexExpr:
		return c.indexTarget(x)
	case *ast.UnaryExpr:
		if x.Op == "*" {
			pv, err := c.eval(x.X)
			if err != nil {
				return nil, 0, err
			}
			if pv.K != mem.KPtr || pv.P.IsNil() {
				return nil, 0, errf(x, "dereference of non-pointer value")
			}
			if err := c.checkDeref(pv.P.Buf, ast.LineOf(x)); err != nil {
				return nil, 0, err
			}
			return pv.P.Buf, pv.P.Off, nil
		}
	}
	return nil, 0, errf(e, "expression is not assignable")
}

// indexTarget resolves a subscripted reference to a buffer element.
func (c *execCtx) indexTarget(x *ast.IndexExpr) (*mem.Buffer, int, error) {
	// The subscripts of a rank up to 4 stay in this frame: the tree-walker
	// resolves one per element access.
	var small [4]int64
	idx := small[:0]
	for _, ie := range x.Idx {
		v, err := c.eval(ie)
		if err != nil {
			return nil, 0, err
		}
		idx = append(idx, v.AsInt())
	}
	line := ast.LineOf(x)
	base, ok := x.X.(*ast.Ident)
	if !ok {
		// Indexing an arbitrary pointer expression: (p+1)[i] etc.
		pv, err := c.eval(x.X)
		if err != nil {
			return nil, 0, err
		}
		if pv.K != mem.KPtr || pv.P.IsNil() {
			return nil, 0, errf(x, "subscript of non-pointer value")
		}
		if err := c.checkPointee(pv.P.Buf, len(idx), line); err != nil {
			return nil, 0, err
		}
		return pv.P.Buf, pv.P.Off + int(idx[0]), nil
	}
	v, err := c.lookupVar(base.Name, line)
	if err != nil {
		return nil, 0, err
	}
	buf, off, err := c.subscriptBase(v, len(idx), line)
	if err != nil {
		return nil, 0, err
	}
	if buf != nil {
		return buf, off + int(idx[0]), nil
	}
	flat, err := v.FlatIndex(idx)
	if err != nil {
		return nil, 0, errf(x, "%v", err)
	}
	return v.Buf, flat - v.Bias, nil
}

// maybeYield is a scheduler yield point inside kernels, at an access to b,
// so racing gangs interleave; the per-lane xorshift keeps runs with
// different seeds from interleaving identically (kernelState.draw).
func (c *execCtx) maybeYield(b *mem.Buffer) {
	if k := c.kernel; k != nil {
		k.maybeYield(b)
	}
}

// tick charges one interpreted operation to the lane's counter, or to the
// host's outside compute regions.
func (c *execCtx) tick() {
	o := &c.in.hostOps
	if k := c.kernel; k != nil {
		o = &k.ops
	}
	o.add(c.in, 1)
}
