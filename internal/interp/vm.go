package interp

import (
	"fmt"

	"accv/internal/ast"
	"accv/internal/bytecode"
	"accv/internal/mem"
	"accv/internal/rt"
)

// This file is the execution engine for internal/bytecode: a register VM
// that runs lowered procedure bodies on the kernel hot path. It lives in
// the interpreter because the instructions drive the interpreter's runtime
// directly — operation budget, lane scheduler yields, host/device space
// checks — with no interface dispatch between them. Escaped statements and
// expressions re-enter the tree-walker on the same execution context, so
// the two engines interleave freely and share all observable state.

// vmLoad is the load-side resolution cache for one frame slot.
type vmLoad struct {
	state uint8
	v     *VarInfo
	val   mem.Value
	// w is the scalar's unboxed word (non-nil only in state vmScalar when
	// the element kind is unboxed): the dispatch loop then loads it inline,
	// skipping Buffer.Load's bounds and representation dispatch.
	w *uint64
}

const (
	vmUnresolved uint8 = iota
	vmScalar           // v: load through the buffer with space check + yield
	vmArray            // val: cached array-decay pointer
	vmValue            // val: runtime constant
)

// vmFrame is the per-scope activation record of a lowered proc: the register
// file plus slot-resolution caches. It is cached on the activation Env
// (one-slot, keyed by proc) so repeated entries — a lane body run once per
// iteration — skip both allocation and name resolution.
type vmFrame struct {
	proc *bytecode.Proc
	regs []mem.Value
	// vars caches store-side resolution (plain scope lookup, as the
	// tree-walker's lvalue does); loads caches load-side resolution, which
	// additionally sees array decay and runtime constants.
	vars  []*VarInfo
	loads []vmLoad
	// treeFallback marks frames created under host_data device views, where
	// name resolution is dynamic and slot caching would be unsound.
	treeFallback bool
}

func newVMFrame(p *bytecode.Proc, env *Env) *vmFrame {
	return &vmFrame{
		proc:         p,
		regs:         make([]mem.Value, p.NumRegs),
		vars:         make([]*VarInfo, len(p.SlotNames)),
		loads:        make([]vmLoad, len(p.SlotNames)),
		treeFallback: env.HasDeviceViews(),
	}
}

func (f *vmFrame) reset() {
	for i := range f.vars {
		f.vars[i] = nil
	}
	for i := range f.loads {
		f.loads[i] = vmLoad{}
	}
}

// vmErrf raises a runtime error at a lowered source line.
func vmErrf(line int32, format string, args ...any) error {
	return &RuntimeError{Line: int(line), Msg: fmt.Sprintf(format, args...)}
}

// execVM runs a lowered proc on this context. The caller guarantees p.Root
// is the statement being executed; semantics match execTree(p.Root) exactly.
func (c *execCtx) execVM(p *bytecode.Proc) (ctl, error) {
	f, _ := c.env.VMFrame.(*vmFrame)
	if f == nil || f.proc != p {
		f = newVMFrame(p, c.env)
		c.env.VMFrame = f
	}
	if f.treeFallback {
		return c.execTree(p.Root)
	}
	if p.NumDecls == 0 {
		// No declarations: same scope, caches stay valid, and the context
		// can be used as-is — the copy below escapes to the heap, and lane
		// bodies enter here once per iteration.
		return c.run(p, f)
	}
	// Declarations bind per activation: fresh child scope when the tree
	// walker would create one, fresh slot caches always.
	f.reset()
	if !p.ChildEnv {
		return c.run(p, f)
	}
	ec := *c
	ec.env = NewEnv(c.env)
	ct, err := ec.run(p, f)
	if ct == ctlReturn {
		c.retVal = ec.retVal
	}
	return ct, err
}

// run is the dispatch loop.
func (c *execCtx) run(p *bytecode.Proc, f *vmFrame) (ctl, error) {
	code := p.Code
	regs := f.regs
	pc := 0
	for {
		ins := &code[pc]
		switch ins.Op {
		case bytecode.OpTick:
			c.tick()

		case bytecode.OpConst:
			regs[ins.A] = p.Consts[ins.B]

		case bytecode.OpLoadVar:
			if lc := &f.loads[ins.B]; lc.w != nil {
				// Resolved unboxed scalar: same check + yield + load the
				// slow path does, without the Buffer.Load dispatch.
				if err := c.checkSpaceAt(lc.v, int(ins.Line)); err != nil {
					return ctlNone, err
				}
				c.maybeYield(lc.v.Buf)
				lc.v.Buf.LoadWordInto(lc.w, &regs[ins.A])
				break
			}
			v, err := c.vmLoadVar(f, ins)
			if err != nil {
				return ctlNone, err
			}
			regs[ins.A] = v

		case bytecode.OpStoreVar:
			v, err := c.vmScalarTarget(f, ins.A, ins.Line)
			if err != nil {
				return ctlNone, err
			}
			c.maybeYield(v.Buf)
			if w := v.Buf.Word0(); w != nil {
				v.Buf.StoreWord(w, regs[ins.B])
				break
			}
			if err := v.Buf.Store(0, regs[ins.B]); err != nil {
				return ctlNone, vmErrf(ins.Line, "%v", err)
			}

		case bytecode.OpAugVar:
			v, err := c.vmScalarTarget(f, ins.A, ins.Line)
			if err != nil {
				return ctlNone, err
			}
			c.maybeYield(v.Buf)
			if w := v.Buf.Word0(); w != nil {
				nv, err := rt.BinOp(ast.OpKind(ins.D), v.Buf.LoadWord(w), regs[ins.B])
				if err != nil {
					return ctlNone, vmErrf(ins.Line, "%v", err)
				}
				c.maybeYield(v.Buf)
				v.Buf.StoreWord(w, nv)
				break
			}
			old, err := v.Buf.Load(0)
			if err != nil {
				return ctlNone, vmErrf(ins.Line, "%v", err)
			}
			nv, err := rt.BinOp(ast.OpKind(ins.D), old, regs[ins.B])
			if err != nil {
				return ctlNone, vmErrf(ins.Line, "%v", err)
			}
			c.maybeYield(v.Buf)
			if err := v.Buf.Store(0, nv); err != nil {
				return ctlNone, vmErrf(ins.Line, "%v", err)
			}

		case bytecode.OpLoadIdx:
			buf, off, err := c.vmIndexTarget(f, ins.B, ins.C, ins.D, ins.Line)
			if err != nil {
				return ctlNone, err
			}
			c.maybeYield(buf)
			v, err := buf.Load(off)
			if err != nil {
				return ctlNone, vmErrf(ins.Line, "%v", err)
			}
			regs[ins.A] = v

		case bytecode.OpStoreIdx:
			buf, off, err := c.vmIndexTarget(f, ins.A, ins.B, ins.C, ins.Line)
			if err != nil {
				return ctlNone, err
			}
			c.maybeYield(buf)
			if err := buf.Store(off, regs[ins.D]); err != nil {
				return ctlNone, vmErrf(ins.Line, "%v", err)
			}

		case bytecode.OpAugIdx:
			buf, off, err := c.vmIndexTarget(f, ins.A, ins.B, ins.C, ins.Line)
			if err != nil {
				return ctlNone, err
			}
			c.maybeYield(buf)
			old, err := buf.Load(off)
			if err != nil {
				return ctlNone, vmErrf(ins.Line, "%v", err)
			}
			nv, err := rt.BinOp(ast.OpKind(ins.E), old, regs[ins.D])
			if err != nil {
				return ctlNone, vmErrf(ins.Line, "%v", err)
			}
			c.maybeYield(buf)
			if err := buf.Store(off, nv); err != nil {
				return ctlNone, vmErrf(ins.Line, "%v", err)
			}

		case bytecode.OpBin:
			xp, yp := &regs[ins.B], &regs[ins.C]
			if xp.K == mem.KInt && yp.K == mem.KInt {
				if vmIntBin(ast.OpKind(ins.D), xp.I, yp.I, &regs[ins.A]) {
					break
				}
			} else if xp.K == mem.KF64 && yp.K == mem.KF64 {
				if vmF64Bin(ast.OpKind(ins.D), xp.F, yp.F, &regs[ins.A]) {
					break
				}
			}
			v, err := rt.BinOp(ast.OpKind(ins.D), *xp, *yp)
			if err != nil {
				return ctlNone, vmErrf(ins.Line, "%v", err)
			}
			regs[ins.A] = v

		case bytecode.OpUn:
			v, err := rt.UnOp(ast.OpKind(ins.D), regs[ins.B])
			if err != nil {
				return ctlNone, vmErrf(ins.Line, "%v", err)
			}
			regs[ins.A] = v

		case bytecode.OpBool:
			regs[ins.A] = mem.Bool(regs[ins.A].Truth())

		case bytecode.OpJump:
			pc = int(ins.A)
			continue
		case bytecode.OpJumpFalse:
			if !regs[ins.A].Truth() {
				pc = int(ins.B)
				continue
			}
		case bytecode.OpJumpTrue:
			if regs[ins.A].Truth() {
				pc = int(ins.B)
				continue
			}

		case bytecode.OpDecl:
			d := p.Decls[ins.B]
			if err := c.declare(d); err != nil {
				return ctlNone, err
			}
			v, _ := c.env.Lookup(d.Name)
			f.vars[ins.A] = v
			lc := &f.loads[ins.A]
			if v.IsArray() {
				*lc = vmLoad{state: vmArray, v: v, val: mem.PtrVal(mem.Ptr{Buf: v.Buf, Off: -v.Bias})}
			} else {
				*lc = vmLoad{state: vmScalar, v: v, w: v.Buf.Word0()}
			}

		case bytecode.OpEscape:
			ct, err := c.exec(p.Stmts[ins.B])
			if err != nil {
				return ctlNone, err
			}
			if ct == ctlReturn {
				return ctlReturn, nil
			}

		case bytecode.OpEvalExpr:
			v, err := c.eval(p.Exprs[ins.B])
			if err != nil {
				return ctlNone, err
			}
			regs[ins.A] = v

		case bytecode.OpRet:
			c.retVal = regs[ins.A]
			return ctlReturn, nil
		case bytecode.OpEnd:
			return ctlNone, nil

		default:
			return ctlNone, vmErrf(ins.Line, "bytecode: bad opcode %d", ins.Op)
		}
		pc++
	}
}

// vmIntBin inlines the integer rt.BinOp cases that cannot fail — the
// operators kernel inner loops hit every iteration. Division, modulo (zero
// checks), shifts, power, and mixed kinds fall through to rt.BinOp. Results
// are written field-by-field into dst (already a register slot): a scalar is
// fully described by its kind and payload, and partial writes avoid copying
// the whole Value struct. The operands arrive as plain int64s, so dst may
// alias an operand register. Semantics match rt.BinOp case for case.
func vmIntBin(k ast.OpKind, a, b int64, dst *mem.Value) bool {
	switch k {
	case ast.OpAdd:
		dst.K, dst.I = mem.KInt, a+b
	case ast.OpSub:
		dst.K, dst.I = mem.KInt, a-b
	case ast.OpMul:
		dst.K, dst.I = mem.KInt, a*b
	case ast.OpLt:
		dst.K, dst.I = mem.KInt, b2i(a < b)
	case ast.OpLe:
		dst.K, dst.I = mem.KInt, b2i(a <= b)
	case ast.OpGt:
		dst.K, dst.I = mem.KInt, b2i(a > b)
	case ast.OpGe:
		dst.K, dst.I = mem.KInt, b2i(a >= b)
	case ast.OpEq:
		dst.K, dst.I = mem.KInt, b2i(a == b)
	case ast.OpNe:
		dst.K, dst.I = mem.KInt, b2i(a != b)
	default:
		return false
	}
	return true
}

// vmF64Bin is vmIntBin's double-precision sibling (float division cannot
// fail; rt.BinOp yields F64 whenever both operands are F64, and comparisons
// yield the same mem.Bool ints).
func vmF64Bin(k ast.OpKind, a, b float64, dst *mem.Value) bool {
	switch k {
	case ast.OpAdd:
		dst.K, dst.F = mem.KF64, a+b
	case ast.OpSub:
		dst.K, dst.F = mem.KF64, a-b
	case ast.OpMul:
		dst.K, dst.F = mem.KF64, a*b
	case ast.OpDiv:
		dst.K, dst.F = mem.KF64, a/b
	case ast.OpLt:
		dst.K, dst.I = mem.KInt, b2i(a < b)
	case ast.OpLe:
		dst.K, dst.I = mem.KInt, b2i(a <= b)
	case ast.OpGt:
		dst.K, dst.I = mem.KInt, b2i(a > b)
	case ast.OpGe:
		dst.K, dst.I = mem.KInt, b2i(a >= b)
	case ast.OpEq:
		dst.K, dst.I = mem.KInt, b2i(a == b)
	case ast.OpNe:
		dst.K, dst.I = mem.KInt, b2i(a != b)
	default:
		return false
	}
	return true
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// vmLoadVar mirrors evalIdent: host_data device views, then variables
// (arrays decay), then runtime constants.
func (c *execCtx) vmLoadVar(f *vmFrame, ins *bytecode.Ins) (mem.Value, error) {
	lc := &f.loads[ins.B]
	switch lc.state {
	case vmScalar:
		// Resolved: fall through to the load below.
	case vmArray:
		lc.v.Buf.Escape() // the decayed pointer escapes, as in evalIdent
		return lc.val, nil
	case vmValue:
		return lc.val, nil
	default:
		name := f.proc.SlotNames[ins.B]
		if p, ok := c.env.DeviceView(name); ok {
			// Dynamic binding: never cached (frames under host_data views
			// tree-walk anyway; this is a correctness backstop).
			return mem.PtrVal(p), nil
		}
		if v, ok := c.env.Lookup(name); ok {
			if v.IsArray() {
				*lc = vmLoad{state: vmArray, v: v, val: mem.PtrVal(mem.Ptr{Buf: v.Buf, Off: -v.Bias})}
				v.Buf.Escape()
				return lc.val, nil
			}
			*lc = vmLoad{state: vmScalar, v: v, w: v.Buf.Word0()}
			break
		}
		if v, ok := runtimeConstants[name]; ok {
			*lc = vmLoad{state: vmValue, val: v}
			return v, nil
		}
		return mem.Value{}, vmErrf(ins.Line, "undeclared variable %q", name)
	}
	v := lc.v
	if err := c.checkSpaceAt(v, int(ins.Line)); err != nil {
		return mem.Value{}, err
	}
	c.maybeYield(v.Buf)
	val, err := v.Buf.Load(0)
	if err != nil {
		return mem.Value{}, vmErrf(ins.Line, "%v", err)
	}
	return val, nil
}

// vmVar resolves a slot the way the tree-walker's lvalue path does: a plain
// scope lookup.
func (c *execCtx) vmVar(f *vmFrame, slot int32, line int32) (*VarInfo, error) {
	if v := f.vars[slot]; v != nil {
		return v, nil
	}
	name := f.proc.SlotNames[slot]
	v, ok := c.env.Lookup(name)
	if !ok {
		return nil, vmErrf(line, "undeclared variable %q", name)
	}
	f.vars[slot] = v
	return v, nil
}

// vmScalarTarget resolves a slot for a scalar store (lvalue Ident).
func (c *execCtx) vmScalarTarget(f *vmFrame, slot int32, line int32) (*VarInfo, error) {
	v, err := c.vmVar(f, slot, line)
	if err != nil {
		return nil, err
	}
	if v.IsArray() {
		return nil, vmErrf(line, "cannot assign to array %q without a subscript", v.Name)
	}
	if err := c.checkSpaceAt(v, int(line)); err != nil {
		return nil, err
	}
	return v, nil
}

// vmIndexTarget mirrors indexTarget for an Ident base with subscripts in
// registers [idxBase, idxBase+idxN).
func (c *execCtx) vmIndexTarget(f *vmFrame, slot, idxBase, idxN int32, line int32) (*mem.Buffer, int, error) {
	v, err := c.vmVar(f, slot, line)
	if err != nil {
		return nil, 0, err
	}
	regs := f.regs
	if v.IsPtr && !v.IsArray() {
		pv, err := v.Buf.Load(0)
		if err != nil {
			return nil, 0, vmErrf(line, "%v", err)
		}
		if pv.K != mem.KPtr || pv.P.IsNil() {
			return nil, 0, vmErrf(line, "subscript of null pointer %q", v.Name)
		}
		if idxN != 1 {
			return nil, 0, vmErrf(line, "pointer subscript must be one-dimensional")
		}
		if err := c.checkDerefAt(pv.P.Buf, int(line)); err != nil {
			return nil, 0, err
		}
		return pv.P.Buf, pv.P.Off + int(regs[idxBase].AsInt()), nil
	}
	if err := c.checkSpaceAt(v, int(line)); err != nil {
		return nil, 0, err
	}
	if int(idxN) != len(v.Dims) {
		return nil, 0, vmErrf(line, "%s has %d dimensions, indexed with %d subscripts", v.Name, len(v.Dims), idxN)
	}
	flat := 0
	for d := 0; d < int(idxN); d++ {
		i := regs[int(idxBase)+d].AsInt()
		lo := 0
		if d < len(v.Lower) {
			lo = v.Lower[d]
		}
		rel := int(i) - lo
		if rel < 0 || rel >= v.Dims[d] {
			return nil, 0, vmErrf(line, "index %d out of range [%d,%d) in dimension %d of %s", i, lo, lo+v.Dims[d], d+1, v.Name)
		}
		flat = flat*v.Dims[d] + rel
	}
	return v.Buf, flat - v.Bias, nil
}
