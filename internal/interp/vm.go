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

// vmFrame is the per-scope activation record of a lowered proc: the register
// file plus the slot-resolution cache. It is cached on the activation Env
// (one-slot, keyed by proc) so repeated entries — a lane body run once per
// iteration — skip both allocation and name resolution.
type vmFrame struct {
	proc  *bytecode.Proc
	regs  []mem.Value
	slots slotCache
	// treeFallback marks frames created under host_data device views, where
	// name resolution is dynamic and slot caching would be unsound.
	treeFallback bool
}

func newVMFrame(p *bytecode.Proc, env *Env) *vmFrame {
	f := &vmFrame{proc: p, regs: make([]mem.Value, p.NumRegs), treeFallback: env.HasDeviceViews()}
	f.slots.reset(p.SlotNames)
	return f
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
	f.slots.reset(p.SlotNames)
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
			if r := &f.slots.res[ins.B]; r.w != nil {
				// Resolved unboxed scalar: same check + yield + load the
				// slow path does, without the Buffer.Load dispatch.
				if err := c.checkSpace(r.v, int(ins.Line)); err != nil {
					return ctlNone, err
				}
				c.maybeYield(r.v.Buf)
				r.v.Buf.LoadWordInto(r.w, &regs[ins.A])
				break
			}
			v, err := c.loadSlot(&f.slots, ins.B, ins.Line, true)
			if err != nil {
				return ctlNone, err
			}
			regs[ins.A] = v

		case bytecode.OpStoreVar:
			v, err := c.scalarTarget(&f.slots, ins.A, ins.Line)
			if err != nil {
				return ctlNone, err
			}
			c.maybeYield(v.Buf)
			if err := storeElem(v.Buf, 0, &regs[ins.B], ins.Line); err != nil {
				return ctlNone, err
			}

		case bytecode.OpAugVar:
			v, err := c.scalarTarget(&f.slots, ins.A, ins.Line)
			if err != nil {
				return ctlNone, err
			}
			if err := c.augElem(v.Buf, 0, ast.OpKind(ins.D), &regs[ins.B], ins.Line, true); err != nil {
				return ctlNone, err
			}

		case bytecode.OpLoadIdx:
			buf, off, err := c.vmIndexTarget(f, ins.B, ins.C, ins.D, ins.Line)
			if err != nil {
				return ctlNone, err
			}
			c.maybeYield(buf)
			if err := loadElem(buf, off, &regs[ins.A], ins.Line); err != nil {
				return ctlNone, err
			}

		case bytecode.OpStoreIdx:
			buf, off, err := c.vmIndexTarget(f, ins.A, ins.B, ins.C, ins.Line)
			if err != nil {
				return ctlNone, err
			}
			c.maybeYield(buf)
			if err := storeElem(buf, off, &regs[ins.D], ins.Line); err != nil {
				return ctlNone, err
			}

		case bytecode.OpAugIdx:
			buf, off, err := c.vmIndexTarget(f, ins.A, ins.B, ins.C, ins.Line)
			if err != nil {
				return ctlNone, err
			}
			if err := c.augElem(buf, off, ast.OpKind(ins.E), &regs[ins.D], ins.Line, true); err != nil {
				return ctlNone, err
			}

		case bytecode.OpBin:
			if err := binInto(ast.OpKind(ins.D), &regs[ins.B], &regs[ins.C], &regs[ins.A], ins.Line); err != nil {
				return ctlNone, err
			}

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
			f.slots.res[ins.A].bind(v)

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

// vmIndexTarget resolves a subscripted slot, with its subscripts in
// registers [idxBase, idxBase+idxN), to a buffer element.
func (c *execCtx) vmIndexTarget(f *vmFrame, slot, idxBase, idxN int32, line int32) (*mem.Buffer, int, error) {
	v, buf, off, err := c.subscriptSlot(&f.slots, slot, idxN, line)
	if err != nil {
		return nil, 0, err
	}
	idx := f.regs[idxBase : idxBase+idxN]
	if buf != nil {
		return buf, off + int(subscript(&idx[0])), nil
	}
	flat := 0
	for d := range idx {
		i := subscript(&idx[d])
		var ok bool
		if flat, ok = v.Dim(flat, d, i); !ok {
			return nil, 0, vmErrf(line, "%v", v.DimError(d, i))
		}
	}
	return v.Buf, flat - v.Bias, nil
}
