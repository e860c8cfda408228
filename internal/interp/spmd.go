package interp

// Lane-batched nest execution, the VM's strategy for every nest it can
// batch. A nest the compiler batch-lowered (Executable.Batch) and the
// runtime gates admit executes this gang's lanes in one dispatch loop over
// lane-indexed storage instead of goroutine-per-lane: uniform values
// compute once per batch step and varying values live in flat per-lane
// slices. A batched body has no divergent control flow — the lowerer
// declines it — so every instruction runs for every lane of the batch
// (docs/PERFORMANCE.md, "Lane batching in the VM").
//
// It matches the goroutine path by sharing its rules rather than
// mirroring them: names, subscripts and the host/device checks resolve
// through access.go (the batch's outer slots in a slotCache, as a scalar
// VM frame's), lane slots convert on store with mem.Value.Convert, and
// each worker's ops count in an opCounter, charged in the same 64-op
// chunks and flushed as the worker ends. What is the batch's own: errors
// are raised for the lowest failing lane, reduction partials are
// per-worker accumulators folded in ascending lane order, and no lane
// draws a scheduler yield — batched nests are proven lane-independent,
// so interleaving is unobservable.

import (
	"sync"

	"accv/internal/ast"
	"accv/internal/bytecode"
	"accv/internal/compiler"
	"accv/internal/mem"
	"accv/internal/rt"
)

// batchChunk is the lane count of one batch. A gang's lanes run in
// ascending chunks of this size, so lane storage stays bounded and is
// reused however many iterations the gang owns. Running a chunk after the
// previous one finishes is per-lane-equivalent because batched nests are
// proven lane-independent and shared-scalar stores are lane-repeatable.
const batchChunk = 64

// batchPool recycles batch executors, with their register files, lane
// slots and resolution caches, across nests, gangs and runs.
var batchPool = sync.Pool{New: func() any { return new(batchExec) }}

// batchFor returns the nest's batch lowering when every runtime gate
// admits it, or nil and the fallback reason. The compile-time decline
// reasons are stored in the executable; the runtime re-checks the plan
// flags because vendor bug effects mutate plans after compilation.
func (c *execCtx) batchFor(p *ast.PragmaStmt, plan *compiler.LoopPlan, loops []loopDesc) (*bytecode.BatchProc, string) {
	bp := c.in.exe.Batch[p]
	if bp == nil {
		if r := c.in.exe.BatchDecline[p]; r != "" {
			return nil, r
		}
		return nil, "no-oracle-entry"
	}
	if plan.Redundant || plan.NoCombine || plan.PartialLanes || plan.CollapseSwap ||
		plan.Gang0Only || plan.DropPlan || len(plan.Private) > 0 ||
		(c.in.hooks().CollapseOuterOnly && plan.Collapse > 1) {
		return nil, "bug-hook"
	}
	if c.env.HasDeviceViews() {
		return nil, "device-views"
	}
	if len(loops) != len(bp.IvNames) {
		return nil, "nest-shape"
	}
	for i, d := range loops {
		if d.varName != bp.IvNames[i] {
			return nil, "nest-shape"
		}
	}
	return bp, ""
}

// bval is one batch register: a uniform value or a lane-indexed slice.
type bval struct {
	uni bool
	u   mem.Value
	v   []mem.Value
}

func (r *bval) at(l int32) mem.Value {
	if r.uni {
		return r.u
	}
	return r.v[l]
}

type batchExec struct {
	c  *execCtx
	bp *bytecode.BatchProc
	nl int32 // lanes in the current chunk

	// regs and slots hold the current chunk's lanes; each varying
	// register's v and each slot has room for batchChunk lanes.
	regs    []bval
	slots   [][]mem.Value
	slotBuf []mem.Value

	// outer resolves the outer slots, as a scalar VM frame resolves its own.
	outer slotCache

	// workerOf attributes each lane's op charges; nil when W == 1.
	workerOf  []int32
	workerBuf [batchChunk]int32
	opsW      []opCounter
	redAcc    [][]mem.Value
}

// resized returns s with length n and every element zero, reusing its
// backing array when it is large enough.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// scrub zeroes the lane storage, so the next chunk starts from exactly
// the state a fresh allocation gives and a pooled executor pins nothing.
func (b *batchExec) scrub() {
	for i := range b.regs {
		r := &b.regs[i]
		clear(r.v)
		r.uni, r.u = false, mem.Value{}
	}
	clear(b.slotBuf)
}

// release scrubs the executor and returns it to the pool.
func (b *batchExec) release() {
	b.scrub()
	clear(b.outer.res)
	b.c, b.bp, b.redAcc = nil, nil, nil
	batchPool.Put(b)
}

// runBatch executes the nest's lanes for this gang — iterations gi,
// gi+G, gi+2G, ... below total — in ascending chunks of batchChunk lanes.
// It fills partials (per worker, reduction order) on success and returns
// the first lane error otherwise, adding the slowest worker's op count to
// the kernel exactly as the goroutine path does.
func (c *execCtx) runBatch(bp *bytecode.BatchProc, loops []loopDesc, total, G, gi, W int64, reds []redVar, partials [][]mem.Value) (err error) {
	k := c.kernel
	b := batchPool.Get().(*batchExec)
	defer b.release()
	b.c, b.bp = c, bp
	if cap(b.regs) < bp.NumRegs {
		b.regs = make([]bval, bp.NumRegs)
	}
	b.regs = b.regs[:bp.NumRegs] // scrubbed before each chunk
	nSlots := len(bp.SlotKinds)
	b.slotBuf = resized(b.slotBuf, nSlots*batchChunk)
	b.slots = resized(b.slots, nSlots)
	b.outer.reset(bp.OuterNames)
	b.opsW = resized(b.opsW, int(W)) // each worker lane starts from zero
	// The accumulators escape through partials, so they are not pooled.
	b.redAcc = make([][]mem.Value, W)
	for w := range b.redAcc {
		acc := make([]mem.Value, len(reds))
		for i, rv := range reds {
			acc[i] = reductionIdentity(rv.op, rv.host.Kind)
		}
		b.redAcc[w] = acc
	}
	defer laneRecover(&err)
	b.workerOf = nil
	if W > 1 {
		b.workerOf = b.workerBuf[:]
	}
	for t0 := gi; t0 < total; t0 += batchChunk * G {
		nl := min(batchChunk, (total-t0+G-1)/G) // lane l is iteration t0+l*G
		b.scrub()
		b.nl = int32(nl)
		for s := range b.slots {
			b.slots[s] = b.slotBuf[s*batchChunk : s*batchChunk+int(nl)]
		}
		// Seed the induction-variable slots, decomposing each iteration
		// innermost-fastest exactly like the goroutine path.
		for l := int64(0); l < nl; l++ {
			t := t0 + l*G
			if b.workerOf != nil {
				b.workerOf[l] = int32((t / G) % W)
			}
			rem := t
			for i := len(loops) - 1; i >= 0; i-- {
				d := loops[i]
				idx := rem % d.count
				rem /= d.count
				b.slots[bp.IvSlots[i]][l] = mem.Int(d.start + idx*d.step)
			}
		}
		if err := b.run(); err != nil {
			// Mirror an erroring goroutine worker: no ops published, no
			// partials, the nest aborts with the lane error.
			return err
		}
	}
	maxOps := int64(0)
	for w := int64(0); w < W; w++ {
		maxOps = max(maxOps, b.opsW[w].n)
		partials[w] = b.redAcc[w]
		b.opsW[w].flush(c.in) // as a worker lane flushes when it ends
	}
	k.ops.n += maxOps
	return nil
}

// tick charges one op per lane to its worker's counter, as the per-lane
// path charges each lane.
func (b *batchExec) tick() {
	if b.workerOf == nil {
		b.opsW[0].add(b.c.in, int64(b.nl))
		return
	}
	for _, w := range b.workerOf[:b.nl] {
		b.opsW[w].add(b.c.in, 1)
	}
}

// vreg makes register r varying and returns its lane slice.
func (b *batchExec) vreg(r int32) []mem.Value {
	rv := &b.regs[r]
	if rv.v == nil {
		rv.v = make([]mem.Value, batchChunk)
	}
	rv.uni = false
	return rv.v[:b.nl]
}

func (b *batchExec) setU(r int32, v mem.Value) {
	rv := &b.regs[r]
	rv.uni, rv.u = true, v
}

// laneOff computes one lane's element with the shared bounds step. A
// pointer variable's target pbuf+poff is the same for every lane: the
// pointer is uniform inside a batched nest, since stores to it batch
// uniformly or decline.
func (b *batchExec) laneOff(v *VarInfo, pbuf *mem.Buffer, poff int, idxBase, idxN int32, l int32, line int32) (*mem.Buffer, int, error) {
	if pbuf != nil {
		return pbuf, poff + int(b.regs[idxBase].at(l).AsInt()), nil
	}
	flat := 0
	for d := range int(idxN) {
		i := b.regs[idxBase+int32(d)].at(l).AsInt()
		var ok bool
		if flat, ok = v.Dim(flat, d, i); !ok {
			return nil, 0, vmErrf(line, "%v", v.DimError(d, i))
		}
	}
	return v.Buf, flat - v.Bias, nil
}

// run is the batch dispatch loop.
func (b *batchExec) run() error {
	code := b.bp.Code
	consts := b.bp.Consts
	pc := 0
	for {
		ins := &code[pc]
		switch ins.Op {
		case bytecode.BNop:

		case bytecode.BTick:
			b.tick()

		case bytecode.BConst:
			b.setU(ins.A, consts[ins.B])

		case bytecode.BLoadU:
			v, err := b.c.loadSlot(&b.outer, ins.B, ins.Line, false)
			if err != nil {
				return err
			}
			b.setU(ins.A, v)

		case bytecode.BStoreU:
			v, err := b.c.scalarTarget(&b.outer, ins.A, ins.Line)
			if err != nil {
				return err
			}
			val := b.regs[ins.B].u
			if w := v.Buf.Word0(); w != nil {
				v.Buf.StoreWord(w, val)
				break
			}
			if err := v.Buf.Store(0, val); err != nil {
				return vmErrf(ins.Line, "%v", err)
			}

		case bytecode.BAugU:
			v, err := b.c.scalarTarget(&b.outer, ins.A, ins.Line)
			if err != nil {
				return err
			}
			var old mem.Value
			if w := v.Buf.Word0(); w != nil {
				old = v.Buf.LoadWord(w)
			} else {
				old, err = v.Buf.Load(0)
				if err != nil {
					return vmErrf(ins.Line, "%v", err)
				}
			}
			nv, err := rt.BinOp(ast.OpKind(ins.D), old, b.regs[ins.B].u)
			if err != nil {
				return vmErrf(ins.Line, "%v", err)
			}
			if w := v.Buf.Word0(); w != nil {
				v.Buf.StoreWord(w, nv)
				break
			}
			if err := v.Buf.Store(0, nv); err != nil {
				return vmErrf(ins.Line, "%v", err)
			}

		case bytecode.BLoadL:
			copy(b.vreg(ins.A), b.slots[ins.B])

		case bytecode.BStoreL:
			kind := b.bp.SlotKinds[ins.A]
			dst := b.slots[ins.A]
			src := b.regs[ins.B]
			if src.uni {
				cv := src.u.Convert(kind)
				for l := range b.nl {
					dst[l] = cv
				}
			} else {
				for l := range b.nl {
					dst[l] = src.v[l].Convert(kind)
				}
			}

		case bytecode.BDecl:
			kind := mem.Kind(ins.C)
			dst := b.slots[ins.A]
			if ins.B < 0 {
				for l := range b.nl {
					dst[l] = mem.Value{K: kind}
				}
			} else {
				src := b.regs[ins.B]
				for l := range b.nl {
					dst[l] = src.at(l).Convert(kind)
				}
			}

		case bytecode.BLoadIdx:
			v, pbuf, poff, err := b.c.subscriptSlot(&b.outer, ins.B, ins.D, ins.Line)
			if err != nil {
				return err
			}
			dst := b.vreg(ins.A)
			for l := range b.nl {
				buf, off, err := b.laneOff(v, pbuf, poff, ins.C, ins.D, l, ins.Line)
				if err != nil {
					return err
				}
				val, err := buf.Load(off)
				if err != nil {
					return vmErrf(ins.Line, "%v", err)
				}
				dst[l] = val
			}

		case bytecode.BStoreIdx:
			v, pbuf, poff, err := b.c.subscriptSlot(&b.outer, ins.A, ins.C, ins.Line)
			if err != nil {
				return err
			}
			src := b.regs[ins.D]
			for l := range b.nl {
				buf, off, err := b.laneOff(v, pbuf, poff, ins.B, ins.C, l, ins.Line)
				if err != nil {
					return err
				}
				if err := buf.Store(off, src.at(l)); err != nil {
					return vmErrf(ins.Line, "%v", err)
				}
			}

		case bytecode.BAugIdx:
			v, pbuf, poff, err := b.c.subscriptSlot(&b.outer, ins.A, ins.C, ins.Line)
			if err != nil {
				return err
			}
			src := b.regs[ins.D]
			op := ast.OpKind(ins.E)
			for l := range b.nl {
				buf, off, err := b.laneOff(v, pbuf, poff, ins.B, ins.C, l, ins.Line)
				if err != nil {
					return err
				}
				old, err := buf.Load(off)
				if err != nil {
					return vmErrf(ins.Line, "%v", err)
				}
				nv, err := rt.BinOp(op, old, src.at(l))
				if err != nil {
					return vmErrf(ins.Line, "%v", err)
				}
				if err := buf.Store(off, nv); err != nil {
					return vmErrf(ins.Line, "%v", err)
				}
			}

		case bytecode.BBin:
			x, y := b.regs[ins.B], b.regs[ins.C]
			op := ast.OpKind(ins.D)
			if x.uni && y.uni {
				v, err := rt.BinOp(op, x.u, y.u)
				if err != nil {
					return vmErrf(ins.Line, "%v", err)
				}
				b.setU(ins.A, v)
				break
			}
			dst := b.vreg(ins.A)
			for l := range b.nl {
				xv, yv := x.at(l), y.at(l)
				if xv.K == mem.KInt && yv.K == mem.KInt {
					if vmIntBin(op, xv.I, yv.I, &dst[l]) {
						continue
					}
				} else if xv.K == mem.KF64 && yv.K == mem.KF64 {
					if vmF64Bin(op, xv.F, yv.F, &dst[l]) {
						continue
					}
				}
				v, err := rt.BinOp(op, xv, yv)
				if err != nil {
					return vmErrf(ins.Line, "%v", err)
				}
				dst[l] = v
			}

		case bytecode.BJump:
			pc = int(ins.A)
			continue
		case bytecode.BJumpUFalse:
			if !b.regs[ins.A].u.Truth() {
				pc = int(ins.B)
				continue
			}

		case bytecode.BRed:
			src := b.regs[ins.B]
			op := ast.OpKind(ins.D)
			acc := b.redAcc
			ri := ins.A
			for l := range b.nl {
				w := int32(0)
				if b.workerOf != nil {
					w = b.workerOf[l]
				}
				nv, err := rt.BinOp(op, acc[w][ri], src.at(l))
				if err != nil {
					return vmErrf(ins.Line, "%v", err)
				}
				acc[w][ri] = nv
			}

		case bytecode.BEndBatch:
			return nil

		default:
			return vmErrf(ins.Line, "spmd: bad opcode %d", ins.Op)
		}
		pc++
	}
}
