package interp

import (
	"fmt"
	"math"

	"accv/internal/ast"
	"accv/internal/compiler"
	"accv/internal/mem"
)

// loopDesc is a canonical counted loop: var runs start, start+step, ... for
// count iterations.
type loopDesc struct {
	varName string
	start   int64
	step    int64
	count   int64
}

// analyzeNest canonicalizes the plan's collapsed loops, evaluating bounds
// in the current environment. It returns the loop descriptors
// outermost-first and the body of the innermost collapsed loop.
func (c *execCtx) analyzeNest(nest []ast.Stmt) ([]loopDesc, ast.Stmt, error) {
	loops := make([]loopDesc, len(nest))
	var body ast.Stmt
	for i, loop := range nest {
		var err error
		switch x := loop.(type) {
		case *ast.ForStmt:
			loops[i], body, err = c.analyzeFor(x)
		case *ast.DoStmt:
			loops[i], err = c.analyzeDo(x)
			body = x.Body
		}
		if err != nil {
			return nil, nil, err
		}
	}
	return loops, body, nil
}

// analyzeFor canonicalizes a C for loop.
func (c *execCtx) analyzeFor(x *ast.ForStmt) (loopDesc, ast.Stmt, error) {
	d := loopDesc{step: 1}
	// Init: "int i = e" or "i = e".
	switch init := x.Init.(type) {
	case *ast.DeclStmt:
		if init.Init == nil {
			return d, nil, errf(x, "loop induction variable must be initialized")
		}
		d.varName = init.Name
		v, err := c.eval(init.Init)
		if err != nil {
			return d, nil, err
		}
		d.start = v.AsInt()
	case *ast.AssignStmt:
		id, ok := init.LHS.(*ast.Ident)
		if !ok || init.Op != "=" {
			return d, nil, errf(x, "loop initialization is not canonical")
		}
		d.varName = id.Name
		v, err := c.eval(init.RHS)
		if err != nil {
			return d, nil, err
		}
		d.start = v.AsInt()
	default:
		return d, nil, errf(x, "loop initialization is not canonical")
	}
	// Post: i++, i--, i += k, i -= k, i = i + k.
	switch post := x.Post.(type) {
	case *ast.IncDecStmt:
		if post.Op == "--" {
			d.step = -1
		}
	case *ast.AssignStmt:
		switch post.Op {
		case "+=", "-=":
			v, err := c.eval(post.RHS)
			if err != nil {
				return d, nil, err
			}
			d.step = v.AsInt()
			if post.Op == "-=" {
				d.step = -d.step
			}
		case "=":
			be, ok := post.RHS.(*ast.BinaryExpr)
			var bk ast.OpKind
			if ok {
				bk = binKind(be)
			}
			if !ok || (bk != ast.OpAdd && bk != ast.OpSub) {
				return d, nil, errf(x, "loop increment is not canonical")
			}
			v, err := c.eval(be.Y)
			if err != nil {
				return d, nil, err
			}
			d.step = v.AsInt()
			if bk == ast.OpSub {
				d.step = -d.step
			}
		default:
			return d, nil, errf(x, "loop increment is not canonical")
		}
	default:
		return d, nil, errf(x, "loop increment is not canonical")
	}
	if d.step == 0 {
		return d, nil, errf(x, "loop step is zero")
	}
	// Cond: i < e, i <= e, i > e, i >= e.
	cond, ok := x.Cond.(*ast.BinaryExpr)
	if !ok {
		return d, nil, errf(x, "loop condition is not canonical")
	}
	if id, ok := cond.X.(*ast.Ident); !ok || id.Name != d.varName {
		return d, nil, errf(x, "loop condition does not test the induction variable")
	}
	lim, err := c.eval(cond.Y)
	if err != nil {
		return d, nil, err
	}
	limit := lim.AsInt()
	switch binKind(cond) {
	case ast.OpLt:
		d.count = ceilDiv(limit-d.start, d.step)
	case ast.OpLe:
		d.count = ceilDiv(limit-d.start+1, d.step)
	case ast.OpGt:
		d.count = ceilDiv(d.start-limit, -d.step)
	case ast.OpGe:
		d.count = ceilDiv(d.start-limit+1, -d.step)
	default:
		return d, nil, errf(x, "loop condition operator %q is not canonical", cond.Op)
	}
	if d.count < 0 {
		d.count = 0
	}
	return d, x.Body, nil
}

// ceilDiv computes ceil(a/b) for positive b.
func ceilDiv(a, b int64) int64 {
	if b <= 0 {
		return 0
	}
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}

// analyzeDo canonicalizes a Fortran do loop.
func (c *execCtx) analyzeDo(x *ast.DoStmt) (loopDesc, error) {
	d := loopDesc{varName: x.Var, step: 1}
	from, err := c.eval(x.From)
	if err != nil {
		return d, err
	}
	to, err := c.eval(x.To)
	if err != nil {
		return d, err
	}
	if x.Step != nil {
		sv, err := c.eval(x.Step)
		if err != nil {
			return d, err
		}
		d.step = sv.AsInt()
	}
	if d.step == 0 {
		return d, errf(x, "do loop step is zero")
	}
	d.start = from.AsInt()
	if d.step > 0 {
		d.count = ceilDiv(to.AsInt()-d.start+1, d.step)
	} else {
		d.count = ceilDiv(d.start-to.AsInt()+1, -d.step)
	}
	return d, nil
}

// execLoop executes an acc loop directive. On the host (if-false fallback)
// or when a bug effect dropped the plan, the loop runs as ordinary code.
func (c *execCtx) execLoop(p *ast.PragmaStmt, plan *compiler.LoopPlan) error {
	if c.kernel == nil || c.hostFallback || plan.DropPlan || plan.Seq {
		_, err := c.exec(p.Body)
		return err
	}
	k := c.kernel
	if plan.Gang0Only && !k.kernelsMode && k.gang != 0 {
		return nil
	}
	loops, body, err := c.analyzeNest(plan.Nest)
	if err != nil {
		return err
	}
	hasGang := plan.Levels.Has(compiler.LevelGang) && !plan.Gang0Only
	hasWorker := plan.Levels.Has(compiler.LevelWorker)

	if k.kernelsMode && hasGang {
		// Inside a kernels region the body runs single-threaded; a
		// gang-partitioned loop fans out to gang goroutines here.
		if err := c.in.plat.Current().Launch(k.gangs); err != nil {
			return err
		}
		if c.in.rc != nil {
			c.in.rc.barrier() // gangs of this loop are ordered after prior work
		}
		maxOps, err := runLanes(k.gangs, func(g int) (int64, error) {
			k2 := *k
			k2.newLane(k.gangs > 1)
			k2.gang = g
			k2.kernelsMode = false
			k2.rng ^= uint64(g+1) * 0x94d049bb133111eb
			if c.in.rc != nil {
				k2.raceGang = c.in.rc.id()
			}
			cc := *c
			cc.kernel = &k2
			err := cc.runLoopLanes(p, plan, loops, body, true, hasWorker)
			if err == nil {
				k2.ops.flush(c.in)
			}
			return k2.ops.n, err
		})
		if c.in.rc != nil {
			c.in.rc.barrier() // the fan-out joins before the walker continues
		}
		k.ops.n += maxOps
		return err
	}
	return c.runLoopLanes(p, plan, loops, body, hasGang, hasWorker)
}

// redVar pairs a reduction operator with the enclosing binding its
// per-worker partials combine into.
type redVar struct {
	op   string
	host *VarInfo
}

// runLoopLanes distributes the collapsed iteration space across the
// partitioning levels: gang filtering uses this lane's gang id, worker
// partitioning fans out through runLanes, and vector lanes are virtualized
// within each worker — each lane keeps its own private/induction
// environment but executes sequentially on the worker's goroutine
// (exactly-once execution is preserved; vector width feeds the timing
// model).
func (c *execCtx) runLoopLanes(p *ast.PragmaStmt, plan *compiler.LoopPlan, loops []loopDesc, body ast.Stmt, hasGang, hasWorker bool) error {
	k := c.kernel
	total := int64(1)
	for _, d := range loops {
		total *= d.count
	}
	if total == 0 {
		return nil
	}
	G, gi := int64(1), int64(0)
	if hasGang {
		G, gi = int64(k.gangs), int64(k.gang)
	}
	W := int64(1)
	if hasWorker {
		W = int64(k.workers)
		if plan.WorkerArg != nil {
			v, err := c.eval(plan.WorkerArg)
			if err != nil {
				return err
			}
			if n := v.AsInt(); n > 0 {
				W = n
			}
		}
	}
	redundant := plan.Redundant

	// Resolve private and reduction variable templates in this context.
	var reds []redVar
	for _, red := range plan.Reduction {
		for _, ref := range red.Vars {
			v, ok := c.env.Lookup(ref.Name)
			if !ok {
				return &RuntimeError{Line: plan.Dir.Line, Msg: fmt.Sprintf("undeclared reduction variable %q", ref.Name)}
			}
			reds = append(reds, redVar{op: red.Op, host: v})
		}
	}
	var privTemplates []*VarInfo
	for _, ref := range plan.Private {
		v, ok := c.env.Lookup(ref.Name)
		if !ok {
			return &RuntimeError{Line: plan.Dir.Line, Msg: fmt.Sprintf("undeclared private variable %q", ref.Name)}
		}
		privTemplates = append(privTemplates, v)
	}

	in := c.in
	// Under -race-check every invocation of a partitioned loop gets a fresh
	// id; lanes of one invocation are concurrent, distinct invocations in
	// the same gang are sequential.
	var raceInv int64
	if in.rc != nil {
		raceInv = in.rc.id()
	}
	partials := make([][]mem.Value, W)

	// The VM runs the lane set as batches when the compiler batched the
	// nest and the environment admits it.
	var err error
	batched := false
	if in.code != nil {
		if bp, reason := c.batchFor(p); bp == nil {
			in.noteFallback(reason)
		} else {
			batched = true
			in.spmdBatched.Add(1)
			err = c.runBatch(bp, loops, total, G, gi, W, reds, partials)
		}
	}

	worker := func(wi int) (int64, error) {
		w := int64(wi)
		lk := *k
		lk.newLane(W > 1)
		lk.worker = wi
		lk.rng ^= uint64(w+1) * 0xd6e8feb86659fd93
		// The worker environment carries the reduction accumulators,
		// initialized to the operator identity; its vector lanes all
		// combine into them (lanes run sequentially within the worker, so
		// no synchronization is needed). They, the vector lanes' private
		// copies and the induction variables belong to the worker's group.
		wenv := NewEnv(c.env)
		laneReds := make([]*VarInfo, len(reds))
		for i, rv := range reds {
			pv := newAccumulator(rv.host, rv.op)
			pv.Buf.Owner.Store(lk.group)
			laneReds[i] = pv
			wenv.Bind(pv)
		}
		V := int64(1)
		if plan.Levels.Has(compiler.LevelVector) {
			V = int64(k.vlen)
		}
		// Each virtual vector lane owns a child environment with its own
		// private copies and induction variables, created on first use.
		type laneState struct {
			ctx *execCtx
			ivs []*VarInfo
		}
		lanes := make([]*laneState, V)
		laneFor := func(v int64) *laneState {
			if lanes[v] != nil {
				return lanes[v]
			}
			l := &laneState{ctx: &execCtx{in: in, env: NewEnv(wenv), kernel: &lk}}
			l.ctx.raceInv = raceInv
			l.ctx.raceSub = w*V + v + 1 // worker×vector sub-lane, nonzero
			for pi, tmpl := range privTemplates {
				pv := makePrivate(tmpl, nil, int64(lk.rng)^(v*31+int64(pi)))
				pv.Buf.Owner.Store(lk.group)
				l.ctx.env.Bind(pv)
			}
			l.ivs = make([]*VarInfo, len(loops))
			for i, d := range loops {
				iv := newScalar(d.varName, mem.KInt, mem.Device)
				iv.Buf.Owner.Store(lk.group)
				l.ivs[i] = iv
				l.ctx.env.Bind(iv)
			}
			lanes[v] = l
			return l
		}
		for t := int64(0); t < total; t++ {
			if !redundant {
				if hasGang && t%G != gi {
					continue
				}
				if hasWorker && (t/G)%W != w {
					continue
				}
			}
			if plan.PartialLanes {
				// Miscompiled stride: only lane 0 of each partitioned level
				// executes its share, so part of the iteration space is
				// silently skipped.
				if hasWorker && (t/G)%W != 0 {
					continue
				}
				if V > 1 && (t/(G*W))%V != 0 {
					continue
				}
			}
			lane := int64(0)
			if V > 1 {
				lane = (t / (G * W)) % V
			}
			l := laneFor(lane)
			// Decompose t into per-loop indices (innermost fastest).
			rem := t
			for i := len(loops) - 1; i >= 0; i-- {
				d := loops[i]
				idx := rem % d.count
				rem /= d.count
				iv := i
				if plan.CollapseSwap && len(loops) > 1 {
					// Miscompiled collapse: the index decomposition is
					// transposed across the collapsed loops.
					iv = len(loops) - 1 - i
				}
				_ = l.ivs[iv].Buf.Store(0, mem.Int(loops[iv].start+idx*loops[iv].step))
			}
			l.ctx.tick()
			if _, err := l.ctx.exec(body); err != nil {
				return 0, err
			}
		}
		lk.ops.flush(in)
		// Publish partials for the combine phase.
		vals := make([]mem.Value, len(laneReds))
		for i, pv := range laneReds {
			v, _ := pv.Buf.Load(0)
			vals[i] = v
		}
		partials[w] = vals
		return lk.ops.n, nil
	}

	if !batched {
		// Worker lanes run in parallel: charge the slowest lane. With the
		// PGI mapping (worker ignored) W==1 and all iterations land on one
		// lane, which is exactly the §II performance observation.
		var maxOps int64
		maxOps, err = runLanes(int(W), worker)
		k.ops.n += maxOps
	}
	if err != nil {
		return err
	}

	// Combine reduction partials into the enclosing bindings.
	if len(reds) > 0 && !plan.NoCombine {
		in.regionMu.Lock()
		defer in.regionMu.Unlock()
		for i, rv := range reds {
			acc, err := rv.host.Buf.Load(0)
			if err != nil {
				return err
			}
			for w := int64(0); w < W; w++ {
				if partials[w] == nil {
					continue
				}
				acc, err = combineReduction(rv.op, acc, partials[w][i])
				if err != nil {
					return err
				}
			}
			if err := rv.host.Buf.Store(0, acc); err != nil {
				return err
			}
		}
	}
	return nil
}

// newAccumulator returns a private copy of reduction variable v whose
// element 0 holds the identity of op: where a gang's or a worker's partial
// starts.
func newAccumulator(v *VarInfo, op string) *VarInfo {
	acc := &VarInfo{Name: v.Name, Kind: v.Kind, Buf: mem.NewBuffer(v.Kind, v.Total(), mem.Device, v.Name),
		Dims: v.Dims, Lower: v.Lower, IsPtr: v.IsPtr}
	_ = acc.Buf.Store(0, reductionIdentity(op, v.Kind))
	return acc
}

// reductionIdentity returns the identity element for a reduction operator.
func reductionIdentity(op string, k mem.Kind) mem.Value {
	mk := func(i int64, f float64) mem.Value {
		switch k {
		case mem.KF32:
			return mem.F32(f)
		case mem.KF64:
			return mem.F64(f)
		default:
			return mem.Int(i)
		}
	}
	switch op {
	case "+", "|", "^", "||":
		return mk(0, 0)
	case "*":
		return mk(1, 1)
	case "max":
		return mk(math.MinInt64, math.Inf(-1))
	case "min":
		return mk(math.MaxInt64, math.Inf(1))
	case "&":
		return mk(-1, 0)
	case "&&":
		return mk(1, 1)
	}
	return mk(0, 0)
}

// combineReduction applies a reduction operator to two values.
func combineReduction(op string, a, b mem.Value) (mem.Value, error) {
	switch op {
	case "+", "*", "&", "|", "^":
		return binaryOp(op, a, b, nil)
	case "&&":
		return mem.Bool(a.Truth() && b.Truth()), nil
	case "||":
		return mem.Bool(a.Truth() || b.Truth()), nil
	case "max":
		if a.K == mem.KInt && b.K == mem.KInt {
			if a.I >= b.I {
				return a, nil
			}
			return b, nil
		}
		if a.AsFloat() >= b.AsFloat() {
			return a, nil
		}
		return b, nil
	case "min":
		if a.K == mem.KInt && b.K == mem.KInt {
			if a.I <= b.I {
				return a, nil
			}
			return b, nil
		}
		if a.AsFloat() <= b.AsFloat() {
			return a, nil
		}
		return b, nil
	}
	return mem.Value{}, fmt.Errorf("unknown reduction operator %q", op)
}
