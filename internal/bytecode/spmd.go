// SPMD batch lowering: compiles a proven-independent loop nest's body into
// a lane-batched instruction stream that executes a gang's lanes, a batch
// at a time, in one dispatch loop (docs/PERFORMANCE.md, "Lane batching in
// the VM").
//
// The value model is uniform/varying. A value is uniform when every lane
// provably computes the same thing: literals, loads of lane-shared scalars,
// and binary operators over uniform operands. Everything else — induction
// variables, body-declared locals, array element loads — is varying: a flat
// lane-indexed slice. The only control flow is the counted C `for` whose
// condition and post are uniform: every lane runs the same trip count, so
// the loop compiles to plain jumps executed once per batch step. There is
// no execution mask; every instruction runs for every lane of the batch.
//
// The lowerer is deliberately partial. Every construct it cannot prove it
// reproduces with per-lane-sequential semantics declines the whole nest
// with a reason string, and the interpreter falls back to the per-lane
// goroutine path — correctness never depends on batching firing. The load-
// bearing decline rules:
//
//   - Stores to lane-shared scalars batch only when every lane would store
//     the same value in the same order: uniform RHS, and — for
//     read-modify-writes and reads — only after a dominating plain store in
//     the body re-initialized the scalar, so no lane observes state carried
//     from another lane's run.
//   - Reduction variables accept only accumulation shapes (`s op= e`,
//     `s = s op e`, `s++`); any other access declines.
//   - `if`, `while`, Fortran `do`, a `for` whose condition or post varies,
//     `&&`, `||`, unary operators, compound assignments to lane locals,
//     calls, casts, sizeof, array or pointer declarations, nested
//     directives, and returns decline as "unsupported-construct".
package bytecode

import (
	"accv/internal/ast"
	"accv/internal/mem"
	"accv/internal/rt"
)

// Batch instruction opcodes. R[x] is a batch register (uniform value or
// lane-indexed slice), L[x] a lane slot (always lane-indexed), O[x] an
// outer slot (a name resolved through the enclosing environment at run
// time), and "once" marks instructions that execute once per batch step
// rather than once per lane.
const (
	BNop        Op = iota
	BTick          // charge one interpreted operation per lane
	BConst         // R[A] = Consts[B]  (uniform)
	BLoadU         // R[A] = load of outer O[B]: scalar value, array decay, or runtime constant (once)
	BStoreU        // outer scalar O[A] = R[B]  (once; R[B] uniform)
	BAugU          // outer scalar O[A] = O[A] <D> R[B]  (once; R[B] uniform)
	BLoadL         // R[A] = L[B]  (varying copy)
	BStoreL        // L[A] = convert(R[B]) per lane
	BDecl          // L[A] = zero of kind C, or convert(R[B]) when B >= 0, per lane
	BLoadIdx       // R[A] = O[B][ R[C] .. R[C+D-1] ] per lane
	BStoreIdx      // O[A][ R[B] .. R[B+C-1] ] = R[D] per lane
	BAugIdx        // O[A][ R[B] .. R[B+C-1] ] <E>= R[D] per lane
	BBin           // R[A] = R[B] <D> R[C] per lane (uniform when both operands are)
	BJump          // pc = A
	BJumpUFalse    // if !Truth(R[A]) pc = B  (R[A] uniform)
	BRed           // reduction A: acc[worker(lane)] = acc <D> R[B], ascending lane order
	BEndBatch      // fall off the end of the batch body
)

// BatchProc is one lowered nest body, immutable and shared across every
// run and gang of the owning Executable.
type BatchProc struct {
	// Name identifies the nest in diagnostics ("main/loop@12").
	Name string
	// Line is the loop directive's source line.
	Line int
	Code []Ins
	// Consts is the literal pool.
	Consts []mem.Value
	// IvNames are the collapsed induction variables, outermost first;
	// IvSlots their lane slots.
	IvNames []string
	IvSlots []int32
	// SlotKinds fixes each lane slot's element kind; every store converts,
	// mirroring mem.Buffer's store conversion.
	SlotKinds []mem.Kind
	// OuterNames maps outer slots to source names resolved through the
	// gang environment at run time.
	OuterNames []string
	// RedNames are the loop's reduction variables in plan order; BRed's A
	// operand indexes this list (and the runtime accumulator table).
	RedNames []string
	NumRegs  int
}

// batchLowerer compiles one nest body.
type batchLowerer struct {
	p      *BatchProc
	consts map[mem.Value]int32
	outer  map[string]int32
	reds   map[string]int32
	// scopes maps names to lane slots, innermost last; blocks push and pop.
	scopes []map[string]int32
	// writtenOuter over-approximates the lane-shared scalars the body
	// stores to; initedOuter marks those re-initialized by a dominating
	// plain store, after which reads and RMWs are lane-repeatable.
	writtenOuter map[string]bool
	initedOuter  map[string]bool
	// loopDepth counts enclosing loop bodies, under which a store no longer
	// dominates the body's exit.
	loopDepth int
	reason    string // first decline reason; non-empty fails the lowering
}

// shape is a static uniform/varying classification.
type shape uint8

const (
	uniform shape = iota
	varying
)

func (s shape) join(o shape) shape {
	if s == varying || o == varying {
		return varying
	}
	return uniform
}

// LowerBatch compiles the collapsed body of a proven-independent nest.
// ivNames are the collapse-consumed induction variables (outermost first),
// redNames the reduction variables in plan order. On success it returns
// the proc; otherwise nil and the decline reason.
func LowerBatch(name string, dirLine int, body ast.Stmt, ivNames, redNames []string) (*BatchProc, string) {
	lw := &batchLowerer{
		p:            &BatchProc{Name: name, Line: dirLine, IvNames: ivNames, RedNames: redNames},
		consts:       map[mem.Value]int32{},
		outer:        map[string]int32{},
		reds:         map[string]int32{},
		writtenOuter: map[string]bool{},
		initedOuter:  map[string]bool{},
		scopes:       []map[string]int32{{}},
	}
	for i, r := range redNames {
		if _, dup := lw.reds[r]; dup {
			return nil, "reduction-shape"
		}
		lw.reds[r] = int32(i)
	}
	for _, iv := range ivNames {
		if _, isRed := lw.reds[iv]; isRed {
			return nil, "reduction-shape"
		}
		lw.p.IvSlots = append(lw.p.IvSlots, lw.newSlot(iv, mem.KInt))
	}
	lw.prescan(body)
	lw.tick() // the goroutine path charges each lane one op before its body
	lw.stmt(body)
	if lw.reason != "" {
		return nil, lw.reason
	}
	lw.emit(Ins{Op: BEndBatch})
	return lw.p, ""
}

// --- bookkeeping ---

func (lw *batchLowerer) fail(reason string) {
	if lw.reason == "" {
		lw.reason = reason
	}
}

func (lw *batchLowerer) emit(i Ins) int {
	lw.p.Code = append(lw.p.Code, i)
	return len(lw.p.Code) - 1
}

func (lw *batchLowerer) here() int { return len(lw.p.Code) }

func (lw *batchLowerer) constant(v mem.Value) int32 {
	if i, ok := lw.consts[v]; ok {
		return i
	}
	i := int32(len(lw.p.Consts))
	lw.consts[v] = i
	lw.p.Consts = append(lw.p.Consts, v)
	return i
}

func (lw *batchLowerer) outerSlot(name string) int32 {
	if i, ok := lw.outer[name]; ok {
		return i
	}
	i := int32(len(lw.p.OuterNames))
	lw.outer[name] = i
	lw.p.OuterNames = append(lw.p.OuterNames, name)
	return i
}

func (lw *batchLowerer) newSlot(name string, k mem.Kind) int32 {
	s := int32(len(lw.p.SlotKinds))
	lw.p.SlotKinds = append(lw.p.SlotKinds, k)
	lw.scopes[len(lw.scopes)-1][name] = s
	return s
}

// laneSlot resolves a name through the lowering-time scope stack.
func (lw *batchLowerer) laneSlot(name string) (int32, bool) {
	for i := len(lw.scopes) - 1; i >= 0; i-- {
		if s, ok := lw.scopes[i][name]; ok {
			return s, true
		}
	}
	return -1, false
}

func (lw *batchLowerer) pushScope() { lw.scopes = append(lw.scopes, map[string]int32{}) }
func (lw *batchLowerer) popScope()  { lw.scopes = lw.scopes[:len(lw.scopes)-1] }

func (lw *batchLowerer) reserve(regs int32) {
	if int(regs) > lw.p.NumRegs {
		lw.p.NumRegs = int(regs)
	}
}

func (lw *batchLowerer) tick() { lw.emit(Ins{Op: BTick}) }

// prescan over-approximates the set of scalar names the body assigns so
// reads of lane-shared scalars the body later writes can be declined
// (the read would observe state carried from another lane's execution).
func (lw *batchLowerer) prescan(body ast.Stmt) {
	ast.Walk(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if id, ok := x.LHS.(*ast.Ident); ok {
				lw.writtenOuter[id.Name] = true
			}
		case *ast.IncDecStmt:
			if id, ok := x.X.(*ast.Ident); ok {
				lw.writtenOuter[id.Name] = true
			}
		}
		return true
	})
}

// --- statements ---

func (lw *batchLowerer) stmt(st ast.Stmt) {
	if st == nil || lw.reason != "" {
		return
	}
	switch x := st.(type) {
	case *ast.Block:
		lw.tick()
		scoped := !x.Bare
		if scoped {
			lw.pushScope()
		}
		for _, s := range x.Stmts {
			lw.stmt(s)
		}
		if scoped {
			lw.popScope()
		}
	case *ast.DeclStmt:
		if len(x.Dims) > 0 || x.Type.Ptr {
			lw.fail("unsupported-construct")
			return
		}
		kind := rt.BasicKind(x.Type)
		lw.tick()
		init := int32(-1)
		if x.Init != nil {
			if _, ok := lw.expr(x.Init, 0); !ok {
				return
			}
			init = 0
		}
		s := lw.newSlot(x.Name, kind)
		lw.emit(Ins{Op: BDecl, A: s, B: init, C: int32(kind), Line: line(x)})
	case *ast.AssignStmt:
		lw.assign(x.LHS, x.Op, x.RHS, x)
	case *ast.IncDecStmt:
		op := "+="
		if x.Op == "--" {
			op = "-="
		}
		lw.assign(x.X, op, nil, x)
	case *ast.ExprStmt:
		lw.tick()
		lw.expr(x.X, 0)
	case *ast.ForStmt:
		lw.forStmt(x)
	default:
		// if, while, do, pragmas, returns, and anything new: per-lane
		// control flow the maskless batch model does not reproduce.
		lw.fail("unsupported-construct")
	}
}

// forStmt lowers a lockstep-convergent loop: with a uniform condition and
// post, every lane's own run has the same trip count, so control executes
// once per batch step and the body per lane. Any other loop declines.
func (lw *batchLowerer) forStmt(x *ast.ForStmt) {
	lw.tick()
	lw.pushScope() // the tree-walker gives the loop its own scope
	defer lw.popScope()
	lw.stmt(x.Init)
	if lw.reason != "" {
		return
	}
	if x.Cond != nil {
		sh, ok := lw.shapeOf(x.Cond)
		if !ok {
			return
		}
		if sh == varying {
			lw.fail("unsupported-construct")
			return
		}
	}
	if x.Post != nil && lw.stmtVaries(x.Post) {
		lw.fail("unsupported-construct")
		return
	}
	top := lw.here()
	jf := -1
	if x.Cond != nil {
		if _, ok := lw.expr(x.Cond, 0); !ok {
			return
		}
		jf = lw.emit(Ins{Op: BJumpUFalse, A: 0})
	}
	lw.loopDepth++
	lw.stmt(x.Body)
	lw.stmt(x.Post)
	lw.loopDepth--
	lw.emit(Ins{Op: BJump, A: int32(top)})
	if jf >= 0 {
		lw.p.Code[jf].B = int32(lw.here())
	}
}

// stmtVaries reports whether a loop post-statement writes varying state,
// which gives lanes different trip counts even under a uniform condition
// (in practice posts over shared counters stay uniform).
func (lw *batchLowerer) stmtVaries(st ast.Stmt) bool {
	var target ast.Expr
	var rhs ast.Expr
	switch x := st.(type) {
	case *ast.AssignStmt:
		target, rhs = x.LHS, x.RHS
	case *ast.IncDecStmt:
		target = x.X
	default:
		return true
	}
	id, ok := target.(*ast.Ident)
	if !ok {
		return true
	}
	if _, lane := lw.laneSlot(id.Name); lane {
		return true
	}
	if rhs != nil {
		sh, ok := lw.shapeOf(rhs)
		if !ok || sh == varying {
			return true
		}
	}
	return false
}

// assign lowers an assignment or increment/decrement. rhs == nil means an
// implicit Int(1). Evaluation order matches the tree-walker: RHS first,
// then the lvalue's subscripts.
func (lw *batchLowerer) assign(lhs ast.Expr, op string, rhs ast.Expr, at ast.Stmt) {
	kind := ast.OpInvalid
	if op != "=" {
		kind = ast.BinOpKind(op[:1])
		if kind == ast.OpInvalid {
			lw.fail("unsupported-construct")
			return
		}
	}
	switch x := lhs.(type) {
	case *ast.Ident:
		if ri, isRed := lw.redTarget(x.Name); isRed {
			lw.redAssign(ri, op, kind, rhs, at)
			return
		}
		if slot, lane := lw.laneSlot(x.Name); lane {
			if op != "=" {
				lw.fail("unsupported-construct")
				return
			}
			lw.tick()
			if _, ok := lw.lowerRHS(rhs, 0); !ok {
				return
			}
			lw.emit(Ins{Op: BStoreL, A: slot, B: 0, Line: line(at)})
			return
		}
		lw.sharedAssign(x.Name, op, kind, rhs, at)
	case *ast.IndexExpr:
		base, ok := x.X.(*ast.Ident)
		if !ok {
			lw.fail("unsupported-construct")
			return
		}
		if _, lane := lw.laneSlot(base.Name); lane {
			lw.fail("unsupported-construct") // lane slots are scalar
			return
		}
		if _, isRed := lw.redTarget(base.Name); isRed {
			lw.fail("reduction-shape")
			return
		}
		lw.tick()
		if _, ok := lw.lowerRHS(rhs, 0); !ok {
			return
		}
		n := int32(len(x.Idx))
		for i, ie := range x.Idx {
			if _, ok := lw.expr(ie, 1+int32(i)); !ok {
				return
			}
		}
		s := lw.outerSlot(base.Name)
		if op == "=" {
			lw.emit(Ins{Op: BStoreIdx, A: s, B: 1, C: n, D: 0, Line: line(at)})
		} else {
			lw.emit(Ins{Op: BAugIdx, A: s, B: 1, C: n, D: 0, E: int32(kind), Line: line(at)})
		}
	default:
		lw.fail("unsupported-construct") // pointer-dereference stores
	}
}

// sharedAssign lowers a store to a lane-shared scalar. The store executes
// once per batch step, which is per-lane-equivalent only under the rules
// in the package comment; anything else declines.
func (lw *batchLowerer) sharedAssign(name, op string, kind ast.OpKind, rhs ast.Expr, at ast.Stmt) {
	if op != "=" && !lw.initedOuter[name] {
		lw.fail("shared-scalar-carried") // RMW over state from a previous lane
		return
	}
	lw.tick()
	sh, ok := lw.lowerRHS(rhs, 0)
	if !ok {
		return
	}
	if sh != uniform {
		lw.fail("shared-scalar-store")
		return
	}
	s := lw.outerSlot(name)
	if op == "=" {
		if lw.loopDepth == 0 {
			lw.initedOuter[name] = true // dominating re-initialization
		}
		lw.emit(Ins{Op: BStoreU, A: s, B: 0, Line: line(at)})
	} else {
		lw.emit(Ins{Op: BAugU, A: s, B: 0, D: int32(kind), Line: line(at)})
	}
}

// redTarget reports whether name is a reduction variable that is not
// shadowed by a lane slot.
func (lw *batchLowerer) redTarget(name string) (int32, bool) {
	if _, lane := lw.laneSlot(name); lane {
		return -1, false
	}
	ri, ok := lw.reds[name]
	return ri, ok
}

// redAssign lowers an accumulation into a reduction variable: `s op= e`,
// `s = s op e`, or `s++`/`s--`. The per-worker accumulator folds lanes in
// ascending order, exactly as the goroutine path's sequential lanes do.
func (lw *batchLowerer) redAssign(ri int32, op string, kind ast.OpKind, rhs ast.Expr, at ast.Stmt) {
	name := lw.p.RedNames[ri]
	if op == "=" {
		be, ok := rhs.(*ast.BinaryExpr)
		if !ok {
			lw.fail("reduction-shape")
			return
		}
		k := be.Kind
		if k == ast.OpInvalid {
			k = ast.BinOpKind(be.Op)
		}
		id, lok := be.X.(*ast.Ident)
		if !lok || id.Name != name || k == ast.OpInvalid {
			lw.fail("reduction-shape")
			return
		}
		kind, rhs = k, be.Y
	}
	if rhs != nil && exprMentions(rhs, name) {
		lw.fail("reduction-shape")
		return
	}
	lw.tick()
	if _, ok := lw.lowerRHS(rhs, 0); !ok {
		return
	}
	lw.emit(Ins{Op: BRed, A: ri, B: 0, D: int32(kind), Line: line(at)})
}

func exprMentions(e ast.Expr, name string) bool {
	found := false
	ast.Walk(&ast.ExprStmt{X: e}, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			found = true
		}
		return !found
	})
	return found
}

func (lw *batchLowerer) lowerRHS(rhs ast.Expr, dst int32) (shape, bool) {
	if rhs == nil {
		lw.reserve(dst + 1)
		lw.emit(Ins{Op: BConst, A: dst, B: lw.constant(mem.Int(1))})
		return uniform, true
	}
	return lw.expr(rhs, dst)
}

// --- expressions ---

// shapeOf classifies an expression without emitting code; ok=false means
// the expression (or a name-access rule) declines the nest.
func (lw *batchLowerer) shapeOf(e ast.Expr) (shape, bool) {
	switch x := e.(type) {
	case *ast.BasicLit:
		if x.Kind == ast.StringLit {
			lw.fail("unsupported-construct")
			return uniform, false
		}
		return uniform, true
	case *ast.Ident:
		if _, lane := lw.laneSlot(x.Name); lane {
			return varying, true
		}
		if _, isRed := lw.reds[x.Name]; isRed {
			lw.fail("reduction-shape")
			return uniform, false
		}
		if lw.writtenOuter[x.Name] && !lw.initedOuter[x.Name] {
			lw.fail("shared-scalar-carried")
			return uniform, false
		}
		return uniform, true
	case *ast.IndexExpr:
		if _, ok := x.X.(*ast.Ident); !ok {
			lw.fail("unsupported-construct")
			return uniform, false
		}
		for _, ie := range x.Idx {
			if _, ok := lw.shapeOf(ie); !ok {
				return uniform, false
			}
		}
		if _, ok := lw.shapeOf(x.X); !ok {
			return uniform, false
		}
		return varying, true
	case *ast.BinaryExpr:
		a, ok := lw.shapeOf(x.X)
		if !ok {
			return uniform, false
		}
		b, ok := lw.shapeOf(x.Y)
		if !ok {
			return uniform, false
		}
		return a.join(b), true
	default:
		lw.fail("unsupported-construct")
		return uniform, false
	}
}

// expr lowers e into R[dst]; registers above dst are scratch. The
// returned shape is R[dst]'s static classification.
func (lw *batchLowerer) expr(e ast.Expr, dst int32) (shape, bool) {
	if lw.reason != "" {
		return uniform, false
	}
	lw.reserve(dst + 1)
	switch x := e.(type) {
	case *ast.BasicLit:
		v, err := rt.EvalLit(x)
		if err != nil || x.Kind == ast.StringLit {
			lw.fail("unsupported-construct")
			return uniform, false
		}
		lw.emit(Ins{Op: BConst, A: dst, B: lw.constant(v)})
		return uniform, true
	case *ast.Ident:
		if slot, lane := lw.laneSlot(x.Name); lane {
			lw.emit(Ins{Op: BLoadL, A: dst, B: slot, Line: line(x)})
			return varying, true
		}
		if _, isRed := lw.reds[x.Name]; isRed {
			lw.fail("reduction-shape")
			return uniform, false
		}
		if lw.writtenOuter[x.Name] && !lw.initedOuter[x.Name] {
			lw.fail("shared-scalar-carried")
			return uniform, false
		}
		lw.emit(Ins{Op: BLoadU, A: dst, B: lw.outerSlot(x.Name), Line: line(x)})
		return uniform, true
	case *ast.IndexExpr:
		base, ok := x.X.(*ast.Ident)
		if !ok {
			lw.fail("unsupported-construct")
			return uniform, false
		}
		if _, lane := lw.laneSlot(base.Name); lane {
			lw.fail("unsupported-construct")
			return uniform, false
		}
		if _, isRed := lw.redTarget(base.Name); isRed {
			lw.fail("reduction-shape")
			return uniform, false
		}
		n := int32(len(x.Idx))
		for i, ie := range x.Idx {
			if _, ok := lw.expr(ie, dst+int32(i)); !ok {
				return uniform, false
			}
		}
		lw.emit(Ins{Op: BLoadIdx, A: dst, B: lw.outerSlot(base.Name), C: dst, D: n, Line: line(x)})
		return varying, true
	case *ast.BinaryExpr:
		k := x.Kind
		if k == ast.OpInvalid {
			k = ast.BinOpKind(x.Op)
		}
		if k == ast.OpInvalid || k == ast.OpLAnd || k == ast.OpLOr {
			// Short-circuit operators skip the RHS per lane.
			lw.fail("unsupported-construct")
			return uniform, false
		}
		a, ok := lw.expr(x.X, dst)
		if !ok {
			return uniform, false
		}
		b, ok := lw.expr(x.Y, dst+1)
		if !ok {
			return uniform, false
		}
		lw.emit(Ins{Op: BBin, A: dst, B: dst, C: dst + 1, D: int32(k), Line: line(x)})
		return a.join(b), true
	default:
		// Unary operators, calls, casts, sizeof: side effects and
		// diagnostics belong to the tree-walker.
		lw.fail("unsupported-construct")
		return uniform, false
	}
}
