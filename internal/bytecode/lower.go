package bytecode

import (
	"fmt"

	"accv/internal/ast"
	"accv/internal/mem"
	"accv/internal/rt"
)

// LowerProgram lowers every interpreter entry point in the program: each
// function body, each pragma (region) body, and each loop body (the lane
// scheduler enters those directly). Entries the lowerer declines are simply
// absent from the module; the interpreter tree-walks them.
func LowerProgram(prog *ast.Program) *Module {
	m := &Module{procs: make(map[ast.Stmt]*Proc)}
	for _, fn := range prog.Funcs {
		if fn.Body == nil {
			continue
		}
		m.lowerEntry(fn.Body, fn.Name)
		fn := fn
		ast.Walk(fn.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.PragmaStmt:
				if x.Body != nil {
					m.lowerEntry(x.Body, fmt.Sprintf("%s/region@%d", fn.Name, ast.LineOf(x)))
				}
			case *ast.ForStmt:
				if x.Body != nil {
					m.lowerEntry(x.Body, fmt.Sprintf("%s/for@%d", fn.Name, ast.LineOf(x)))
				}
			case *ast.DoStmt:
				if x.Body != nil {
					m.lowerEntry(x.Body, fmt.Sprintf("%s/do@%d", fn.Name, ast.LineOf(x)))
				}
			}
			return true
		})
	}
	return m
}

func (m *Module) lowerEntry(st ast.Stmt, name string) {
	if _, ok := m.procs[st]; ok {
		return
	}
	p, err := lowerProc(st, name)
	if err != nil {
		m.Declined++
		return
	}
	m.Lowered++
	m.procs[st] = p
}

// lowerer compiles one proc.
type lowerer struct {
	p         *Proc
	slots     map[string]int32
	consts    map[mem.Value]int32
	rootDecls map[*ast.DeclStmt]bool
	failed    bool // a construct forced a whole-proc decline
}

func lowerProc(st ast.Stmt, name string) (*Proc, error) {
	lw := &lowerer{
		p:         &Proc{Name: name, Root: st},
		slots:     make(map[string]int32),
		consts:    make(map[mem.Value]int32),
		rootDecls: make(map[*ast.DeclStmt]bool),
	}
	if b, ok := st.(*ast.Block); ok {
		lw.p.ChildEnv = !b.Bare
		if !lw.collectRootDecls(b) {
			return nil, ErrNotLowerable
		}
	}
	lw.stmt(st)
	if lw.failed {
		return nil, ErrNotLowerable
	}
	lw.emit(Ins{Op: OpEnd})
	return lw.p, nil
}

// collectRootDecls records the declarations the tree-walker would bind into
// the proc's own scope: direct children of the root block and of bare blocks
// chained from it. Duplicate names decline the proc (a name must map to one
// slot).
func (lw *lowerer) collectRootDecls(b *ast.Block) bool {
	seen := map[string]bool{}
	var walk func(b *ast.Block) bool
	walk = func(b *ast.Block) bool {
		for _, s := range b.Stmts {
			switch x := s.(type) {
			case *ast.DeclStmt:
				if seen[x.Name] {
					return false
				}
				seen[x.Name] = true
				lw.rootDecls[x] = true
			case *ast.Block:
				if x.Bare && !walk(x) {
					return false
				}
			}
		}
		return true
	}
	return walk(b)
}

// --- emission helpers ---

func (lw *lowerer) emit(i Ins) int {
	lw.p.Code = append(lw.p.Code, i)
	return len(lw.p.Code) - 1
}

func (lw *lowerer) patch(at int, target int) {
	switch lw.p.Code[at].Op {
	case OpJump:
		lw.p.Code[at].A = int32(target)
	case OpJumpFalse, OpJumpTrue:
		lw.p.Code[at].B = int32(target)
	}
}

func (lw *lowerer) here() int { return len(lw.p.Code) }

func (lw *lowerer) slot(name string) int32 {
	if s, ok := lw.slots[name]; ok {
		return s
	}
	s := int32(len(lw.p.SlotNames))
	lw.slots[name] = s
	lw.p.SlotNames = append(lw.p.SlotNames, name)
	return s
}

func (lw *lowerer) constant(v mem.Value) int32 {
	if i, ok := lw.consts[v]; ok {
		return i
	}
	i := int32(len(lw.p.Consts))
	lw.consts[v] = i
	lw.p.Consts = append(lw.p.Consts, v)
	return i
}

func (lw *lowerer) reserve(regs int32) {
	if int(regs) > lw.p.NumRegs {
		lw.p.NumRegs = int(regs)
	}
}

func (lw *lowerer) escape(st ast.Stmt) {
	// Escaping the proc's own root would make the proc a single OpEscape of
	// itself: the dispatcher would re-enter the VM forever. Decline instead
	// so the interpreter tree-walks the whole proc (Fortran do-loop bodies
	// registered as pragma bodies hit this).
	if st == lw.p.Root {
		lw.failed = true
		return
	}
	lw.p.Stmts = append(lw.p.Stmts, st)
	lw.emit(Ins{Op: OpEscape, B: int32(len(lw.p.Stmts) - 1), Line: int32(ast.LineOf(st))})
}

func (lw *lowerer) evalExpr(e ast.Expr, dst int32) {
	lw.reserve(dst + 1)
	lw.p.Exprs = append(lw.p.Exprs, e)
	lw.emit(Ins{Op: OpEvalExpr, A: dst, B: int32(len(lw.p.Exprs) - 1), Line: int32(ast.LineOf(e))})
}

func line(n ast.Node) int32 { return int32(ast.LineOf(n)) }

// --- statements ---

// tick mirrors the tree-walker's exec(), which charges one operation per
// statement before executing it. Escaped statements do not emit it: the
// tree-walker charges inside.
func (lw *lowerer) tick() { lw.emit(Ins{Op: OpTick}) }

func (lw *lowerer) stmt(st ast.Stmt) {
	if st == nil || lw.failed {
		return
	}
	switch x := st.(type) {
	case *ast.Block:
		// Non-bare blocks with declarations (outside the root chain) run in
		// their own scope — the tree-walker owns that. Bare blocks with
		// non-root declarations would bind into the frame scope mid-proc,
		// invalidating slot caches: decline the proc.
		if x.Declares() && !lw.rootChain(x) {
			if x.Bare {
				lw.failed = true
				return
			}
			lw.escape(x)
			return
		}
		lw.tick()
		for _, s := range x.Stmts {
			lw.stmt(s)
		}
	case *ast.DeclStmt:
		if !lw.rootDecls[x] {
			// A naked declaration outside the root scope binds into the
			// enclosing scope; the slot model cannot express it.
			lw.failed = true
			return
		}
		lw.tick()
		lw.p.Decls = append(lw.p.Decls, x)
		lw.p.NumDecls++
		lw.emit(Ins{Op: OpDecl, A: lw.slot(x.Name), B: int32(len(lw.p.Decls) - 1), Line: line(x)})
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
	case *ast.IfStmt:
		lw.tick()
		lw.expr(x.Cond, 0)
		jf := lw.emit(Ins{Op: OpJumpFalse, A: 0})
		lw.stmt(x.Then)
		if x.Else != nil {
			j := lw.emit(Ins{Op: OpJump})
			lw.patch(jf, lw.here())
			lw.stmt(x.Else)
			lw.patch(j, lw.here())
		} else {
			lw.patch(jf, lw.here())
		}
	case *ast.ForStmt:
		if _, ok := x.Init.(*ast.DeclStmt); ok {
			// A loop-scoped induction declaration needs the loop's own
			// scope; the tree-walker handles it (the body still runs as a
			// lowered proc when the lane scheduler enters it).
			lw.escape(x)
			return
		}
		lw.tick()
		lw.stmt(x.Init)
		cond := lw.here()
		jf := -1
		if x.Cond != nil {
			lw.expr(x.Cond, 0)
			jf = lw.emit(Ins{Op: OpJumpFalse, A: 0})
		}
		lw.stmt(x.Body)
		lw.stmt(x.Post)
		lw.emit(Ins{Op: OpJump, A: int32(cond)})
		if jf >= 0 {
			lw.patch(jf, lw.here())
		}
	case *ast.WhileStmt:
		lw.tick()
		cond := lw.here()
		lw.expr(x.Cond, 0)
		jf := lw.emit(Ins{Op: OpJumpFalse, A: 0})
		lw.stmt(x.Body)
		lw.emit(Ins{Op: OpJump, A: int32(cond)})
		lw.patch(jf, lw.here())
	case *ast.ReturnStmt:
		if x.X == nil {
			lw.escape(st) // a bare return: the tree-walker returns Int(0)
			return
		}
		lw.tick()
		lw.expr(x.X, 0)
		lw.emit(Ins{Op: OpRet, A: 0})
	default:
		// Pragmas, Fortran do loops (their own scope for the induction
		// variable), and anything unrecognized: the tree-walker runs it,
		// re-entering the VM for any lowered bodies inside.
		lw.escape(st)
	}
}

// rootChain reports whether b is the root block or a bare block reachable
// from it through bare blocks (those share the proc scope).
func (lw *lowerer) rootChain(b *ast.Block) bool {
	var find func(cur *ast.Block) bool
	root, ok := lw.p.Root.(*ast.Block)
	if !ok {
		return false
	}
	find = func(cur *ast.Block) bool {
		if cur == b {
			return true
		}
		for _, s := range cur.Stmts {
			if cb, ok := s.(*ast.Block); ok && cb.Bare && find(cb) {
				return true
			}
		}
		return false
	}
	return find(root)
}

// assign lowers an assignment or increment/decrement. rhs == nil means an
// implicit Int(1) (the ++/-- forms). The evaluation order matches the
// tree-walker: RHS first, then the lvalue (including its subscripts).
func (lw *lowerer) assign(lhs ast.Expr, op string, rhs ast.Expr, at ast.Stmt) {
	kind := ast.OpInvalid
	if op != "=" {
		kind = ast.BinOpKind(op[:1])
		if kind == ast.OpInvalid {
			lw.escape(at) // unknown compound operator: tree-walker diagnoses
			return
		}
	}
	switch x := lhs.(type) {
	case *ast.Ident:
		lw.tick()
		lw.lowerRHS(rhs, 0)
		s := lw.slot(x.Name)
		if op == "=" {
			lw.emit(Ins{Op: OpStoreVar, A: s, B: 0, Line: line(at)})
		} else {
			lw.emit(Ins{Op: OpAugVar, A: s, B: 0, D: int32(kind), Line: line(at)})
		}
	case *ast.IndexExpr:
		base, ok := x.X.(*ast.Ident)
		if !ok {
			lw.escape(at)
			return
		}
		lw.tick()
		lw.lowerRHS(rhs, 0)
		n := int32(len(x.Idx))
		for i, ie := range x.Idx {
			lw.expr(ie, 1+int32(i))
		}
		s := lw.slot(base.Name)
		if op == "=" {
			lw.emit(Ins{Op: OpStoreIdx, A: s, B: 1, C: n, D: 0, Line: line(at)})
		} else {
			lw.emit(Ins{Op: OpAugIdx, A: s, B: 1, C: n, D: 0, E: int32(kind), Line: line(at)})
		}
	default:
		// Pointer-dereference stores and anything else: the tree-walker
		// charges the statement's op and performs the store.
		lw.escape(at)
	}
}

func (lw *lowerer) lowerRHS(rhs ast.Expr, dst int32) {
	if rhs == nil {
		lw.reserve(dst + 1)
		lw.emit(Ins{Op: OpConst, A: dst, B: lw.constant(mem.Int(1))})
		return
	}
	lw.expr(rhs, dst)
}

// --- expressions ---

// expr lowers e so that its value lands in R[dst]; registers above dst are
// scratch. Anything the slot/register model cannot express escapes to the
// tree evaluator through OpEvalExpr, which reproduces the tree-walker's
// behaviour (and diagnostics) exactly.
func (lw *lowerer) expr(e ast.Expr, dst int32) {
	lw.reserve(dst + 1)
	switch x := e.(type) {
	case *ast.BasicLit:
		v, err := rt.EvalLit(x)
		if err != nil {
			lw.evalExpr(e, dst)
			return
		}
		lw.emit(Ins{Op: OpConst, A: dst, B: lw.constant(v)})
	case *ast.Ident:
		lw.emit(Ins{Op: OpLoadVar, A: dst, B: lw.slot(x.Name), Line: line(x)})
	case *ast.IndexExpr:
		base, ok := x.X.(*ast.Ident)
		if !ok {
			lw.evalExpr(e, dst)
			return
		}
		n := int32(len(x.Idx))
		for i, ie := range x.Idx {
			lw.expr(ie, dst+int32(i))
		}
		lw.emit(Ins{Op: OpLoadIdx, A: dst, B: lw.slot(base.Name), C: dst, D: n, Line: line(x)})
	case *ast.BinaryExpr:
		k := x.Kind
		if k == ast.OpInvalid {
			k = ast.BinOpKind(x.Op)
		}
		switch k {
		case ast.OpInvalid:
			lw.evalExpr(e, dst)
		case ast.OpLAnd:
			lw.expr(x.X, dst)
			jf := lw.emit(Ins{Op: OpJumpFalse, A: dst})
			lw.expr(x.Y, dst)
			lw.emit(Ins{Op: OpBool, A: dst})
			j := lw.emit(Ins{Op: OpJump})
			lw.patch(jf, lw.here())
			lw.emit(Ins{Op: OpConst, A: dst, B: lw.constant(mem.Int(0))})
			lw.patch(j, lw.here())
		case ast.OpLOr:
			lw.expr(x.X, dst)
			jt := lw.emit(Ins{Op: OpJumpTrue, A: dst})
			lw.expr(x.Y, dst)
			lw.emit(Ins{Op: OpBool, A: dst})
			j := lw.emit(Ins{Op: OpJump})
			lw.patch(jt, lw.here())
			lw.emit(Ins{Op: OpConst, A: dst, B: lw.constant(mem.Int(1))})
			lw.patch(j, lw.here())
		default:
			lw.expr(x.X, dst)
			lw.expr(x.Y, dst+1)
			lw.emit(Ins{Op: OpBin, A: dst, B: dst, C: dst + 1, D: int32(k), Line: line(x)})
		}
	case *ast.UnaryExpr:
		k := x.Kind
		if k == ast.OpInvalid {
			k = ast.UnOpKind(x.Op)
		}
		switch k {
		case ast.OpNeg, ast.OpNot, ast.OpBitNot:
			lw.expr(x.X, dst)
			lw.emit(Ins{Op: OpUn, A: dst, B: dst, D: int32(k), Line: line(x)})
		default:
			// Dereference and address-of go through the tree evaluator's
			// pointer machinery; unknown operators keep its diagnostics.
			lw.evalExpr(e, dst)
		}
	default:
		// Calls, casts, sizeof, and anything new.
		lw.evalExpr(e, dst)
	}
}
