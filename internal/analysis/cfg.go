package analysis

// Control-flow graph construction. Each function body is lowered into basic
// blocks of abstract host/device events: host reads and writes, compute
// kernels (one event per region, carrying the device-side access sets),
// data-region entries/exits, update and wait directives, and havoc events
// for calls whose effect on a variable is unknowable. The copy-state and
// reaching-definitions passes in this package run worklist fixpoints over
// this graph.

import (
	"strings"

	"accv/internal/ast"
	"accv/internal/directive"
)

// opKind enumerates CFG event kinds.
type opKind uint8

const (
	opHostRead  opKind = iota // host reads a variable
	opHostWrite               // host writes a variable
	opHavoc                   // opaque call: variable state becomes unknown
	opKernel                  // compute region: map, execute, unmap
	opEnter                   // data-region entry (or persistent declare/enter data)
	opExit                    // structured data-region exit
	opExitData                // exit data directive
	opUpdate                  // update directive
	opWait                    // wait directive or acc_async_wait* call
)

// asyncNoQueue marks an async clause without a constant queue argument.
const asyncNoQueue int64 = -1 << 40

// dataAct is one data-mapping action derived from a clause (or implied by a
// reference inside a compute region).
type dataAct struct {
	kind     directive.ClauseKind
	name     string
	pos      ast.Pos
	implicit bool
}

// regionInfo describes one construct for the dataflow pass.
type regionInfo struct {
	dir     *directive.Directive
	depth   int // structural nesting depth; owner tag for mappings (0 = persistent)
	acts    []dataAct
	compute bool
	cond    bool // has a non-constant if() clause: effects are conditional

	// Device-side access sets (compute regions only).
	writes    map[string]bool      // vars the kernel may write (privates excluded)
	writeLine map[string]int       // first write line per var, for messages
	uninit    map[string][]ast.Pos // array reads not preceded by a kernel write
	reduction map[string]bool      // reduction vars (any level inside the region)

	async    bool
	queue    int64
	hasQueue bool
}

// event is one atomic step of the abstract host/device machine.
type event struct {
	op   opKind
	name string // variable, for host access / havoc events
	pos  ast.Pos

	region *regionInfo // opKernel/opEnter/opExit
	acts   []dataAct   // opExitData

	hostVars, devVars []string // opUpdate
	async             bool     // opUpdate
	queue             int64
	cond              bool // opUpdate with if(): treated as happening

	waitAll    bool // opWait without arguments
	waitQueues []int64
}

// block is a basic block of events.
type block struct {
	id     int
	events []event
	succs  []*block
	preds  []*block
}

// cfg is a per-function control-flow graph.
type cfg struct {
	fn     *ast.FuncDecl
	entry  *block
	blocks []*block
}

// builder lowers a function body into a cfg.
type builder struct {
	p     *pass
	g     *cfg
	cur   *block
	depth int // structured-construct nesting; 0 reserved for persistent mappings
}

func buildCFG(p *pass) *cfg {
	g := &cfg{fn: p.fn}
	b := &builder{p: p, g: g}
	b.cur = b.newBlock()
	g.entry = b.cur
	if p.fn.Body != nil {
		b.stmt(p.fn.Body)
	}
	return g
}

func (b *builder) newBlock() *block {
	bl := &block{id: len(b.g.blocks)}
	b.g.blocks = append(b.g.blocks, bl)
	return bl
}

func link(from, to *block) {
	from.succs = append(from.succs, to)
	to.preds = append(to.preds, from)
}

func (b *builder) emit(ev event) { b.cur.events = append(b.cur.events, ev) }

func (b *builder) read(name string, pos ast.Pos) {
	b.emit(event{op: opHostRead, name: name, pos: pos})
}

func (b *builder) write(name string, pos ast.Pos) {
	b.emit(event{op: opHostWrite, name: name, pos: pos})
}

// stmt lowers one host-side statement.
func (b *builder) stmt(s ast.Stmt) {
	switch st := s.(type) {
	case nil:
	case *ast.Block:
		for _, inner := range st.Stmts {
			b.stmt(inner)
		}
	case *ast.DeclStmt:
		pos := ast.Pos{Line: st.Line}
		for _, d := range st.Dims {
			b.reads(d, pos)
		}
		for _, l := range st.Lower {
			b.reads(l, pos)
		}
		if st.Init != nil {
			b.reads(st.Init, pos)
			b.write(st.Name, pos)
		}
	case *ast.AssignStmt:
		pos := ast.Pos{Line: st.Line}
		b.reads(st.RHS, pos)
		if st.Op != "=" {
			// Compound assignment reads the target too.
			b.lvalueRead(st.LHS, pos)
		}
		b.lvalueIndexReads(st.LHS, pos)
		if n := baseName(st.LHS, b.p.syms); n != "" {
			b.write(n, pos)
		}
	case *ast.IncDecStmt:
		pos := ast.Pos{Line: st.Line}
		b.lvalueRead(st.X, pos)
		b.lvalueIndexReads(st.X, pos)
		if n := baseName(st.X, b.p.syms); n != "" {
			b.write(n, pos)
		}
	case *ast.ExprStmt:
		b.reads(st.X, ast.Pos{Line: st.Line})
	case *ast.ReturnStmt:
		if st.X != nil {
			b.reads(st.X, ast.Pos{Line: st.Line})
		}
		// Control does not continue; subsequent statements are unreachable.
		b.cur = b.newBlock()
	case *ast.IfStmt:
		b.reads(st.Cond, ast.Pos{Line: st.Line})
		head := b.cur
		join := b.newBlock()
		thenB := b.newBlock()
		link(head, thenB)
		b.cur = thenB
		b.stmt(st.Then)
		link(b.cur, join)
		if st.Else != nil {
			elseB := b.newBlock()
			link(head, elseB)
			b.cur = elseB
			b.stmt(st.Else)
			link(b.cur, join)
		} else {
			link(head, join)
		}
		b.cur = join
	case *ast.ForStmt:
		if st.Init != nil {
			b.stmt(st.Init)
		}
		b.loop(func() {
			if st.Cond != nil {
				b.reads(st.Cond, ast.Pos{Line: st.Line})
			}
		}, func() {
			b.stmt(st.Body)
			if st.Post != nil {
				b.stmt(st.Post)
			}
		})
	case *ast.DoStmt:
		pos := ast.Pos{Line: st.Line}
		b.reads(st.From, pos)
		b.reads(st.To, pos)
		if st.Step != nil {
			b.reads(st.Step, pos)
		}
		b.write(st.Var, pos)
		b.loop(nil, func() { b.stmt(st.Body) })
	case *ast.WhileStmt:
		b.loop(func() {
			b.reads(st.Cond, ast.Pos{Line: st.Line})
		}, func() { b.stmt(st.Body) })
	case *ast.PragmaStmt:
		b.pragma(st)
	}
}

// loop builds the standard head/body/exit shape with a back edge.
func (b *builder) loop(head func(), body func()) {
	headB := b.newBlock()
	link(b.cur, headB)
	b.cur = headB
	if head != nil {
		head()
	}
	headEnd := b.cur // head() may not split, but keep the handle
	bodyB := b.newBlock()
	exitB := b.newBlock()
	link(headEnd, bodyB)
	link(headEnd, exitB)
	b.cur = bodyB
	body()
	link(b.cur, headB)
	b.cur = exitB
}

// pragma lowers one directive statement.
func (b *builder) pragma(ps *ast.PragmaStmt) {
	d := directiveOf(ps)
	if d == nil {
		return
	}
	pos := d.Pos()
	// Clause argument expressions and wait arguments are evaluated on the
	// host when the directive executes.
	b.clauseReads(d, pos)

	switch {
	case d.Name.IsCompute():
		ri := b.p.collectCompute(ps, d, b.depth+1)
		b.emit(event{op: opKernel, pos: pos, region: ri})
	case d.Name == directive.Data:
		b.depth++
		ri := &regionInfo{dir: d, depth: b.depth, acts: b.p.explicitActs(d), cond: condIf(d)}
		b.emit(event{op: opEnter, pos: pos, region: ri})
		b.stmt(ps.Body)
		b.emit(event{op: opExit, pos: pos, region: ri})
		b.depth--
	case d.Name == directive.HostData:
		// The body manipulates device pointers; anything it passes to an
		// opaque call is havocked there. The use_device vars themselves
		// become untrackable.
		for _, cl := range d.All(directive.UseDevice) {
			for _, v := range cl.Vars {
				b.emit(event{op: opHavoc, name: v.Name, pos: pos})
			}
		}
		b.stmt(ps.Body)
	case d.Name == directive.Declare, d.Name == directive.EnterData:
		// Persistent mappings: owner depth 0, never exited in-function.
		ri := &regionInfo{dir: d, depth: 0, acts: b.p.explicitActs(d), cond: condIf(d)}
		b.emit(event{op: opEnter, pos: pos, region: ri})
	case d.Name == directive.ExitData:
		b.emit(event{op: opExitData, pos: pos, acts: b.p.explicitActs(d), cond: condIf(d)})
	case d.Name == directive.Update:
		ev := event{op: opUpdate, pos: pos, cond: condIf(d), queue: asyncNoQueue}
		for _, cl := range d.All(directive.HostClause) {
			for _, v := range cl.Vars {
				ev.hostVars = append(ev.hostVars, v.Name)
			}
		}
		for _, cl := range d.All(directive.DeviceClause) {
			for _, v := range cl.Vars {
				ev.devVars = append(ev.devVars, v.Name)
			}
		}
		if cl := d.Get(directive.Async); cl != nil {
			ev.async = true
			if q, ok := evalConst(cl.Arg); ok {
				ev.queue = q
			}
		}
		b.emit(ev)
	case d.Name == directive.Wait:
		ev := event{op: opWait, pos: pos}
		for _, a := range d.WaitArgs {
			if q, ok := evalConst(a); ok {
				ev.waitQueues = append(ev.waitQueues, q)
			} else {
				// Unanalyzable queue: conservatively treat as wait-all so
				// no pending-transfer finding survives a wait we cannot
				// prove narrow.
				ev.waitQueues = nil
				ev.waitAll = true
				break
			}
		}
		if len(d.WaitArgs) == 0 {
			ev.waitAll = true
		}
		b.emit(ev)
	case d.Name == directive.Loop:
		// Orphaned loop directive outside a compute region: host loop.
		b.stmt(ps.Body)
	default:
		// cache, routine, end markers: no host/device data effect here.
		if ps.Body != nil {
			b.stmt(ps.Body)
		}
	}
}

// clauseReads emits host reads for identifiers inside clause arguments,
// wait arguments, and array-section bounds.
func (b *builder) clauseReads(d *directive.Directive, pos ast.Pos) {
	seen := map[string]bool{}
	add := func(e ast.Expr) {
		for _, n := range exprIdents(e, b.p.syms) {
			if !seen[n] {
				seen[n] = true
				b.read(n, pos)
			}
		}
	}
	for i := range d.Clauses {
		cl := &d.Clauses[i]
		if cl.Arg != nil {
			add(cl.Arg)
		}
		for _, v := range cl.Vars {
			for _, sec := range v.Sections {
				add(sec.Lo)
				add(sec.Hi)
			}
		}
	}
	for _, a := range d.WaitArgs {
		add(a)
	}
}

// reads emits host-read (and havoc, for opaque calls) events for every
// variable an expression evaluates.
func (b *builder) reads(e ast.Expr, pos ast.Pos) {
	switch x := e.(type) {
	case nil:
	case *ast.Ident:
		b.read(x.Name, posOr(x.Line, pos))
	case *ast.BasicLit:
	case *ast.IndexExpr:
		for _, idx := range x.Idx {
			b.reads(idx, pos)
		}
		if n := baseName(x.X, b.p.syms); n != "" {
			b.read(n, posOr(x.Line, pos))
		} else {
			b.reads(x.X, pos)
		}
	case *ast.CallExpr:
		b.call(x, posOr(x.Line, pos))
	case *ast.BinaryExpr:
		b.reads(x.X, pos)
		b.reads(x.Y, pos)
	case *ast.UnaryExpr:
		b.reads(x.X, pos)
	case *ast.CastExpr:
		b.reads(x.X, pos)
	case *ast.SizeofExpr:
		// Type operand only; no data read.
	}
}

// lvalueRead emits the read half of a compound assignment target.
func (b *builder) lvalueRead(e ast.Expr, pos ast.Pos) {
	if n := baseName(e, b.p.syms); n != "" {
		b.read(n, pos)
	}
}

// lvalueIndexReads emits reads for subscript expressions of an assignment
// target (the indices are evaluated even though the base is written).
func (b *builder) lvalueIndexReads(e ast.Expr, pos ast.Pos) {
	switch x := e.(type) {
	case *ast.IndexExpr:
		for _, idx := range x.Idx {
			b.reads(idx, pos)
		}
	case *ast.CallExpr: // Fortran array element
		for _, a := range x.Args {
			b.reads(a, pos)
		}
	case *ast.UnaryExpr: // *p = ...
		b.reads(x.X, pos)
	}
}

// call lowers a host-side call expression.
func (b *builder) call(c *ast.CallExpr, pos ast.Pos) {
	// Fortran array references parse as calls; the symbol table
	// disambiguates.
	if info, ok := b.p.syms[c.Fun]; ok && info.isArray {
		for _, a := range c.Args {
			b.reads(a, pos)
		}
		b.read(c.Fun, pos)
		return
	}
	switch strings.ToLower(c.Fun) {
	case "acc_async_wait", "acc_wait":
		ev := event{op: opWait, pos: pos}
		if len(c.Args) == 1 {
			if q, ok := evalConst(c.Args[0]); ok {
				ev.waitQueues = []int64{q}
			} else {
				ev.waitAll = true
			}
		} else {
			ev.waitAll = true
		}
		for _, a := range c.Args {
			b.reads(a, pos)
		}
		b.emit(ev)
		return
	case "acc_async_wait_all", "acc_wait_all":
		for _, a := range c.Args {
			b.reads(a, pos)
		}
		b.emit(event{op: opWait, pos: pos, waitAll: true})
		return
	}
	if knownCall(c.Fun) {
		for _, a := range c.Args {
			b.reads(a, pos)
		}
		return
	}
	// Opaque call: every variable reachable through an argument may be
	// read or written by the callee. Havoc them — no findings, ever.
	for _, a := range c.Args {
		for _, n := range exprIdents(a, b.p.syms) {
			b.emit(event{op: opHavoc, name: n, pos: pos})
		}
	}
}

// knownCall reports whether a host call is known not to modify its
// arguments' host/device coherence (runtime queries, printf, intrinsics).
func knownCall(name string) bool {
	n := strings.ToLower(name)
	if strings.HasPrefix(n, "acc_") {
		return true
	}
	switch n {
	case "printf", "abs", "fabs", "fabsf", "sqrt", "sqrtf", "fmax", "fmaxf",
		"fmin", "fminf", "min", "max", "mod", "merge", "int", "real", "dble",
		"float", "nint", "ceiling", "floor", "size", "len", "exp", "log",
		"pow", "sin", "cos":
		return true
	}
	return false
}

// directiveOf returns the parsed directive of a pragma statement.
func directiveOf(ps *ast.PragmaStmt) *directive.Directive {
	if ps == nil {
		return nil
	}
	d, _ := ps.Dir.(*directive.Directive)
	return d
}

// condIf reports whether a directive carries an if() clause that is not a
// compile-time non-zero constant (so its effects are conditional).
func condIf(d *directive.Directive) bool {
	cl := d.Get(directive.If)
	if cl == nil {
		return false
	}
	if v, ok := evalConst(cl.Arg); ok {
		return v == 0 // constant false: treated as fully conditional (quiet)
	}
	return true
}

// posOr prefers an expression's own line over the statement position.
func posOr(line int, fallback ast.Pos) ast.Pos {
	if line > 0 {
		return ast.Pos{Line: line}
	}
	return fallback
}
