package analysis

// Per-function analysis pass: symbol tables, device-side access-set
// collection for compute regions, a generic forward worklist solver, and a
// reaching-definitions pass whose def-use chains annotate copy-state
// findings with the device write that caused them.

import (
	"strconv"
	"strings"

	"accv/internal/ast"
	"accv/internal/directive"
)

// symInfo records what the analysis needs to know about a name.
type symInfo struct {
	isArray bool
}

// pass holds the per-function analysis state.
type pass struct {
	prog      *ast.Program
	fn        *ast.FuncDecl
	syms      map[string]symInfo
	graph     *cfg
	findings  []Finding
	mutedCopy map[string]bool // one copy-state finding per (analyzer, var)
}

func newPass(prog *ast.Program, fn *ast.FuncDecl) *pass {
	return &pass{prog: prog, fn: fn, syms: map[string]symInfo{}}
}

// run executes every analysis pass over one function.
func (p *pass) run() {
	p.buildSymbols()
	p.graph = buildCFG(p)
	p.copyStatePass() // ACV001, ACV002, ACV006
	p.loopHazards()   // ACV004, ACV005
	p.clauseHazards() // ACV003
	p.laneRace()      // ACV007–ACV010
}

// report records a finding against this function.
func (p *pass) report(id string, pos ast.Pos, v, msg string) {
	p.findings = append(p.findings, Finding{
		ID: id, Sev: severityOf(id), Pos: pos, Func: p.fn.Name, Var: v, Message: msg,
	})
}

// buildSymbols collects parameter and declaration info. Pointers count as
// arrays: they name host buffers that data clauses map.
func (p *pass) buildSymbols() {
	for _, prm := range p.fn.Params {
		p.syms[prm.Name] = symInfo{isArray: prm.IsArray || prm.Type.Ptr}
	}
	if p.fn.Body == nil {
		return
	}
	ast.Walk(p.fn.Body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeclStmt); ok {
			p.syms[d.Name] = symInfo{isArray: d.IsArray() || d.Type.Ptr}
		}
		return true
	})
}

// isArray reports whether a name is a known array (or pointer).
func (p *pass) isArray(name string) bool { return p.syms[name].isArray }

// --- expression helpers ---

// baseName resolves an lvalue or reference expression to the underlying
// variable name ("" when it has none).
func baseName(e ast.Expr, syms map[string]symInfo) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.IndexExpr:
		return baseName(x.X, syms)
	case *ast.CallExpr:
		// Fortran array element on the left-hand side.
		if info, ok := syms[x.Fun]; ok && info.isArray {
			return x.Fun
		}
	case *ast.UnaryExpr:
		if x.Op == "*" {
			return baseName(x.X, syms)
		}
	case *ast.CastExpr:
		return baseName(x.X, syms)
	}
	return ""
}

// exprIdents collects every variable name an expression mentions,
// including Fortran array references spelled as calls.
func exprIdents(e ast.Expr, syms map[string]symInfo) []string {
	var out []string
	var walk func(ast.Expr)
	walk = func(e ast.Expr) {
		switch x := e.(type) {
		case nil:
		case *ast.Ident:
			out = append(out, x.Name)
		case *ast.IndexExpr:
			walk(x.X)
			for _, i := range x.Idx {
				walk(i)
			}
		case *ast.CallExpr:
			if info, ok := syms[x.Fun]; ok && info.isArray {
				out = append(out, x.Fun)
			}
			for _, a := range x.Args {
				walk(a)
			}
		case *ast.BinaryExpr:
			walk(x.X)
			walk(x.Y)
		case *ast.UnaryExpr:
			walk(x.X)
		case *ast.CastExpr:
			walk(x.X)
		}
	}
	walk(e)
	return out
}

// exprReads reports whether expression e reads variable v.
func exprReads(e ast.Expr, v string, syms map[string]symInfo) bool {
	for _, n := range exprIdents(e, syms) {
		if n == v {
			return true
		}
	}
	return false
}

// evalConst evaluates simple integer constant expressions.
func evalConst(e ast.Expr) (int64, bool) {
	switch x := e.(type) {
	case *ast.BasicLit:
		if x.Kind == ast.IntLit {
			v, err := strconv.ParseInt(x.Value, 0, 64)
			return v, err == nil
		}
	case *ast.UnaryExpr:
		v, ok := evalConst(x.X)
		if !ok {
			return 0, false
		}
		switch x.Op {
		case "-":
			return -v, true
		case "+":
			return v, true
		}
	case *ast.BinaryExpr:
		a, ok1 := evalConst(x.X)
		b, ok2 := evalConst(x.Y)
		if !ok1 || !ok2 {
			return 0, false
		}
		switch x.Op {
		case "+":
			return a + b, true
		case "-":
			return a - b, true
		case "*":
			return a * b, true
		}
	case *ast.CastExpr:
		return evalConst(x.X)
	}
	return 0, false
}

// --- compute-region access collection ---

// explicitActs converts a directive's data clauses into mapping actions in
// source order.
func (p *pass) explicitActs(d *directive.Directive) []dataAct {
	var acts []dataAct
	for i := range d.Clauses {
		cl := &d.Clauses[i]
		kind := cl.Kind
		if kind == directive.DeviceResident {
			kind = directive.Create // declare device_resident: allocated, uninitialized
		}
		if !kind.IsData() && cl.Kind != directive.DeviceResident {
			continue
		}
		for _, v := range cl.Vars {
			acts = append(acts, dataAct{kind: kind, name: v.Name, pos: d.ClausePos(cl)})
		}
	}
	return acts
}

// collectCompute builds the regionInfo of a compute construct: explicit and
// implicit mapping actions plus device-side access sets with privates and
// reduction variables separated out.
func (p *pass) collectCompute(ps *ast.PragmaStmt, d *directive.Directive, depth int) *regionInfo {
	ri := &regionInfo{
		dir:       d,
		depth:     depth,
		acts:      p.explicitActs(d),
		compute:   true,
		cond:      condIf(d),
		writes:    map[string]bool{},
		writeLine: map[string]int{},
		uninit:    map[string][]ast.Pos{},
		reduction: map[string]bool{},
	}
	if cl := d.Get(directive.Async); cl != nil {
		ri.async = true
		ri.queue = asyncNoQueue
		if q, ok := evalConst(cl.Arg); ok {
			ri.queue = q
			ri.hasQueue = true
		}
	}

	priv := map[string]bool{}
	addVars := func(cl *directive.Clause, into map[string]bool) {
		for _, v := range cl.Vars {
			into[v.Name] = true
		}
	}
	collectPrivates := func(dd *directive.Directive) {
		for _, cl := range dd.All(directive.Private) {
			addVars(cl, priv)
		}
		for _, cl := range dd.All(directive.FirstPrivate) {
			addVars(cl, priv)
		}
		for _, cl := range dd.All(directive.Reduction) {
			addVars(cl, ri.reduction)
		}
	}
	collectPrivates(d)
	if ps.Body != nil {
		ast.Walk(ps.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.PragmaStmt:
				if dd := directiveOf(x); dd != nil {
					collectPrivates(dd)
				}
			case *ast.ForStmt:
				if v := forInductionVar(x); v != "" {
					priv[v] = true
				}
			case *ast.DoStmt:
				priv[x.Var] = true
			case *ast.DeclStmt:
				priv[x.Name] = true // declared inside the region: gang/worker-local
			}
			return true
		})
	}

	tracked := func(name string) bool {
		return !priv[name] && !ri.reduction[name]
	}

	// Two-pass per-loop scan: a loop's writes are collected before its
	// reads are judged, so a[i] = f(a[i]) never looks uninitialized, while
	// c[j] = b[j] flags b when nothing ever wrote it.
	written := map[string]bool{}
	var scan func(s ast.Stmt)
	recordWrite := func(name string, line int) {
		if name == "" || !tracked(name) {
			return
		}
		written[name] = true
		ri.writes[name] = true
		if _, ok := ri.writeLine[name]; !ok {
			ri.writeLine[name] = line
		}
	}
	recordReads := func(e ast.Expr, line int) {
		for _, n := range exprIdents(e, p.syms) {
			if !tracked(n) || written[n] {
				continue
			}
			ri.uninit[n] = append(ri.uninit[n], ast.Pos{Line: line})
		}
	}
	preCollectWrites := func(s ast.Stmt) {
		ast.Walk(s, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				recordWrite(baseName(x.LHS, p.syms), x.Line)
			case *ast.IncDecStmt:
				recordWrite(baseName(x.X, p.syms), x.Line)
			case *ast.DeclStmt:
				if x.Init != nil {
					recordWrite(x.Name, x.Line)
				}
			}
			return true
		})
	}
	scan = func(s ast.Stmt) {
		switch st := s.(type) {
		case nil:
		case *ast.Block:
			for _, inner := range st.Stmts {
				scan(inner)
			}
		case *ast.ForStmt, *ast.DoStmt, *ast.WhileStmt:
			preCollectWrites(st)
			switch l := st.(type) {
			case *ast.ForStmt:
				scan(l.Init)
				recordReads(l.Cond, l.Line)
				scan(l.Body)
				scan(l.Post)
			case *ast.DoStmt:
				recordReads(l.From, l.Line)
				recordReads(l.To, l.Line)
				recordReads(l.Step, l.Line)
				scan(l.Body)
			case *ast.WhileStmt:
				recordReads(l.Cond, l.Line)
				scan(l.Body)
			}
		case *ast.PragmaStmt:
			scan(st.Body)
		case *ast.AssignStmt:
			recordReads(st.RHS, st.Line)
			if idx, ok := st.LHS.(*ast.IndexExpr); ok {
				for _, i := range idx.Idx {
					recordReads(i, st.Line)
				}
			}
			if c, ok := st.LHS.(*ast.CallExpr); ok {
				for _, a := range c.Args {
					recordReads(a, st.Line)
				}
			}
			if st.Op != "=" {
				recordReads(&ast.Ident{Name: baseName(st.LHS, p.syms), Line: st.Line}, st.Line)
			}
			recordWrite(baseName(st.LHS, p.syms), st.Line)
		case *ast.IncDecStmt:
			recordReads(&ast.Ident{Name: baseName(st.X, p.syms), Line: st.Line}, st.Line)
			recordWrite(baseName(st.X, p.syms), st.Line)
		case *ast.DeclStmt:
			recordReads(st.Init, st.Line)
			if st.Init != nil {
				recordWrite(st.Name, st.Line)
			}
		case *ast.ExprStmt:
			recordReads(st.X, st.Line)
		case *ast.IfStmt:
			recordReads(st.Cond, st.Line)
			scan(st.Then)
			scan(st.Else)
		case *ast.ReturnStmt:
			recordReads(st.X, st.Line)
		}
	}
	scan(ps.Body)

	// Implicit mappings: referenced arrays not named by any explicit data
	// clause behave as present_or_copy (the compiler's implicit-data rule).
	// Scalars default to firstprivate / copy-back-at-exit forms whose end
	// state matches "untracked", so only arrays need implied actions.
	explicit := map[string]bool{}
	for _, a := range ri.acts {
		explicit[a.name] = true
	}
	addImplicit := func(name string) {
		if explicit[name] || !p.isArray(name) || !tracked(name) {
			return
		}
		explicit[name] = true
		ri.acts = append(ri.acts, dataAct{
			kind: directive.PresentOrCopy, name: name, pos: d.Pos(), implicit: true,
		})
	}
	for name := range ri.writes {
		addImplicit(name)
	}
	for name := range ri.uninit {
		addImplicit(name)
	}
	if ps.Body != nil {
		ast.Walk(ps.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.Ident:
				addImplicit(x.Name)
			case *ast.CallExpr:
				if p.isArray(x.Fun) {
					addImplicit(x.Fun)
				}
			}
			return true
		})
	}
	return ri
}

// forInductionVar extracts the induction variable of a C for loop.
func forInductionVar(f *ast.ForStmt) string {
	switch init := f.Init.(type) {
	case *ast.DeclStmt:
		return init.Name
	case *ast.AssignStmt:
		if id, ok := init.LHS.(*ast.Ident); ok {
			return id.Name
		}
	}
	return ""
}

// --- generic forward worklist solver ---

// solveForward runs a forward dataflow fixpoint over the graph. transfer
// must be pure with respect to the input state (copy before mutating).
func solveForward[S any](g *cfg, boundary S, transfer func(*block, S) S, join func(S, S) S, equal func(S, S) bool) map[*block]S {
	in := map[*block]S{g.entry: boundary}
	out := map[*block]S{}
	work := append([]*block(nil), g.blocks...)
	// The lattice has finite height and transfer is monotone, so this
	// terminates; the round cap is a safety net only.
	for round := 0; len(work) > 0 && round < 4*len(g.blocks)+16; round++ {
		next := work[:0:0]
		changed := false
		for _, b := range g.blocks {
			var s S
			if len(b.preds) == 0 {
				if b != g.entry {
					continue // unreachable
				}
				s = boundary
			} else {
				first := true
				for _, p := range b.preds {
					po, ok := out[p]
					if !ok {
						continue
					}
					if first {
						s = po
						first = false
					} else {
						s = join(s, po)
					}
				}
				if first {
					continue // no predecessor processed yet
				}
			}
			in[b] = s
			no := transfer(b, s)
			if prev, ok := out[b]; !ok || !equal(prev, no) {
				out[b] = no
				changed = true
			}
		}
		if !changed {
			break
		}
		next = append(next, g.blocks...)
		work = next
	}
	return in
}

// --- reaching definitions ---

// def is one definition site: a host write, a kernel write, an update-host
// transfer, or a havoc.
type def struct {
	v      string
	pos    ast.Pos
	device bool // written by the device (kernel or update host)
}

// reachDefs is the solved reaching-definitions problem.
type reachDefs struct {
	defs    []def
	in      map[*block]map[int]bool
	byEvent map[*block][][]int // def indices generated by each event
	byVar   map[string][]int
}

// eventDefs lists the definitions one event generates.
func eventDefs(ev *event) []def {
	switch ev.op {
	case opHostWrite:
		return []def{{v: ev.name, pos: ev.pos}}
	case opHavoc:
		return []def{{v: ev.name, pos: ev.pos}}
	case opKernel:
		var ds []def
		for v := range ev.region.writes {
			p := ast.Pos{Line: ev.region.writeLine[v]}
			if !p.IsValid() {
				p = ev.pos
			}
			ds = append(ds, def{v: v, pos: p, device: true})
		}
		return ds
	case opUpdate:
		var ds []def
		for _, v := range ev.hostVars {
			ds = append(ds, def{v: v, pos: ev.pos, device: true})
		}
		return ds
	}
	return nil
}

// solveReachingDefs computes which definitions reach each block entry.
func solveReachingDefs(g *cfg) *reachDefs {
	rd := &reachDefs{byEvent: map[*block][][]int{}, byVar: map[string][]int{}}
	// Number every definition and index per-block gen/kill.
	for _, b := range g.blocks {
		per := make([][]int, len(b.events))
		for i := range b.events {
			for _, d := range eventDefs(&b.events[i]) {
				id := len(rd.defs)
				rd.defs = append(rd.defs, d)
				per[i] = append(per[i], id)
				rd.byVar[d.v] = append(rd.byVar[d.v], id)
			}
		}
		rd.byEvent[b] = per
	}
	transfer := func(b *block, s map[int]bool) map[int]bool {
		o := make(map[int]bool, len(s))
		for k := range s {
			o[k] = true
		}
		for _, ids := range rd.byEvent[b] {
			for _, id := range ids {
				for _, other := range rd.byVar[rd.defs[id].v] {
					delete(o, other)
				}
			}
			for _, id := range ids {
				o[id] = true
			}
		}
		return o
	}
	join := func(a, b map[int]bool) map[int]bool {
		o := make(map[int]bool, len(a)+len(b))
		for k := range a {
			o[k] = true
		}
		for k := range b {
			o[k] = true
		}
		return o
	}
	equal := func(a, b map[int]bool) bool {
		if len(a) != len(b) {
			return false
		}
		for k := range a {
			if !b[k] {
				return false
			}
		}
		return true
	}
	rd.in = solveForward(g, map[int]bool{}, transfer, join, equal)
	return rd
}

// deviceDefAt returns the position of a device-side definition of v that
// reaches event index idx in block b (zero Pos when none does). It is the
// def-use query copy-state findings use to name the kernel write a stale
// host read observes.
func (rd *reachDefs) deviceDefAt(b *block, idx int, v string) ast.Pos {
	live := map[int]bool{}
	for k := range rd.in[b] {
		live[k] = true
	}
	per := rd.byEvent[b]
	for i := 0; i < idx && i < len(per); i++ {
		for _, id := range per[i] {
			for _, other := range rd.byVar[rd.defs[id].v] {
				delete(live, other)
			}
		}
		for _, id := range per[i] {
			live[id] = true
		}
	}
	best := ast.Pos{}
	for k := range live {
		if rd.defs[k].v == v && rd.defs[k].device && rd.defs[k].pos.Line > best.Line {
			best = rd.defs[k].pos
		}
	}
	return best
}

// describeOp renders a directive name for messages.
func describeOp(d *directive.Directive) string {
	if d == nil {
		return "construct"
	}
	return strings.TrimSpace("acc " + d.Name.String())
}
