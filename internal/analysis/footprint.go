package analysis

// Per-statement read/write footprints over the parallelism-nest model:
// every access to a lane-shared variable inside a compute construct is
// summarized as the base variable plus its (affine-ish) subscript
// expressions, tagged with the partitioned nest it executes under. The
// lane-race judge (lanerace.go) turns these summaries into LaneSafety
// verdicts and ACV007–ACV010 findings.

import (
	"accv/internal/ast"
	"accv/internal/directive"
)

// laneAccess is one access to a lane-shared variable.
type laneAccess struct {
	name string
	// idx holds the subscript expressions (nil for a scalar access).
	idx  []ast.Expr
	line int
	// write marks stores.
	write bool
	// scalar marks accesses without a subscript to a non-array name.
	scalar bool
	// selfRef marks writes whose value reads the written variable
	// (compound assignment, increments, x = x op y).
	selfRef bool
	// guarded marks accesses inside an if whose condition reads the
	// variable and whose branch assigns it (the min/max idiom).
	guarded bool
	// laneVarying marks writes whose stored value mentions a partitioned
	// induction variable (distinct lanes store distinct values).
	laneVarying bool
	// seqIvar marks accesses to a sequential C loop's induction variable
	// whose buffer is shared across lanes (declared outside the construct
	// with no private clause).
	seqIvar bool
	// opaque marks accesses the subscript analysis cannot summarize:
	// whole-array references, pointer dereferences, unknown calls.
	opaque bool
	// reason for opaque accesses.
	opaqueWhy string
	// gangLocal marks accesses to a per-gang copy (parallel-region
	// implicit-firstprivate scalars, construct-level privates, remainder
	// declarations): worker and vector lanes of one gang share the copy,
	// but distinct gangs never do.
	gangLocal bool
	// nest is the innermost enclosing partitioned nest (nil: the access
	// executes in the construct's gang-redundant remainder).
	nest *laneNest
}

// laneWalker collects lane accesses for one compute construct, tracking
// the lane-private scope and the partitioned-nest stack.
type laneWalker struct {
	pass *pass
	cm   *constructModel
	nest *laneNest
	// priv holds names that are lane-private at this point: private and
	// firstprivate clause variables, partitioned induction variables,
	// declarations inside the construct, and Fortran do variables (the
	// runtime rebinds them per execution).
	priv map[string]bool
	// red holds reduction variables in scope (construct plus enclosing
	// loop directives): the runtime keeps per-lane partials, so they are
	// lane-safe and ACV005 owns their misuse.
	red map[string]bool
	// ivars unions the partitioned induction variables in scope.
	ivars map[string]bool
	// guard holds scalars currently under a compare-and-update guard.
	guard map[string]bool
	// gangLocal holds names explicitly bound to a per-gang copy
	// (construct-level privates, remainder declarations) in parallel
	// regions.
	gangLocal map[string]bool
}

// fork copies the walker's mutable scope for a nested context.
func (w *laneWalker) fork() *laneWalker {
	c := *w
	c.priv = copySet(w.priv)
	c.ivars = copySet(w.ivars)
	c.guard = copySet(w.guard)
	c.red = copySet(w.red)
	c.gangLocal = copySet(w.gangLocal)
	return &c
}

func copySet(m map[string]bool) map[string]bool {
	o := make(map[string]bool, len(m))
	for k := range m {
		o[k] = true
	}
	return o
}

// gangLocalName reports whether a name is bound to a per-gang copy. In
// parallel regions the compiler maps scalars as implicit firstprivate (one
// copy per gang) unless an explicit data clause or a gang-loop reduction
// puts them in shared device memory; construct-level privates and
// remainder declarations are per-gang too. Kernels-region scalars are
// present_or_copy: genuinely shared across the fanned-out gangs.
func (w *laneWalker) gangLocalName(name string) bool {
	if !w.cm.parallel {
		return false
	}
	if w.gangLocal[name] {
		return true
	}
	if w.pass.isArray(name) {
		return false
	}
	return !w.cm.dataNames[name] && !w.cm.gangRed[name]
}

// record files an access under the current nest chain (or the remainder).
func (w *laneWalker) record(a *laneAccess) {
	if a.name != "" && (w.priv[a.name] || w.red[a.name]) {
		return
	}
	if a.name != "" && !a.opaque {
		a.gangLocal = w.gangLocalName(a.name)
	}
	a.nest = w.nest
	if a.guarded || (a.name != "" && w.guard[a.name]) {
		a.guarded = true
	}
	if w.nest == nil {
		w.cm.remainder = append(w.cm.remainder, a)
		return
	}
	for n := w.nest; n != nil; n = n.parent {
		n.accesses = append(n.accesses, a)
	}
}

// enterNest models a partitioned loop directive and walks its body with the
// nest's induction variables and loop-level privates in scope.
func (w *laneWalker) enterNest(ps *ast.PragmaStmt, d *directive.Directive) {
	levels, explicit := loopPartition(d)
	n := &laneNest{
		ps: ps, d: d, parent: w.nest,
		levels: levels, explicitLevel: explicit,
		independent: d.Has(directive.Independent),
		ivars:       map[string]bool{},
	}
	collapse := 1
	if cl := d.Get(directive.Collapse); cl != nil {
		if v, ok := evalConst(cl.Arg); ok && v > 1 {
			collapse = int(v)
		}
	}
	for v := range collapseIvars(ps.Body, collapse) {
		n.ivars[v] = true
	}
	w.cm.nests = append(w.cm.nests, n)

	c := w.fork()
	c.nest = n
	for _, cl := range d.All(directive.Private) {
		for _, v := range cl.Vars {
			c.priv[v.Name] = true
		}
	}
	for _, cl := range d.All(directive.Reduction) {
		for _, v := range cl.Vars {
			c.red[v.Name] = true
		}
	}
	for v := range n.ivars {
		c.priv[v] = true
		c.ivars[v] = true
	}
	c.stmt(ps.Body)
}

// collapseIvars extracts the induction variables of the collapse-consumed
// loop nest, unwrapping single-statement blocks at any depth. The compiler
// and the runtime read the nest sema recorded on the loop plan; accvet
// analyzes programs that never pass sema, so it keeps this walk of its
// own and tolerates what sema would reject.
func collapseIvars(body ast.Stmt, collapse int) map[string]bool {
	ivars := map[string]bool{}
	s := body
	for level := 0; level < collapse; level++ {
		switch l := s.(type) {
		case *ast.ForStmt:
			if v := forInductionVar(l); v != "" {
				ivars[v] = true
			}
			s = l.Body
		case *ast.DoStmt:
			ivars[l.Var] = true
			s = ast.Stmt(l.Body)
		case *ast.Block:
			if len(l.Stmts) == 1 {
				s = l.Stmts[0]
				level--
				continue
			}
			level = collapse
		default:
			level = collapse
		}
	}
	return ivars
}

// stmt walks one statement, recording lane accesses.
func (w *laneWalker) stmt(s ast.Stmt) {
	switch st := s.(type) {
	case nil:
	case *ast.Block:
		for _, inner := range st.Stmts {
			w.stmt(inner)
		}
	case *ast.PragmaStmt:
		d := directiveOf(st)
		if d != nil && (d.Name == directive.Loop) {
			if levels, _ := loopPartition(d); len(levels) > 0 {
				w.enterNest(st, d)
				return
			}
			// seq loop: the body executes per lane (or per gang in the
			// remainder) without further partitioning.
		}
		w.stmt(st.Body)
	case *ast.AssignStmt:
		w.reads(st.RHS, st.Line)
		w.writeTo(st.LHS, st)
	case *ast.IncDecStmt:
		w.writeIncDec(st)
	case *ast.DeclStmt:
		w.reads(st.Init, st.Line)
		switch {
		case w.nest != nil:
			w.priv[st.Name] = true // bound afresh per lane
		case w.cm.parallel:
			w.gangLocal[st.Name] = true // bound once per gang
		default:
			// Kernels remainder declarations bind in the region environment
			// every fanned-out gang shares: lane-shared.
			w.priv[st.Name] = false
		}
	case *ast.ExprStmt:
		w.reads(st.X, st.Line)
	case *ast.IfStmt:
		w.reads(st.Cond, st.Line)
		g := w.fork()
		for _, v := range exprIdents(st.Cond, w.pass.syms) {
			if !w.pass.isArray(v) && (assignsTo(st.Then, v, w.pass.syms) || assignsTo(st.Else, v, w.pass.syms)) {
				g.guard[v] = true
			}
		}
		g.stmt(st.Then)
		g.stmt(st.Else)
	case *ast.ForStmt:
		// A sequential C loop inside the construct: unless the induction
		// variable is declared in the init (or already private), every
		// lane shares its buffer — the loop control is a real shared
		// read-modify-write, flagged with seqIvar so ACV009 points at the
		// missing private clause rather than a generic race.
		c := w
		if init, ok := st.Init.(*ast.DeclStmt); ok {
			c = w.fork()
			c.reads(init.Init, init.Line)
			c.priv[init.Name] = true
		} else if iv := forInductionVar(st); iv != "" && !w.priv[iv] && !w.red[iv] {
			if as, ok := st.Init.(*ast.AssignStmt); ok {
				w.reads(as.RHS, as.Line)
			}
			w.record(&laneAccess{name: iv, line: st.Line, write: true, scalar: true,
				selfRef: true, seqIvar: true})
			// Mute the control expressions' touches of the variable: the
			// seqIvar record above already stands for the whole control
			// read-modify-write.
			c = w.fork()
			c.priv[iv] = true
		} else {
			w.stmt(st.Init)
		}
		c.reads(st.Cond, st.Line)
		c.stmt(st.Body)
		c.stmt(st.Post)
	case *ast.DoStmt:
		// The runtime rebinds Fortran do variables per execution: each
		// lane iterates its own copy.
		w.reads(st.From, st.Line)
		w.reads(st.To, st.Line)
		w.reads(st.Step, st.Line)
		c := w.fork()
		c.priv[st.Var] = true
		c.stmt(st.Body)
	case *ast.WhileStmt:
		w.reads(st.Cond, st.Line)
		w.stmt(st.Body)
	case *ast.ReturnStmt:
		w.reads(st.X, st.Line)
	}
}

// writeTo records the store of an assignment.
func (w *laneWalker) writeTo(lhs ast.Expr, st *ast.AssignStmt) {
	name := baseName(lhs, w.pass.syms)
	selfRef := st.Op != "=" || (name != "" && exprReads(st.RHS, name, w.pass.syms))
	laneVarying := w.mentionsIvar(st.RHS)
	switch x := lhs.(type) {
	case *ast.Ident:
		w.record(&laneAccess{name: x.Name, line: st.Line, write: true, scalar: true,
			selfRef: selfRef, laneVarying: laneVarying})
	case *ast.IndexExpr:
		for _, i := range x.Idx {
			w.reads(i, st.Line)
		}
		w.record(&laneAccess{name: name, idx: x.Idx, line: st.Line, write: true,
			selfRef: selfRef, laneVarying: laneVarying})
	case *ast.CallExpr: // Fortran array element
		for _, a := range x.Args {
			w.reads(a, st.Line)
		}
		w.record(&laneAccess{name: name, idx: x.Args, line: st.Line, write: true,
			selfRef: selfRef, laneVarying: laneVarying})
	default:
		// Pointer dereference or other unanalyzable target.
		w.record(&laneAccess{name: name, line: st.Line, write: true, opaque: true,
			opaqueWhy: "store through an unanalyzable lvalue", selfRef: selfRef,
			laneVarying: laneVarying})
	}
}

// writeIncDec records x++ / x--.
func (w *laneWalker) writeIncDec(st *ast.IncDecStmt) {
	switch x := st.X.(type) {
	case *ast.Ident:
		w.record(&laneAccess{name: x.Name, line: st.Line, write: true, scalar: true, selfRef: true})
	case *ast.IndexExpr:
		for _, i := range x.Idx {
			w.reads(i, st.Line)
		}
		w.record(&laneAccess{name: baseName(x, w.pass.syms), idx: x.Idx, line: st.Line,
			write: true, selfRef: true})
	default:
		w.record(&laneAccess{name: baseName(st.X, w.pass.syms), line: st.Line, write: true,
			opaque: true, opaqueWhy: "update through an unanalyzable lvalue", selfRef: true})
	}
}

// reads records every read access an expression performs.
func (w *laneWalker) reads(e ast.Expr, line int) {
	switch x := e.(type) {
	case nil:
	case *ast.Ident:
		if w.pass.isArray(x.Name) {
			// A bare array reference decays to a pointer: the whole array
			// escapes the subscript analysis.
			w.record(&laneAccess{name: x.Name, line: line, opaque: true,
				opaqueWhy: "whole-array reference"})
			return
		}
		w.record(&laneAccess{name: x.Name, line: line, scalar: true})
	case *ast.IndexExpr:
		if n := baseName(x.X, w.pass.syms); n != "" {
			w.record(&laneAccess{name: n, idx: x.Idx, line: line})
		}
		for _, i := range x.Idx {
			w.reads(i, line)
		}
	case *ast.CallExpr:
		if w.pass.isArray(x.Fun) {
			w.record(&laneAccess{name: x.Fun, idx: x.Args, line: line})
			for _, a := range x.Args {
				w.reads(a, line)
			}
			return
		}
		if !knownCall(x.Fun) {
			// An unknown procedure may touch anything its arguments reach.
			w.record(&laneAccess{name: x.Fun, line: line, write: true, opaque: true,
				opaqueWhy: "call to procedure the analysis cannot see into"})
		}
		for _, a := range x.Args {
			w.reads(a, line)
		}
	case *ast.BinaryExpr:
		w.reads(x.X, line)
		w.reads(x.Y, line)
	case *ast.UnaryExpr:
		if x.Op == "*" {
			w.record(&laneAccess{name: baseName(x.X, w.pass.syms), line: line, opaque: true,
				opaqueWhy: "pointer dereference"})
		}
		w.reads(x.X, line)
	case *ast.CastExpr:
		w.reads(x.X, line)
	}
}

// mentionsIvar reports whether an expression reads any partitioned
// induction variable in scope.
func (w *laneWalker) mentionsIvar(e ast.Expr) bool {
	if e == nil || len(w.ivars) == 0 {
		return false
	}
	for _, n := range exprIdents(e, w.pass.syms) {
		if w.ivars[n] {
			return true
		}
	}
	return false
}
