package compiler

import (
	"fmt"

	"accv/internal/ast"
	"accv/internal/directive"
)

// Predefined identifiers that are never subject to the implicit
// data-attribute rules: runtime constants and stdio handles.
var predefined = map[string]bool{
	"acc_device_none": true, "acc_device_default": true,
	"acc_device_host": true, "acc_device_not_host": true,
	"acc_device_nvidia": true, "acc_device_cuda": true,
	"acc_device_opencl": true, "acc_device_radeon": true,
	"acc_device_xeonphi": true, "acc_device_pgi_opencl": true,
	"acc_device_nvidia_opencl": true, "acc_async_noval": true,
	"acc_async_sync": true, "stderr": true, "stdout": true, "NULL": true,
}

// clause applicability per directive (OpenACC 1.0 with the 2.0 extensions
// behind the spec switch).
var dataKinds = []directive.ClauseKind{
	directive.Copy, directive.Copyin, directive.Copyout, directive.Create,
	directive.Present, directive.PresentOrCopy, directive.PresentOrCopyin,
	directive.PresentOrCopyout, directive.PresentOrCreate, directive.Deviceptr,
}

func clauseSet(kinds ...directive.ClauseKind) map[directive.ClauseKind]bool {
	m := make(map[directive.ClauseKind]bool)
	for _, k := range kinds {
		m[k] = true
	}
	return m
}

func withData(kinds ...directive.ClauseKind) map[directive.ClauseKind]bool {
	m := clauseSet(kinds...)
	for _, k := range dataKinds {
		m[k] = true
	}
	return m
}

var loopClauses = []directive.ClauseKind{
	directive.Collapse, directive.Gang, directive.Worker, directive.Vector,
	directive.Seq, directive.Independent, directive.Private, directive.Reduction,
	directive.Auto,
}

var allowedClauses = map[directive.Name]map[directive.ClauseKind]bool{
	directive.Parallel: withData(directive.If, directive.Async, directive.NumGangs,
		directive.NumWorkers, directive.VectorLength, directive.Reduction,
		directive.Private, directive.FirstPrivate, directive.Default),
	directive.Kernels: withData(directive.If, directive.Async, directive.Default),
	directive.Data:    withData(directive.If),
	directive.EnterData: clauseSet(directive.If, directive.Async, directive.Copyin,
		directive.Create, directive.PresentOrCopyin, directive.PresentOrCreate),
	directive.ExitData: clauseSet(directive.If, directive.Async, directive.Copyout),
	directive.HostData: clauseSet(directive.UseDevice),
	directive.Loop:     clauseSet(loopClauses...),
	directive.ParallelLoop: withData(append(loopClauses, directive.If,
		directive.Async, directive.NumGangs, directive.NumWorkers,
		directive.VectorLength, directive.FirstPrivate, directive.Default)...),
	directive.KernelsLoop: withData(append(loopClauses, directive.If,
		directive.Async, directive.Default)...),
	directive.Update: clauseSet(directive.HostClause, directive.DeviceClause,
		directive.If, directive.Async),
	directive.Declare: withData(directive.DeviceResident),
	directive.Cache:   clauseSet(directive.CacheVars),
	directive.Wait:    clauseSet(),
	directive.Routine: clauseSet(directive.Gang, directive.Worker,
		directive.Vector, directive.Seq),
}

// symInfo is the compile-time view of a variable.
type symInfo struct {
	isArray bool
	isPtr   bool
}

// sema walks functions, validates directive placement and clause use, and
// builds the executable's region and loop plans.
type sema struct {
	exe   *Executable
	diags []Diagnostic

	scopes []map[string]symInfo

	region       *Region // innermost compute region, nil on the host
	inData       bool    // inside a data or host_data construct
	loopDepth    int     // acc-loop nesting inside the current region
	gangLoopSeen bool    // a gang-partitioned loop encloses the current point
}

func (s *sema) errorf(line int, format string, args ...any) {
	s.diags = append(s.diags, Diagnostic{Sev: Error, Line: line, Msg: fmt.Sprintf(format, args...)})
}

// errorfAt is errorf with a full source position, used where the offending
// clause's column is known.
func (s *sema) errorfAt(pos ast.Pos, format string, args ...any) {
	s.diags = append(s.diags, Diagnostic{Sev: Error, Line: pos.Line, Col: pos.Col, Msg: fmt.Sprintf(format, args...)})
}

func (s *sema) warnf(line int, format string, args ...any) {
	s.diags = append(s.diags, Diagnostic{Sev: Warn, Line: line, Msg: fmt.Sprintf(format, args...)})
}

func (s *sema) push() { s.scopes = append(s.scopes, map[string]symInfo{}) }
func (s *sema) pop()  { s.scopes = s.scopes[:len(s.scopes)-1] }

func (s *sema) declare(name string, info symInfo) {
	s.scopes[len(s.scopes)-1][name] = info
}

func (s *sema) lookup(name string) (symInfo, bool) {
	for i := len(s.scopes) - 1; i >= 0; i-- {
		if info, ok := s.scopes[i][name]; ok {
			return info, true
		}
	}
	return symInfo{}, false
}

// function analyzes one procedure.
func (s *sema) function(fn *ast.FuncDecl) {
	if fn.Routine && s.exe.Opts.Spec < Spec20 {
		s.errorf(fn.Line, "the routine directive on %q requires OpenACC 2.0 (compiling for %s)", fn.Name, s.exe.Opts.Spec)
	}
	s.push()
	for _, p := range fn.Params {
		s.declare(p.Name, symInfo{isArray: p.IsArray, isPtr: p.Type.Ptr})
	}
	s.stmt(fn.Body)
	s.pop()
}

// stmt dispatches over statements, maintaining scopes and directive context.
func (s *sema) stmt(st ast.Stmt) {
	switch x := st.(type) {
	case nil:
	case *ast.Block:
		if !x.Bare {
			s.push()
			defer s.pop()
		}
		for _, inner := range x.Stmts {
			s.stmt(inner)
		}
	case *ast.DeclStmt:
		s.declare(x.Name, symInfo{isArray: len(x.Dims) > 0, isPtr: x.Type.Ptr})
	case *ast.IfStmt:
		s.stmt(x.Then)
		s.stmt(x.Else)
	case *ast.ForStmt:
		s.push()
		s.stmt(x.Init)
		s.stmt(x.Body)
		s.pop()
	case *ast.DoStmt:
		s.stmt(x.Body)
	case *ast.WhileStmt:
		s.stmt(x.Body)
	case *ast.PragmaStmt:
		s.pragma(x)
	}
}

// pragma validates one directive and builds its plan.
func (s *sema) pragma(p *ast.PragmaStmt) {
	d, ok := p.Dir.(*directive.Directive)
	if !ok {
		s.errorf(p.Line, "malformed pragma")
		return
	}
	if allowed, ok := allowedClauses[d.Name]; ok {
		for i := range d.Clauses {
			c := &d.Clauses[i]
			if !allowed[c.Kind] {
				s.errorfAt(d.ClausePos(c), "clause %q is not valid on the %s directive", c.Kind, d.Name)
			}
			if (c.Kind == directive.Default || c.Kind == directive.Auto) && s.exe.Opts.Spec < Spec20 {
				s.errorfAt(d.ClausePos(c), "clause %q requires OpenACC 2.0 (compiling for %s)", c.Kind, s.exe.Opts.Spec)
			}
		}
	}
	switch d.Name {
	case directive.Parallel, directive.Kernels, directive.ParallelLoop, directive.KernelsLoop:
		s.computeConstruct(p, d)
	case directive.Data:
		if s.region != nil {
			s.errorf(d.Line, "data construct may not appear inside a compute region")
		}
		s.dataConstruct(p, d)
	case directive.HostData:
		if s.region != nil {
			s.errorf(d.Line, "host_data construct may not appear inside a compute region")
		}
		r := &Region{Construct: d.Name, Dir: d}
		for _, c := range d.All(directive.UseDevice) {
			r.UseDevice = append(r.UseDevice, c.Vars...)
		}
		if len(r.UseDevice) == 0 {
			s.errorf(d.Line, "host_data requires a use_device clause")
		}
		s.exe.Regions[p] = r
		wasData := s.inData
		s.inData = true
		s.stmt(p.Body)
		s.inData = wasData
	case directive.Loop:
		if s.region == nil {
			s.errorf(d.Line, "loop directive must appear inside a compute region")
			return
		}
		s.loopDirective(p, d)
	case directive.Update:
		if s.region != nil {
			s.errorf(d.Line, "update directive may not appear inside a compute region")
		}
		if !d.Has(directive.HostClause) && !d.Has(directive.DeviceClause) {
			s.errorf(d.Line, "update requires a host or device clause")
		}
		s.exe.Regions[p] = &Region{Construct: d.Name, Dir: d}
	case directive.Wait:
		if s.region != nil {
			s.errorf(d.Line, "wait directive may not appear inside a compute region")
		}
		s.exe.Regions[p] = &Region{Construct: d.Name, Dir: d}
	case directive.Declare:
		if s.region != nil {
			s.errorf(d.Line, "declare directive may not appear inside a compute region")
		}
		r := &Region{Construct: d.Name, Dir: d}
		for _, c := range d.DataClauses() {
			for _, v := range c.Vars {
				r.Data = append(r.Data, DataAction{Kind: c.Kind, Var: v})
			}
		}
		for _, c := range d.All(directive.DeviceResident) {
			for _, v := range c.Vars {
				r.Data = append(r.Data, DataAction{Kind: directive.Create, Var: v})
			}
		}
		if len(r.Data) == 0 {
			s.errorf(d.Line, "declare requires at least one data clause")
		}
		s.exe.Regions[p] = r
	case directive.Cache:
		if s.region == nil || s.loopDepth == 0 {
			s.errorf(d.Line, "cache directive must appear inside a loop in a compute region")
		}
		s.exe.Regions[p] = &Region{Construct: d.Name, Dir: d}
	case directive.EnterData, directive.ExitData:
		if s.exe.Opts.Spec < Spec20 {
			s.errorf(d.Line, "%s requires OpenACC 2.0 (compiling for %s)", d.Name, s.exe.Opts.Spec)
			return
		}
		if s.region != nil {
			s.errorf(d.Line, "%s may not appear inside a compute region", d.Name)
		}
		r := &Region{Construct: d.Name, Dir: d}
		for _, c := range d.Clauses {
			if c.Kind.IsData() || c.Kind == directive.Copyin || c.Kind == directive.Copyout {
				for _, v := range c.Vars {
					r.Data = append(r.Data, DataAction{Kind: c.Kind, Var: v})
				}
			}
		}
		s.exe.Regions[p] = r
	case directive.Routine:
		if s.exe.Opts.Spec < Spec20 {
			s.errorf(d.Line, "the routine directive requires OpenACC 2.0 (compiling for %s)", s.exe.Opts.Spec)
		}
		s.exe.Regions[p] = &Region{Construct: d.Name, Dir: d}
	default:
		if d.Name.IsEnd() {
			s.errorf(d.Line, "unmatched %s directive", d.Name)
		} else {
			s.errorf(d.Line, "directive %s is not supported here", d.Name)
		}
	}
}

// dataConstruct builds the region for a structured data construct.
func (s *sema) dataConstruct(p *ast.PragmaStmt, d *directive.Directive) {
	r := &Region{Construct: d.Name, Dir: d}
	for _, c := range d.DataClauses() {
		for _, v := range c.Vars {
			s.checkVarRef(d.Line, v)
			r.Data = append(r.Data, DataAction{Kind: c.Kind, Var: v})
		}
	}
	s.exe.Regions[p] = r
	wasData := s.inData
	s.inData = true
	s.stmt(p.Body)
	s.inData = wasData
}

// computeConstruct builds the region (and, for combined forms, the loop
// plan) for a compute construct.
func (s *sema) computeConstruct(p *ast.PragmaStmt, d *directive.Directive) {
	if s.region != nil {
		// OpenACC 1.0 does not allow nested compute regions.
		s.errorf(d.Line, "compute constructs may not be nested")
		return
	}
	r := &Region{Construct: d.Name, Dir: d}
	for _, c := range d.Clauses {
		switch {
		case c.Kind.IsData():
			for _, v := range c.Vars {
				s.checkVarRef(d.Line, v)
				r.Data = append(r.Data, DataAction{Kind: c.Kind, Var: v})
			}
		case c.Kind == directive.Private && !d.Name.IsCombined():
			r.Private = append(r.Private, c.Vars...)
		case c.Kind == directive.FirstPrivate:
			r.First = append(r.First, c.Vars...)
		case c.Kind == directive.Reduction && !d.Name.IsCombined():
			r.Reduction = append(r.Reduction, Reduction{Op: c.ReduceOp, Vars: c.Vars})
		}
	}
	s.exe.Regions[p] = r

	prevRegion, prevDepth, prevGang := s.region, s.loopDepth, s.gangLoopSeen
	s.region, s.loopDepth, s.gangLoopSeen = r, 0, false
	if d.Name.IsCombined() {
		// The combined form's body is the loop itself.
		s.loopDirective(p, d)
	} else {
		s.stmt(p.Body)
	}
	s.addImplicitData(p, r)
	s.region, s.loopDepth, s.gangLoopSeen = prevRegion, prevDepth, prevGang
}

// loopDirective builds a LoopPlan for a loop (or combined) directive.
func (s *sema) loopDirective(p *ast.PragmaStmt, d *directive.Directive) {
	plan := &LoopPlan{Dir: d, Collapse: 1}
	for _, c := range d.Clauses {
		switch c.Kind {
		case directive.Gang:
			plan.Levels |= LevelGang
			plan.GangArg = c.Arg
		case directive.Worker:
			plan.Levels |= LevelWorker
			plan.WorkerArg = c.Arg
		case directive.Vector:
			plan.Levels |= LevelVector
			plan.VectorArg = c.Arg
		case directive.Seq:
			plan.Seq = true
		case directive.Independent:
			plan.Independent = true
		case directive.Auto:
			// 2.0 auto: scheduling left to the compiler; same as bare.
		case directive.Collapse:
			n, ok := EvalConstInt(c.Arg)
			if !ok || n < 1 {
				s.errorf(d.Line, "collapse requires a positive integer constant")
				n = 1
			}
			plan.Collapse = int(n)
		case directive.Private:
			plan.Private = append(plan.Private, c.Vars...)
		case directive.Reduction:
			if d.Name == directive.Loop || d.Name.IsCombined() {
				plan.Reduction = append(plan.Reduction, Reduction{Op: c.ReduceOp, Vars: c.Vars})
			}
		}
	}
	if plan.Seq && plan.Levels != 0 {
		s.errorf(d.Line, "seq cannot be combined with gang, worker or vector")
	}
	if !plan.Seq && plan.Levels == 0 {
		// Bare acc loop: the compiler chooses; the reference implementation
		// partitions across gangs, matching the Fig. 2 test's expectation.
		plan.Levels = LevelGang
	}

	// Fig. 1 ambiguity: a worker loop with no enclosing gang loop.
	if plan.Levels.Has(LevelWorker) && !plan.Levels.Has(LevelGang) && !s.gangLoopSeen {
		switch s.exe.Opts.WorkerNoGang {
		case WorkerNoGangReject:
			s.errorf(d.Line, "worker loop requires an enclosing gang loop (implementation restriction)")
		case WorkerNoGangSerialize:
			plan.Gang0Only = true
		}
	}
	if s.exe.Opts.Spec >= Spec20 {
		s.checkLoopNesting20(d, plan)
	}

	// Validate the body: Collapse perfectly-nested counted loops.
	if plan.Nest = s.loopNest(p.Body, plan.Collapse, d.Line); plan.Nest == nil {
		return
	}
	s.exe.Loops[p] = plan

	prevDepth, prevGang := s.loopDepth, s.gangLoopSeen
	s.loopDepth++
	if plan.Levels.Has(LevelGang) {
		s.gangLoopSeen = true
	}
	s.stmt(p.Body)
	s.loopDepth, s.gangLoopSeen = prevDepth, prevGang
}

// checkLoopNesting20 enforces the OpenACC 2.0 rules of §VI: gang outermost,
// vector innermost, no level repeated within a nest.
func (s *sema) checkLoopNesting20(d *directive.Directive, plan *LoopPlan) {
	if plan.Levels.Has(LevelGang) && s.gangLoopSeen {
		s.errorf(d.Line, "OpenACC 2.0: a gang loop may not contain another gang loop")
	}
	if s.gangLoopSeen && plan.Levels.Has(LevelGang) && plan.Levels.Has(LevelVector) {
		s.errorf(d.Line, "OpenACC 2.0: vector loops must be innermost")
	}
}

// loopNest returns the depth counted loops of the nest st opens,
// outermost first, or reports an error and returns nil when st is not a
// counted loop nest at least depth deep.
func (s *sema) loopNest(st ast.Stmt, depth int, line int) []ast.Stmt {
	nest := make([]ast.Stmt, 0, depth)
	for cur := st; len(nest) < depth; {
		switch x := cur.(type) {
		case *ast.ForStmt:
			nest = append(nest, x)
			cur = x.Body
		case *ast.DoStmt:
			nest = append(nest, x)
			cur = x.Body
		case *ast.Block:
			// A block wrapping a single loop is tolerated inside the nest.
			if len(nest) > 0 && len(x.Stmts) == 1 {
				cur = x.Stmts[0]
				continue
			}
			s.errorf(line, "loop directive requires %d tightly nested loops", depth)
			return nil
		default:
			s.errorf(line, "loop directive must be followed by a for/do loop")
			return nil
		}
	}
	return nest
}

// checkVarRef validates a data clause variable against the symbol table.
func (s *sema) checkVarRef(line int, v directive.VarRef) {
	if _, ok := s.lookup(v.Name); !ok && !predefined[v.Name] {
		// The variable may be declared later in the scope (C allows clause
		// references only to visible names, but our templates occasionally
		// reference names declared below the pragma in Fortran specification
		// order); demote to a warning.
		s.warnf(line, "variable %q in data clause is not yet declared", v.Name)
	}
}

// addImplicitData applies the default data-attribute rules (§V-C "Default
// behavior"): arrays referenced in the region but absent from every data
// clause are treated as present_or_copy; scalars default to firstprivate in
// parallel regions and present_or_copy in kernels regions.
func (s *sema) addImplicitData(p *ast.PragmaStmt, r *Region) {
	named := map[string]bool{}
	for _, a := range r.Data {
		named[a.Var.Name] = true
	}
	for _, v := range r.Private {
		named[v.Name] = true
	}
	for _, v := range r.First {
		named[v.Name] = true
	}
	for _, red := range r.Reduction {
		for _, v := range red.Vars {
			named[v.Name] = true
		}
	}
	defaultNone := r.Dir.Has(directive.Default)

	kernels := r.Construct == directive.Kernels || r.Construct == directive.KernelsLoop

	// Reduction variables on gang-level loops must survive the region (the
	// combined result flows back to the host), so they default to
	// present_or_copy. Reductions on inner worker/vector loops combine into
	// a gang-local binding and keep the firstprivate default.
	loopReduction := map[string]bool{}
	ast.Walk(p.Body, func(n ast.Node) bool {
		if ps, ok := n.(*ast.PragmaStmt); ok {
			if plan, ok := s.exe.Loops[ps]; ok && plan.Levels.Has(LevelGang) {
				for _, red := range plan.Reduction {
					for _, v := range red.Vars {
						loopReduction[v.Name] = true
					}
				}
			}
		}
		return true
	})
	if plan, ok := s.exe.Loops[p]; ok && plan != nil {
		// Combined construct: its own loop reduction behaves the same way.
		for _, red := range plan.Reduction {
			for _, v := range red.Vars {
				loopReduction[v.Name] = true
			}
		}
	}

	declared := map[string]bool{}
	seen := map[string]bool{}
	var order []string
	kinds := map[string]symInfo{}
	// Loop induction variables are predetermined private; default(none)
	// does not require them to be listed.
	induction := map[string]bool{}
	ast.Walk(p.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ForStmt:
			switch init := x.Init.(type) {
			case *ast.DeclStmt:
				induction[init.Name] = true
			case *ast.AssignStmt:
				if id, ok := init.LHS.(*ast.Ident); ok {
					induction[id.Name] = true
				}
			}
		case *ast.DoStmt:
			induction[x.Var] = true
		}
		return true
	})
	note := func(name string) {
		if declared[name] || named[name] || predefined[name] || seen[name] {
			return
		}
		info, ok := s.lookup(name)
		if !ok {
			return
		}
		seen[name] = true
		order = append(order, name)
		kinds[name] = info
	}
	ast.Walk(p.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.DeclStmt:
			declared[x.Name] = true
		case *ast.Ident:
			note(x.Name)
		case *ast.CallExpr:
			// Fortran subscripts parse as calls; a call of an array name is
			// a reference to that array.
			if info, ok := s.lookup(x.Fun); ok && info.isArray {
				note(x.Fun)
			}
		}
		return true
	})
	for _, name := range order {
		info := kinds[name]
		if defaultNone && !induction[name] {
			s.errorf(r.Dir.Line, "variable %q has no data attribute and default(none) is in effect", name)
			continue
		}
		switch {
		case info.isPtr && !info.isArray:
			s.errorf(r.Dir.Line, "cannot determine the extent of pointer %q; add a data clause with an array section", name)
		case info.isArray:
			r.Data = append(r.Data, DataAction{Kind: directive.PresentOrCopy,
				Var: directive.VarRef{Name: name}, Implicit: true})
		case !kernels && !loopReduction[name]:
			r.FirstImplicit = append(r.FirstImplicit, directive.VarRef{Name: name})
		default:
			r.Data = append(r.Data, DataAction{Kind: directive.PresentOrCopy,
				Var: directive.VarRef{Name: name}, Implicit: true})
		}
	}
}
