package vendors

import (
	"accv/internal/ast"
	"accv/internal/compiler"
	"accv/internal/directive"
)

// matchConstruct reports whether a region's construct is selected.
func matchConstruct(r *compiler.Region, sel []directive.Name) bool {
	if len(sel) == 0 {
		return true
	}
	for _, n := range sel {
		if r.Construct == n {
			return true
		}
	}
	return false
}

// planMatches reports whether a loop plan carries the selector
// clause (gang/worker/vector/seq/independent/collapse/private/reduction).
func planMatches(plan *compiler.LoopPlan, e Effect) bool {
	switch e.Clause {
	case directive.Gang:
		if !plan.Levels.Has(compiler.LevelGang) {
			return false
		}
	case directive.Worker:
		if !plan.Levels.Has(compiler.LevelWorker) {
			return false
		}
	case directive.Vector:
		if !plan.Levels.Has(compiler.LevelVector) {
			return false
		}
	case directive.Seq:
		if !plan.Seq {
			return false
		}
	case directive.Independent:
		if !plan.Independent {
			return false
		}
	case directive.Collapse:
		if plan.Collapse < 2 {
			return false
		}
	case directive.Private:
		if len(plan.Private) == 0 {
			return false
		}
	case directive.Reduction:
		if len(plan.Reduction) == 0 {
			return false
		}
	}
	if e.ReduceOp != "" {
		found := false
		for _, red := range plan.Reduction {
			if red.Op == e.ReduceOp {
				found = true
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// regionHasData reports whether a region carries a data action the
// interpreter's ActSkipData lookup would suppress — an action of the
// selected clause kind, restricted to explicitly-spelled clauses when the
// effect spares the implicit lowering (mirrors regionData construction in
// internal/interp).
func regionHasData(r *compiler.Region, kind directive.ClauseKind, explicitOnly bool) bool {
	for _, a := range r.Data {
		if a.Kind == kind && (!explicitOnly || !a.Implicit) {
			return true
		}
	}
	return false
}

// applyEffect mutates the executable per the effect, returns any
// diagnostics it raises (reject actions produce errors tagged with the
// bug ID), and reports whether the effect had any observable consequence
// on this executable: a diagnostic, or a plan/hook mutation the
// interpreter actually consults. The sweep engine fingerprints a program
// by the set of effects that fire, so the report must err toward true —
// over-reporting only costs cross-version result sharing, while
// under-reporting would let a sweep reuse a result across genuinely
// different behaviors. Each "did not fire" claim below therefore mirrors
// the exact consumption point in internal/interp (e.g. DropIf is only
// read when the directive has an if clause).
func applyEffect(e Effect, exe *compiler.Executable, bugID string) (diags []compiler.Diagnostic, fired bool) {
	reject := func(line int, msg string) {
		diags = append(diags, compiler.Diagnostic{Sev: compiler.Error, Line: line, Msg: msg, BugID: bugID})
	}
	switch e.Action {
	case ActNone:
		return nil, false
	case ActHook:
		if e.Hook == nil {
			return nil, false
		}
		before := exe.Hooks
		e.Hook(&exe.Hooks)
		// Fired only when a flag the hook flipped is one this program can
		// observe (hookfires.go): a wait no-op is inert without waits.
		return nil, hooksObservable(before, exe.Hooks, exe)
	case ActReject:
		for _, r := range exe.Regions {
			if !matchConstruct(r, e.Constructs) {
				continue
			}
			if e.Clause != directive.BadClause && !r.Dir.Has(e.Clause) {
				continue
			}
			msg := e.Msg
			if msg == "" {
				msg = "internal error: unsupported construct " + r.Construct.String()
			}
			reject(r.Dir.Line, msg)
		}
		return diags, len(diags) > 0
	case ActRejectNonConstDims:
		for _, r := range exe.Regions {
			if !matchConstruct(r, e.Constructs) {
				continue
			}
			for _, k := range []directive.ClauseKind{directive.NumGangs, directive.NumWorkers, directive.VectorLength} {
				if e.Clause != directive.BadClause && k != e.Clause {
					continue
				}
				if cl := r.Dir.Get(k); cl != nil && cl.Arg != nil && !compiler.IsConstExpr(cl.Arg) {
					reject(r.Dir.Line, "only constant expressions are supported in "+k.String())
				}
			}
		}
		return diags, len(diags) > 0
	}

	// Region-mutating actions.
	for p, r := range exe.Regions {
		if !matchConstruct(r, e.Constructs) {
			continue
		}
		switch e.Action {
		case ActSkipData:
			if e.ExplicitOnly {
				if r.SkipDataExplicit == nil {
					r.SkipDataExplicit = map[directive.ClauseKind]bool{}
				}
				r.SkipDataExplicit[e.Clause] = true
			} else {
				if r.SkipDataKind == nil {
					r.SkipDataKind = map[directive.ClauseKind]bool{}
				}
				r.SkipDataKind[e.Clause] = true
			}
			if regionHasData(r, e.Clause, e.ExplicitOnly) {
				fired = true
			}
		case ActForceSync:
			r.ForceSync = true
			if r.Dir.Has(directive.Async) {
				fired = true
			}
		case ActDropIf:
			r.DropIf = true
			if r.Dir.Has(directive.If) {
				fired = true
			}
		case ActSharePrivates:
			r.SharePrivates = true
			if len(r.Private) > 0 {
				fired = true
			}
		case ActDropLaunchClause:
			if r.DropClause == nil {
				r.DropClause = map[directive.ClauseKind]bool{}
			}
			r.DropClause[e.Clause] = true
			if r.Dir.Has(e.Clause) {
				fired = true
			}
		case ActDeleteRegion:
			if !r.Deleted {
				fired = true
			}
			r.Deleted = true
		case ActDeleteRegionWithClause:
			if e.Clause == directive.BadClause || r.Dir.Has(e.Clause) {
				if !r.Deleted {
					fired = true
				}
				r.Deleted = true
			}
		case ActDeleteDeadStoreRegion:
			if isDeadStoreRegion(p, r) {
				if !r.Deleted {
					fired = true
				}
				r.Deleted = true
			}
		case ActRegionDropReduction:
			if len(r.Reduction) > 0 {
				fired = true
			}
			r.Reduction = nil
		}
	}

	// Loop-mutating actions. Rescheduling mutations (drop plan, seq
	// ignored, redundant execution) are inert on pure store-only nests
	// with disjoint read/write sets (loopinert.go): every schedule stores
	// the same values, so the effect is applied but not reported as fired.
	for p, plan := range exe.Loops {
		if !planMatches(plan, e) {
			continue
		}
		switch e.Action {
		case ActNoCombine:
			plan.NoCombine = true
			if len(plan.Reduction) > 0 {
				fired = true
			}
		case ActLoopDropPlan:
			plan.DropPlan = true
			// A seq plan already takes the undirected path, so dropping
			// its directive changes nothing.
			if !plan.Seq && !loopMutationInert(p, plan, exe) {
				fired = true
			}
		case ActLoopRedundant:
			plan.Redundant = true
			if !loopMutationInert(p, plan, exe) {
				fired = true
			}
		case ActLoopPartialLanes:
			plan.PartialLanes = true
			fired = true
		case ActLoopCollapseSwap:
			plan.CollapseSwap = true
			fired = true
		case ActLoopSeqIgnored:
			if plan.Seq {
				inert := loopMutationInert(p, plan, exe)
				plan.Seq = false
				plan.Levels |= compiler.LevelGang
				fired = !inert
			}
		}
	}
	return diags, fired
}

// isDeadStoreRegion approximates Cray's over-aggressive dead-code
// elimination (Fig. 11): a compute region whose data clauses are all
// copyout-family and whose body performs only pure copies (no arithmetic)
// is considered free of observable computation and deleted wholesale —
// including its data movement.
func isDeadStoreRegion(p *ast.PragmaStmt, r *compiler.Region) bool {
	hasOut := false
	for _, a := range r.Data {
		switch a.Kind {
		case directive.Copyout, directive.PresentOrCopyout:
			hasOut = true
		case directive.Create, directive.PresentOrCreate, directive.Deviceptr:
			// neutral
		default:
			if !a.Implicit {
				return false // real inputs exist; not a dead store
			}
		}
	}
	if !hasOut || len(r.Reduction) > 0 {
		return false
	}
	// Loop-control statements (for-init assignments and for-post
	// increments) are not observable computation; collect them so the walk
	// below can skip them.
	loopControl := map[ast.Node]bool{}
	ast.Walk(p.Body, func(n ast.Node) bool {
		if f, ok := n.(*ast.ForStmt); ok {
			if f.Init != nil {
				loopControl[f.Init] = true
			}
			if f.Post != nil {
				loopControl[f.Post] = true
			}
		}
		return true
	})
	assigns := 0
	pure := true
	ast.Walk(p.Body, func(n ast.Node) bool {
		if loopControl[n] {
			return false
		}
		switch as := n.(type) {
		case *ast.AssignStmt:
			assigns++
			if as.Op != "=" {
				pure = false
			}
			switch as.RHS.(type) {
			case *ast.IndexExpr, *ast.Ident, *ast.BasicLit:
			default:
				pure = false
			}
		case *ast.IncDecStmt, *ast.CallExpr:
			// Increments and calls in the body are observable computation.
			pure = false
		}
		return true
	})
	return assigns > 0 && pure
}
