package compiler

// SPMD batch selection: decide per planned loop nest whether the VM may
// run it lane-batched, and lower the eligible bodies once at compile
// time. Eligibility is keyed off the LaneSafety oracle — only nests proven
// lane-independent batch; proven-dependent, unknown, and structurally
// unmodelable nests record a decline reason instead, which the interpreter
// surfaces as accv_spmd_fallback_nests_total{reason}.

import (
	"fmt"

	"accv/internal/analysis"
	"accv/internal/ast"
	"accv/internal/bytecode"
)

// lowerBatches populates exe.Batch / exe.BatchDecline for every loop plan.
func lowerBatches(exe *Executable) {
	exe.Batch = make(map[*ast.PragmaStmt]*bytecode.BatchProc)
	exe.BatchDecline = make(map[*ast.PragmaStmt]string)
	// Index the oracle by directive line; the "region" entries cover
	// gang-redundant remainders, not partitioned nests.
	verdicts := make(map[int]analysis.LaneVerdict)
	for _, e := range exe.LaneSafety {
		if e.Levels != "region" {
			verdicts[e.Line] = e.Verdict
		}
	}
	for p, plan := range exe.Loops {
		if reason := planDecline(plan, verdicts); reason != "" {
			exe.BatchDecline[p] = reason
			continue
		}
		body, ivs, ok := nestShape(p, plan.Collapse)
		if !ok {
			exe.BatchDecline[p] = "nest-shape"
			continue
		}
		var redNames []string
		for _, red := range plan.Reduction {
			for _, ref := range red.Vars {
				redNames = append(redNames, ref.Name)
			}
		}
		name := fmt.Sprintf("loop@%d", plan.Dir.Line)
		bp, why := bytecode.LowerBatch(name, plan.Dir.Line, body, ivs, redNames)
		if bp == nil {
			exe.BatchDecline[p] = why
			continue
		}
		exe.Batch[p] = bp
	}
}

// planDecline applies the plan- and oracle-level batch gates. Vendor bug
// effects mutate plan flags after compilation, so the interpreter re-checks
// the flag set at run time; this compile-time check handles the reference
// lowering and produces the stable decline reasons.
func planDecline(plan *LoopPlan, verdicts map[int]analysis.LaneVerdict) string {
	if plan.Seq || plan.DropPlan {
		return "sequential"
	}
	if plan.Redundant || plan.NoCombine || plan.PartialLanes || plan.CollapseSwap || plan.Gang0Only {
		return "bug-hook"
	}
	if len(plan.Private) > 0 {
		// Lane-private copies start as garbage seeded per lane; the batch
		// model has no per-lane environments to host them.
		return "private-clause"
	}
	v, ok := verdicts[plan.Dir.Line]
	if !ok {
		return "no-oracle-entry"
	}
	switch v {
	case analysis.LaneProvenDependent:
		return "oracle-dependent"
	case analysis.LaneUnknown:
		return "oracle-unknown"
	}
	return ""
}

// nestShape statically mirrors the interpreter's analyzeNest traversal:
// collapse tightly nested counted loops, collecting induction-variable
// names, and return the innermost body. Bound canonicality is the
// interpreter's job (non-canonical nests error there before batching is
// consulted); this only needs the shape.
func nestShape(p *ast.PragmaStmt, collapse int) (ast.Stmt, []string, bool) {
	if collapse < 1 {
		collapse = 1
	}
	var ivs []string
	cur := p.Body
	for len(ivs) < collapse {
		cur = unwrapBlock(cur)
		switch x := cur.(type) {
		case *ast.ForStmt:
			name, ok := forIvName(x)
			if !ok {
				return nil, nil, false
			}
			ivs = append(ivs, name)
			cur = x.Body
		case *ast.DoStmt:
			ivs = append(ivs, x.Var)
			cur = x.Body
		default:
			return nil, nil, false
		}
	}
	return cur, ivs, true
}

// unwrapBlock strips single-statement blocks (the interpreter's rule).
func unwrapBlock(st ast.Stmt) ast.Stmt {
	for {
		b, ok := st.(*ast.Block)
		if !ok || len(b.Stmts) != 1 {
			return st
		}
		st = b.Stmts[0]
	}
}

// forIvName extracts the induction variable of a canonical C for init.
func forIvName(x *ast.ForStmt) (string, bool) {
	switch init := x.Init.(type) {
	case *ast.DeclStmt:
		return init.Name, init.Init != nil
	case *ast.AssignStmt:
		if id, ok := init.LHS.(*ast.Ident); ok && init.Op == "=" {
			return id.Name, true
		}
	}
	return "", false
}
