package compiler

// SPMD batch selection: decide per planned loop nest whether the VM may
// run it lane-batched, and lower the eligible bodies once at compile
// time. Eligibility is keyed off the LaneSafety oracle — only nests proven
// lane-independent batch; proven-dependent, unknown, and structurally
// unmodelable nests record a decline reason instead, which the interpreter
// surfaces as accv_spmd_fallback_nests_total{reason}.

import (
	"fmt"
	"slices"

	"accv/internal/analysis"
	"accv/internal/ast"
	"accv/internal/bytecode"
	"accv/internal/directive"
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
		ivs := make([]string, len(plan.Nest))
		var body ast.Stmt
		for i, loop := range plan.Nest {
			switch x := loop.(type) {
			case *ast.ForStmt:
				ivs[i], body = forIvName(x), x.Body
			case *ast.DoStmt:
				ivs[i], body = x.Var, x.Body
			}
		}
		if slices.Contains(ivs, "") {
			// The interpreter reports the non-canonical initialization.
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

// planDecline is the batch gate: it applies the plan- and oracle-level
// checks to a plan as the run executes it, after any vendor bug effects.
func planDecline(plan *LoopPlan, verdicts map[int]analysis.LaneVerdict) string {
	// A seq directive that a bug partitions anyway still declines: the
	// oracle judged the directive as written, with no partitioned level,
	// so its verdict does not cover the partitioned nest.
	if plan.DropPlan || plan.Dir.Has(directive.Seq) {
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

// forIvName extracts the induction variable of a canonical C for init, or
// "" when the init is not canonical.
func forIvName(x *ast.ForStmt) string {
	switch init := x.Init.(type) {
	case *ast.DeclStmt:
		if init.Init != nil {
			return init.Name
		}
	case *ast.AssignStmt:
		if id, ok := init.LHS.(*ast.Ident); ok && init.Op == "=" {
			return id.Name
		}
	}
	return ""
}
