// Package bytecode lowers the shared AST into a flat, register-style
// instruction stream that the interpreter's VM executes on the kernel hot
// path. Lowering happens once per compile (the instruction stream lives on
// the Executable and is reused across every run); execution happens in
// internal/interp, which owns the runtime the instructions drive — budget
// accounting, the kernel lane scheduler, and the pragma machinery.
//
// The design goals, in order:
//
//  1. Semantics identical to the tree-walker. Every construct the lowerer
//     cannot prove it reproduces exactly is escaped back to the tree-walker
//     (statement escapes via OpEscape, expression escapes via OpEvalExpr),
//     or the whole procedure is declined (ErrNotLowerable) so the
//     interpreter falls back wholesale. The differential suite test holds
//     the two engines to byte-identical reports.
//  2. No per-iteration interpretation overhead: integer opcodes instead of
//     AST type switches, frame slots instead of Env map lookups, a constant
//     pool instead of literal re-parsing, and fused compound-assignment
//     opcodes for the `x op= e` / `x++` forms the templates execute inside
//     gang loops.
//
// A "proc" is any statement the interpreter enters directly: a function
// body, a pragma (region) body, or a loop body that the gang/worker
// scheduler dispatches per-lane. Loop bodies are lowered both inline in
// their enclosing proc and as standalone procs, so worker lanes entering
// the body directly still execute bytecode.
package bytecode

import (
	"errors"

	"accv/internal/ast"
	"accv/internal/mem"
)

// ErrNotLowerable reports that a procedure uses a construct the lowerer
// declines to compile; the interpreter keeps tree-walking that procedure.
var ErrNotLowerable = errors.New("bytecode: procedure not lowerable")

// Op is an instruction opcode.
type Op uint8

// The instruction set. R[x] denotes a register, slot x a frame slot
// (scope-resolved variable), Consts/Decls/Stmts/Exprs the per-proc pools.
const (
	OpNop       Op = iota
	OpTick         // charge one interpreted operation
	OpConst        // R[A] = Consts[B]
	OpLoadVar      // R[A] = value of slot B (array decay, scalar load, runtime constant)
	OpStoreVar     // slot A = R[B]
	OpAugVar       // slot A = slot A <D> R[B]   (fused compound assignment)
	OpLoadIdx      // R[A] = slot B [ R[C] .. R[C+D-1] ]
	OpStoreIdx     // slot A [ R[B] .. R[B+C-1] ] = R[D]
	OpAugIdx       // slot A [ R[B] .. R[B+C-1] ] <E>= R[D]
	OpBin          // R[A] = R[B] <D> R[C]
	OpUn           // R[A] = <D> R[B]
	OpBool         // R[A] = Bool(Truth(R[A]))  (short-circuit normalization)
	OpJump         // pc = A
	OpJumpFalse    // if !Truth(R[A]) pc = B
	OpJumpTrue     // if Truth(R[A]) pc = B
	OpDecl         // execute Decls[B], install the binding into slot A
	OpEscape       // tree-walk Stmts[B] (may return)
	OpEvalExpr     // R[A] = tree-eval Exprs[B]
	OpRet          // return R[A]
	OpEnd          // fall off the end of the proc
)

// Ins is one instruction. Operand meaning is per-opcode; D usually carries
// an ast.OpKind, Line the source line for runtime diagnostics.
type Ins struct {
	Op            Op
	A, B, C, D, E int32
	Line          int32
}

// Proc is one lowered procedure body.
type Proc struct {
	// Name identifies the proc in diagnostics ("main", "main/for@12", ...).
	Name string
	// Root is the statement this proc lowers.
	Root ast.Stmt
	Code []Ins
	// Consts is the literal pool (pre-parsed at lower time).
	Consts []mem.Value
	// SlotNames maps frame slots back to source names; slots are resolved
	// against the activation scope lazily, then cached on the frame.
	SlotNames []string
	// Decls, Stmts, Exprs are the escape pools: declarations executed by
	// OpDecl, statements tree-walked by OpEscape, expressions tree-evaled
	// by OpEvalExpr.
	Decls []*ast.DeclStmt
	Stmts []ast.Stmt
	Exprs []ast.Expr
	// NumRegs is the register file size.
	NumRegs int
	// ChildEnv marks procs whose root is a non-bare block: the tree-walker
	// would run them in a child scope. The VM only materializes the child
	// scope when the proc declares variables (NumDecls > 0); otherwise the
	// scope would stay empty and resolution is unaffected.
	ChildEnv bool
	// NumDecls counts OpDecl instructions; when zero a frame's slot caches
	// stay valid across activations.
	NumDecls int
}

// Module is the lowered form of a program: one Proc per interpreter entry
// point that the lowerer accepted.
type Module struct {
	procs map[ast.Stmt]*Proc
	// Lowered and Declined count procedure-level lowering outcomes (escaped
	// statements inside lowered procs are not declines).
	Lowered, Declined int
}

// Proc returns the lowered proc whose root is st, or nil if st was not
// lowered (the interpreter then tree-walks it).
func (m *Module) Proc(st ast.Stmt) *Proc {
	if m == nil {
		return nil
	}
	return m.procs[st]
}

// Procs returns every lowered proc (test and diagnostic use).
func (m *Module) Procs() []*Proc {
	if m == nil {
		return nil
	}
	out := make([]*Proc, 0, len(m.procs))
	for _, p := range m.procs {
		out = append(out, p)
	}
	return out
}
