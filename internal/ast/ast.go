// Package ast defines the abstract syntax tree shared by the C-subset and
// Fortran-subset frontends of the OpenACC validation suite.
//
// The tree deliberately covers only the language surface that the paper's
// test programs use: scalar and array declarations, assignments, counted
// loops, conditionals, calls, and OpenACC pragma statements. Both frontends
// lower to this one representation so the compiler, vendor bug engine, and
// interpreter are language-agnostic.
package ast

import (
	"fmt"
	"strings"
)

// Lang identifies the source language of a program.
type Lang int

const (
	// LangC is the C-subset frontend (#pragma acc sentinels).
	LangC Lang = iota
	// LangFortran is the Fortran-subset frontend (!$acc sentinels).
	LangFortran
)

// String returns the conventional short name of the language.
func (l Lang) String() string {
	if l == LangFortran {
		return "fortran"
	}
	return "c"
}

// Basic enumerates the scalar base types of the test languages.
type Basic int

const (
	// Void is the absence of a value (procedure results).
	Void Basic = iota
	// Int is a 64-bit signed integer ("int", "long", "integer").
	Int
	// Float is a 32-bit IEEE float ("float", "real").
	Float
	// Double is a 64-bit IEEE float ("double", "double precision").
	Double
	// Logical is the Fortran logical type; it behaves as Int with 0/1 values.
	Logical
)

// String returns the C spelling of the basic type.
func (b Basic) String() string {
	switch b {
	case Int:
		return "int"
	case Float:
		return "float"
	case Double:
		return "double"
	case Logical:
		return "logical"
	}
	return "void"
}

// Type describes a declared type: a basic type, optionally a pointer to it.
// Array shapes are carried on the declaration, not the type.
type Type struct {
	Base Basic
	Ptr  bool
}

// String renders the type in C syntax.
func (t Type) String() string {
	if t.Ptr {
		return t.Base.String() + "*"
	}
	return t.Base.String()
}

// IsNumeric reports whether the type is a non-pointer arithmetic type.
func (t Type) IsNumeric() bool {
	return !t.Ptr && (t.Base == Int || t.Base == Float || t.Base == Double || t.Base == Logical)
}

// Pos is a source position: a 1-based line and a 1-based column. Col 0
// means "column unknown" (positions recorded before the frontends carried
// columns); such positions render as a bare line number.
type Pos struct {
	Line int
	Col  int
}

// String renders the position as "L" or "L:C".
func (p Pos) String() string {
	if p.Col <= 0 {
		return fmt.Sprintf("%d", p.Line)
	}
	return fmt.Sprintf("%d:%d", p.Line, p.Col)
}

// IsValid reports whether the position carries at least a line.
func (p Pos) IsValid() bool { return p.Line > 0 }

// Ignore is one suppression comment collected by a frontend:
// `// accvet:ignore [IDs...]` in C, `!$acc$ignore [IDs...]` in Fortran.
// An empty ID list suppresses every analyzer. The comment applies to
// findings on its own line and on the following line, so it works both
// trailing a statement and on a line of its own above one.
type Ignore struct {
	Line int
	IDs  []string // analyzer IDs, upper-cased; empty = all
}

// IgnoreMarker is the comment marker that declares a suppression: the C
// frontend recognizes it in // and /* */ comments, the Fortran frontend
// spells it as the "!$acc$ignore" sentinel.
const IgnoreMarker = "accvet:ignore"

// NewIgnore builds an Ignore from the argument text that followed the
// marker: analyzer IDs separated by spaces or commas; none means "all".
func NewIgnore(line int, args string) Ignore {
	ig := Ignore{Line: line}
	// Everything after "--" is a human-readable justification, not an ID
	// list (the nolint convention).
	if i := strings.Index(args, "--"); i >= 0 {
		args = args[:i]
	}
	for _, f := range strings.FieldsFunc(args, func(r rune) bool {
		return r == ' ' || r == '\t' || r == ','
	}) {
		ig.IDs = append(ig.IDs, strings.ToUpper(f))
	}
	return ig
}

// Matches reports whether the ignore entry covers the given analyzer ID.
func (ig Ignore) Matches(id string) bool {
	if len(ig.IDs) == 0 {
		return true
	}
	for _, want := range ig.IDs {
		if want == id {
			return true
		}
	}
	return false
}

// Pragma is the interface implemented by directive annotations attached to
// PragmaStmt nodes. The concrete type lives in internal/directive; ast keeps
// only this minimal view to avoid an import cycle.
type Pragma interface {
	// PragmaText returns the original source text of the pragma.
	PragmaText() string
}

// Node is implemented by every AST node.
type Node interface {
	node()
}

// Stmt is implemented by statement nodes.
type Stmt interface {
	Node
	stmt()
}

// Expr is implemented by expression nodes.
type Expr interface {
	Node
	expr()
}

// Program is a complete translation unit: a set of procedures with a
// designated entry point. C test programs define `int acc_test()` (plus
// optional helpers); Fortran programs lower their main program body to a
// synthetic entry procedure.
type Program struct {
	Lang  Lang
	Funcs []*FuncDecl
	Entry string // name of the entry procedure
	// Ignores are the analyzer-suppression comments the frontend collected,
	// in source order (internal/analysis applies them).
	Ignores []Ignore
}

// Suppressed reports whether a finding from analyzer id at the given line
// is covered by an ignore comment on that line or the line above.
func (p *Program) Suppressed(id string, line int) bool {
	for _, ig := range p.Ignores {
		if (ig.Line == line || ig.Line == line-1) && ig.Matches(id) {
			return true
		}
	}
	return false
}

// node/stmt/expr marker plumbing.
func (*Program) node() {}

// Lookup returns the function with the given name, or nil.
func (p *Program) Lookup(name string) *FuncDecl {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// EntryFunc returns the entry procedure, or nil if missing.
func (p *Program) EntryFunc() *FuncDecl { return p.Lookup(p.Entry) }

// FuncDecl is a procedure definition.
type FuncDecl struct {
	Name   string
	Params []*Param
	Result Type // Base==Void for subroutines
	Body   *Block
	Line   int
	// Routine marks procedures annotated with the OpenACC 2.0 routine
	// directive, making them callable from compute regions.
	Routine bool
}

func (*FuncDecl) node() {}

// Param is a formal parameter. Array parameters are passed by reference
// (as buffers); IsArray marks them.
type Param struct {
	Name    string
	Type    Type
	IsArray bool
}

// Block is a brace-delimited (or structurally implied) statement list.
// Bare blocks (multi-declarator declarations) do not open a new scope.
type Block struct {
	Stmts []Stmt
	Line  int
	Bare  bool
}

func (*Block) node() {}
func (*Block) stmt() {}

// Declares reports whether the block binds a name into its own scope: a
// direct declaration, or one inside a bare sub-block. A block that
// declares nothing can share its parent's scope.
func (b *Block) Declares() bool {
	for _, s := range b.Stmts {
		switch x := s.(type) {
		case *DeclStmt:
			return true
		case *Block:
			if x.Bare && x.Declares() {
				return true
			}
		}
	}
	return false
}

// DeclStmt declares a scalar or array variable, optionally initialized.
// For arrays, Dims holds one extent expression per dimension and Lower the
// per-dimension lower bound (nil means the language default: 0 for C,
// 1 for Fortran).
type DeclStmt struct {
	Name  string
	Type  Type
	Dims  []Expr
	Lower []Expr
	Init  Expr
	Line  int
}

func (*DeclStmt) node() {}
func (*DeclStmt) stmt() {}

// IsArray reports whether the declaration has array shape.
func (d *DeclStmt) IsArray() bool { return len(d.Dims) > 0 }

// AssignStmt assigns RHS to LHS with operator "=", "+=", "-=", "*=" or "/=".
type AssignStmt struct {
	LHS  Expr
	Op   string
	RHS  Expr
	Line int
}

func (*AssignStmt) node() {}
func (*AssignStmt) stmt() {}

// IncDecStmt is the C `x++` / `x--` statement form.
type IncDecStmt struct {
	X    Expr
	Op   string // "++" or "--"
	Line int
}

func (*IncDecStmt) node() {}
func (*IncDecStmt) stmt() {}

// ExprStmt evaluates an expression for its side effects (calls).
type ExprStmt struct {
	X    Expr
	Line int
}

func (*ExprStmt) node() {}
func (*ExprStmt) stmt() {}

// IfStmt is a conditional with optional else branch.
type IfStmt struct {
	Cond Expr
	Then Stmt
	Else Stmt // may be nil
	Line int
}

func (*IfStmt) node() {}
func (*IfStmt) stmt() {}

// ForStmt is the C counted/general loop. Init and Post may be nil.
type ForStmt struct {
	Init Stmt
	Cond Expr
	Post Stmt
	Body Stmt
	Line int
}

func (*ForStmt) node() {}
func (*ForStmt) stmt() {}

// DoStmt is the Fortran counted loop `do v = from, to [, step]` with
// inclusive bounds.
type DoStmt struct {
	Var  string
	From Expr
	To   Expr
	Step Expr // nil means 1
	Body *Block
	Line int
}

func (*DoStmt) node() {}
func (*DoStmt) stmt() {}

// WhileStmt is the C while loop (and Fortran `do while`).
type WhileStmt struct {
	Cond Expr
	Body Stmt
	Line int
}

func (*WhileStmt) node() {}
func (*WhileStmt) stmt() {}

// ReturnStmt returns from the enclosing procedure, optionally with a value.
type ReturnStmt struct {
	X    Expr // may be nil
	Line int
}

func (*ReturnStmt) node() {}
func (*ReturnStmt) stmt() {}

// PragmaStmt attaches an OpenACC directive to a body statement. Standalone
// directives (update, wait, cache inside loops, declare) have a nil Body.
type PragmaStmt struct {
	Dir  Pragma
	Body Stmt // nil for standalone directives
	Line int
}

func (*PragmaStmt) node() {}
func (*PragmaStmt) stmt() {}

// Ident is a variable reference.
type Ident struct {
	Name string
	Line int
}

func (*Ident) node() {}
func (*Ident) expr() {}

// LitKind distinguishes literal flavours.
type LitKind int

const (
	// IntLit is an integer literal.
	IntLit LitKind = iota
	// FloatLit is a floating literal (float or double per suffix/context).
	FloatLit
	// StringLit is a string literal (printf formats only).
	StringLit
)

// BasicLit is a literal token. Value is the source spelling (without quotes
// for strings).
type BasicLit struct {
	Kind  LitKind
	Value string
	Line  int

	// Memoized numeric payload, decoded once at construction by NewLit.
	// Known is false for string literals, malformed spellings, and nodes
	// built without NewLit; evaluators then fall back to parsing Value.
	IntVal   int64
	FloatVal float64
	Known    bool
}

func (*BasicLit) node() {}
func (*BasicLit) expr() {}

// IndexExpr is an array element reference a[i] / a[i][j] / a(i,j).
type IndexExpr struct {
	X    Expr
	Idx  []Expr
	Line int
}

func (*IndexExpr) node() {}
func (*IndexExpr) expr() {}

// CallExpr is a call to a builtin, runtime-library, or user procedure.
type CallExpr struct {
	Fun  string
	Args []Expr
	Line int
}

func (*CallExpr) node() {}
func (*CallExpr) expr() {}

// BinaryExpr is a binary operation. Op is one of
// + - * / % == != < <= > >= && || & | ^ << >>.
type BinaryExpr struct {
	Op   string
	Kind OpKind // interned Op; OpInvalid when the node was built by hand
	X, Y Expr
	Line int
}

func (*BinaryExpr) node() {}
func (*BinaryExpr) expr() {}

// UnaryExpr is a unary operation: - ! ~ & (address-of for scalars).
type UnaryExpr struct {
	Op   string
	Kind OpKind // interned Op; OpInvalid when the node was built by hand
	X    Expr
	Line int
}

func (*UnaryExpr) node() {}
func (*UnaryExpr) expr() {}

// CastExpr is a C cast `(type)expr` or `(type*)expr`.
type CastExpr struct {
	To   Type
	X    Expr
	Line int
}

func (*CastExpr) node() {}
func (*CastExpr) expr() {}

// SizeofExpr is `sizeof(type)`.
type SizeofExpr struct {
	Of   Type
	Line int
}

func (*SizeofExpr) node() {}
func (*SizeofExpr) expr() {}

// Walk calls fn for every node in the subtree rooted at n (pre-order),
// descending while fn returns true.
func Walk(n Node, fn func(Node) bool) {
	if n == nil || !fn(n) {
		return
	}
	switch x := n.(type) {
	case *Program:
		for _, f := range x.Funcs {
			Walk(f, fn)
		}
	case *FuncDecl:
		if x.Body != nil {
			Walk(x.Body, fn)
		}
	case *Block:
		for _, s := range x.Stmts {
			Walk(s, fn)
		}
	case *DeclStmt:
		for _, d := range x.Dims {
			Walk(d, fn)
		}
		if x.Init != nil {
			Walk(x.Init, fn)
		}
	case *AssignStmt:
		Walk(x.LHS, fn)
		Walk(x.RHS, fn)
	case *IncDecStmt:
		Walk(x.X, fn)
	case *ExprStmt:
		Walk(x.X, fn)
	case *IfStmt:
		Walk(x.Cond, fn)
		Walk(x.Then, fn)
		if x.Else != nil {
			Walk(x.Else, fn)
		}
	case *ForStmt:
		if x.Init != nil {
			Walk(x.Init, fn)
		}
		if x.Cond != nil {
			Walk(x.Cond, fn)
		}
		if x.Post != nil {
			Walk(x.Post, fn)
		}
		Walk(x.Body, fn)
	case *DoStmt:
		Walk(x.From, fn)
		Walk(x.To, fn)
		if x.Step != nil {
			Walk(x.Step, fn)
		}
		Walk(x.Body, fn)
	case *WhileStmt:
		Walk(x.Cond, fn)
		Walk(x.Body, fn)
	case *ReturnStmt:
		if x.X != nil {
			Walk(x.X, fn)
		}
	case *PragmaStmt:
		if x.Body != nil {
			Walk(x.Body, fn)
		}
	case *IndexExpr:
		Walk(x.X, fn)
		for _, i := range x.Idx {
			Walk(i, fn)
		}
	case *CallExpr:
		for _, a := range x.Args {
			Walk(a, fn)
		}
	case *BinaryExpr:
		Walk(x.X, fn)
		Walk(x.Y, fn)
	case *UnaryExpr:
		Walk(x.X, fn)
	case *CastExpr:
		Walk(x.X, fn)
	}
}

// LineOf returns the source line of a node, or 0 when unknown.
func LineOf(n Node) int {
	switch x := n.(type) {
	case *FuncDecl:
		return x.Line
	case *Block:
		return x.Line
	case *DeclStmt:
		return x.Line
	case *AssignStmt:
		return x.Line
	case *IncDecStmt:
		return x.Line
	case *ExprStmt:
		return x.Line
	case *IfStmt:
		return x.Line
	case *ForStmt:
		return x.Line
	case *DoStmt:
		return x.Line
	case *WhileStmt:
		return x.Line
	case *ReturnStmt:
		return x.Line
	case *PragmaStmt:
		return x.Line
	case *Ident:
		return x.Line
	case *BasicLit:
		return x.Line
	case *IndexExpr:
		return x.Line
	case *CallExpr:
		return x.Line
	case *BinaryExpr:
		return x.Line
	case *UnaryExpr:
		return x.Line
	case *CastExpr:
		return x.Line
	case *SizeofExpr:
		return x.Line
	}
	return 0
}

// ExprString renders an expression in C-like syntax for diagnostics.
func ExprString(e Expr) string {
	switch x := e.(type) {
	case nil:
		return ""
	case *Ident:
		return x.Name
	case *BasicLit:
		if x.Kind == StringLit {
			return fmt.Sprintf("%q", x.Value)
		}
		return x.Value
	case *IndexExpr:
		s := ExprString(x.X)
		for _, i := range x.Idx {
			s += "[" + ExprString(i) + "]"
		}
		return s
	case *CallExpr:
		s := x.Fun + "("
		for i, a := range x.Args {
			if i > 0 {
				s += ", "
			}
			s += ExprString(a)
		}
		return s + ")"
	case *BinaryExpr:
		return "(" + ExprString(x.X) + " " + x.Op + " " + ExprString(x.Y) + ")"
	case *UnaryExpr:
		return x.Op + ExprString(x.X)
	case *CastExpr:
		return "(" + x.To.String() + ")" + ExprString(x.X)
	case *SizeofExpr:
		return "sizeof(" + x.Of.String() + ")"
	}
	return "?"
}
