// Package rt holds the runtime substrate shared by the tree-walking
// interpreter and the bytecode VM: variable bindings, lexical scopes, the
// subscript bounds rule, the operator kernels, and the runtime error type.
// Keeping one implementation here is what lets the engines produce
// bit-identical results — none carries a private copy of the arithmetic,
// scoping or bounds rules.
package rt

import (
	"fmt"

	"accv/internal/ast"
	"accv/internal/mem"
)

// VarInfo binds a variable name to its backing buffer. Scalars are length-1
// buffers so that data clauses, update directives, and firstprivate copies
// treat scalars and arrays uniformly; pointer variables hold a mem.Ptr in
// element 0.
type VarInfo struct {
	Name  string
	Kind  mem.Kind
	Buf   *mem.Buffer
	Dims  []int // empty for scalars
	Lower []int // per-dimension lower bound (0 for C, 1 for Fortran)
	IsPtr bool
	// Bias is subtracted from the flattened element index before indexing
	// Buf; device mirrors of array sections a[lo:len] set Bias=lo so kernel
	// code can keep using original subscripts.
	Bias int
}

// IsArray reports whether the variable has array shape.
func (v *VarInfo) IsArray() bool { return len(v.Dims) > 0 }

// Total returns the flattened element count.
func (v *VarInfo) Total() int {
	if len(v.Dims) == 0 {
		return 1
	}
	n := 1
	for _, d := range v.Dims {
		n *= d
	}
	return n
}

// FlatIndex flattens a multi-dimensional subscript (row-major) and checks
// bounds against the declared shape. A pointer variable's subscript is the
// engines' to resolve: it names the pointee, not v.
func (v *VarInfo) FlatIndex(idx []int64) (int, error) {
	if err := v.CheckRank(len(idx)); err != nil {
		return 0, err
	}
	flat := 0
	for d, i := range idx {
		var ok bool
		if flat, ok = v.Dim(flat, d, i); !ok {
			return 0, v.DimError(d, i)
		}
	}
	return flat, nil
}

// CheckRank reports an error unless n subscripts index v, one per
// dimension.
func (v *VarInfo) CheckRank(n int) error {
	if n != len(v.Dims) {
		return fmt.Errorf("%s has %d dimensions, indexed with %d subscripts", v.Name, len(v.Dims), n)
	}
	return nil
}

// Dim is one step of FlatIndex, the bounds rule every engine applies: it
// folds subscript i of dimension d into the row-major offset flat, or
// reports false when i lies outside the dimension (DimError says how).
func (v *VarInfo) Dim(flat, d int, i int64) (int, bool) {
	rel := int(i) - v.LowerBound(d)
	if rel < 0 || rel >= v.Dims[d] {
		return 0, false
	}
	return flat*v.Dims[d] + rel, true
}

// DimError is the error for subscript i outside dimension d.
func (v *VarInfo) DimError(d int, i int64) error {
	lo := v.LowerBound(d)
	return fmt.Errorf("index %d out of range [%d,%d) in dimension %d of %s", i, lo, lo+v.Dims[d], d+1, v.Name)
}

// LowerBound is dimension d's lower bound (0 when none is recorded).
func (v *VarInfo) LowerBound(d int) int {
	if d < len(v.Lower) {
		return v.Lower[d]
	}
	return 0
}

// Env is a lexical scope chain.
type Env struct {
	Parent *Env
	vars   map[string]*VarInfo
	// DeviceViews maps names bound by host_data use_device to device
	// pointers for the duration of the construct.
	DeviceViews map[string]mem.Ptr
	// cleanup runs when the owning frame exits (declare-directive unmaps).
	cleanup []func() error

	// VMFrame caches the bytecode frame most recently activated on this
	// scope, keyed by the frame's Proc (a one-slot cache owned by
	// internal/bytecode; nil until the VM first runs on this env).
	VMFrame any
}

// NewEnv creates a child scope. The variable map is allocated on first
// Bind: both engines create scopes far more often than they declare into
// them (every block execution, every region activation), and a nil map
// reads as empty in Lookup.
func NewEnv(parent *Env) *Env {
	return &Env{Parent: parent}
}

// Bind installs a variable in this scope.
func (e *Env) Bind(v *VarInfo) {
	if e.vars == nil {
		e.vars = make(map[string]*VarInfo, 4)
	}
	e.vars[v.Name] = v
}

// Lookup resolves a name through the scope chain.
func (e *Env) Lookup(name string) (*VarInfo, bool) {
	for s := e; s != nil; s = s.Parent {
		if v, ok := s.vars[name]; ok {
			return v, true
		}
	}
	return nil, false
}

// DeviceView resolves a host_data use_device binding.
func (e *Env) DeviceView(name string) (mem.Ptr, bool) {
	for s := e; s != nil; s = s.Parent {
		if s.DeviceViews != nil {
			if p, ok := s.DeviceViews[name]; ok {
				return p, true
			}
		}
	}
	return mem.Ptr{}, false
}

// HasDeviceViews reports whether any scope on the chain carries host_data
// use_device bindings (the VM falls back to named resolution when so).
func (e *Env) HasDeviceViews() bool {
	for s := e; s != nil; s = s.Parent {
		if len(s.DeviceViews) > 0 {
			return true
		}
	}
	return false
}

// AddCleanup registers a frame-exit action on this scope.
func (e *Env) AddCleanup(f func() error) { e.cleanup = append(e.cleanup, f) }

// RunCleanup executes registered cleanups in reverse order.
func (e *Env) RunCleanup() error {
	var first error
	for i := len(e.cleanup) - 1; i >= 0; i-- {
		if err := e.cleanup[i](); err != nil && first == nil {
			first = err
		}
	}
	e.cleanup = nil
	return first
}

// BasicKind maps declared types to element kinds.
func BasicKind(t ast.Type) mem.Kind {
	if t.Ptr {
		return mem.KPtr
	}
	switch t.Base {
	case ast.Float:
		return mem.KF32
	case ast.Double:
		return mem.KF64
	default:
		return mem.KInt
	}
}

// NewScalar allocates a zeroed scalar variable in the given space.
func NewScalar(name string, kind mem.Kind, space mem.Space) *VarInfo {
	return &VarInfo{Name: name, Kind: kind, Buf: mem.NewBuffer(kind, 1, space, name), IsPtr: kind == mem.KPtr}
}
