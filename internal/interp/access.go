package interp

import (
	"accv/internal/ast"
	"accv/internal/mem"
	"accv/internal/rt"
)

// This file holds the access rules every engine applies — the tree-walker,
// the scalar VM (vm.go) and the batch VM (spmd.go) — so one copy decides
// what a name resolves to, which element a subscript reaches, and which
// side of the host/device split may touch it. Each engine supplies its own
// source line and keeps its own order around these calls: check, then
// yield, then load or store.
//
// The element helpers (loadElem, storeElem, augElem, subscript) and the
// arithmetic helper (binInto) at the end serve both VMs: a numeric
// element is read and written through its word, and int and double
// operands take inlined operators. The tree-walker stays on
// Buffer.Load/Store and rt.BinOp, the reference the engine differentials
// hold these paths to.

// resolution is what one name resolves to in a scope.
type resolution struct {
	state uint8
	v     *VarInfo
	val   mem.Value
	// w is the scalar's unboxed word (non-nil only in state resScalar when
	// the element kind is unboxed): the VM's dispatch loop then loads it
	// inline, skipping Buffer.Load's bounds and representation dispatch.
	w *uint64
}

const (
	resUnresolved uint8 = iota
	resScalar           // v: a scalar variable, loaded through its buffer
	resArray            // v: an array; val: its decay to a pointer to its first element
	resConst            // val: a runtime constant
)

// bind resolves to variable v.
func (r *resolution) bind(v *VarInfo) {
	if v.IsArray() {
		*r = resolution{state: resArray, v: v, val: mem.PtrVal(mem.Ptr{Buf: v.Buf, Off: -v.Bias})}
		return
	}
	*r = resolution{state: resScalar, v: v, w: v.Buf.WordAt(0)}
}

// resolveLoad resolves name for a load: a variable, else a runtime
// constant, else an undeclared-variable error.
func (c *execCtx) resolveLoad(r *resolution, name string, line int) error {
	if v, ok := c.env.Lookup(name); ok {
		r.bind(v)
		return nil
	}
	if v, ok := runtimeConstants[name]; ok {
		*r = resolution{state: resConst, val: v}
		return nil
	}
	return rt.Errf(line, "undeclared variable %q", name)
}

// load reads a resolved name. A decayed array escapes: any lane the
// pointer reaches can follow it. A scalar is space-checked and loaded,
// with a scheduler yield between the two when yield is set (batched lanes
// never yield).
func (c *execCtx) load(r *resolution, line int, yield bool) (mem.Value, error) {
	switch r.state {
	case resArray:
		r.v.Buf.Escape()
		return r.val, nil
	case resConst:
		return r.val, nil
	}
	v := r.v
	if err := c.checkSpace(v, line); err != nil {
		return mem.Value{}, err
	}
	if yield {
		c.maybeYield(v.Buf)
	}
	val, err := v.Buf.Load(0)
	if err != nil {
		return mem.Value{}, rt.Errf(line, "%v", err)
	}
	return val, nil
}

// lookupVar resolves name for a store or a subscript: a plain scope
// lookup, which sees neither runtime constants nor device views.
func (c *execCtx) lookupVar(name string, line int) (*VarInfo, error) {
	if v, ok := c.env.Lookup(name); ok {
		return v, nil
	}
	return nil, rt.Errf(line, "undeclared variable %q", name)
}

// checkScalarStore checks that v takes a store without a subscript.
func (c *execCtx) checkScalarStore(v *VarInfo, line int) error {
	if v.IsArray() {
		return rt.Errf(line, "cannot assign to array %q without a subscript", v.Name)
	}
	return c.checkSpace(v, line)
}

// slotCache resolves a lowered body's name slots against the scope it runs
// in, each slot once, for loads (resolveLoad) and for stores and
// subscripts (lookupVar) alike: both find the same variable. The scalar
// VM keeps one per frame, the batch VM one per nest execution.
type slotCache struct {
	names []string
	res   []resolution
}

// reset readies the cache for names with every slot unresolved.
func (s *slotCache) reset(names []string) {
	s.names = names
	s.res = resized(s.res, len(names))
}

// slotVar resolves slot for a store or a subscript.
func (c *execCtx) slotVar(s *slotCache, slot, line int32) (*VarInfo, error) {
	r := &s.res[slot]
	if r.state == resScalar || r.state == resArray {
		return r.v, nil
	}
	v, err := c.lookupVar(s.names[slot], int(line))
	if err != nil {
		return nil, err
	}
	r.bind(v)
	return v, nil
}

// scalarTarget resolves slot for a store without a subscript.
func (c *execCtx) scalarTarget(s *slotCache, slot, line int32) (*VarInfo, error) {
	v, err := c.slotVar(s, slot, line)
	if err != nil {
		return nil, err
	}
	if err := c.checkScalarStore(v, int(line)); err != nil {
		return nil, err
	}
	return v, nil
}

// loadSlot reads slot for a plain load, resolving it on first use.
func (c *execCtx) loadSlot(s *slotCache, slot, line int32, yield bool) (mem.Value, error) {
	r := &s.res[slot]
	if r.state == resUnresolved {
		if err := c.resolveLoad(r, s.names[slot], int(line)); err != nil {
			return mem.Value{}, err
		}
	}
	return c.load(r, int(line), yield)
}

// subscriptSlot resolves slot for n subscripts: slotVar, then
// subscriptBase.
func (c *execCtx) subscriptSlot(s *slotCache, slot, n, line int32) (*VarInfo, *mem.Buffer, int, error) {
	v, err := c.slotVar(s, slot, line)
	if err != nil {
		return nil, nil, 0, err
	}
	buf, off, err := c.subscriptBase(v, int(n), int(line))
	return v, buf, off, err
}

// subscriptBase checks a variable indexed with n subscripts. A pointer
// variable resolves to the buffer and offset it points at, which the one
// subscript then offsets. An array resolves to a nil buffer after the
// space and rank checks; the caller applies rt.VarInfo.Dim per dimension.
func (c *execCtx) subscriptBase(v *VarInfo, n, line int) (*mem.Buffer, int, error) {
	if v.IsPtr && !v.IsArray() {
		pv, err := v.Buf.Load(0)
		if err != nil {
			return nil, 0, rt.Errf(line, "%v", err)
		}
		if pv.K != mem.KPtr || pv.P.IsNil() {
			return nil, 0, rt.Errf(line, "subscript of null pointer %q", v.Name)
		}
		if err := c.checkPointee(pv.P.Buf, n, line); err != nil {
			return nil, 0, err
		}
		return pv.P.Buf, pv.P.Off, nil
	}
	if err := c.checkSpace(v, line); err != nil {
		return nil, 0, err
	}
	if err := v.CheckRank(n); err != nil {
		return nil, 0, rt.Errf(line, "%v", err)
	}
	return nil, 0, nil
}

// checkPointee checks a pointer subscripted with n subscripts: it takes
// exactly one, and its buffer must be dereferenceable here.
func (c *execCtx) checkPointee(buf *mem.Buffer, n, line int) error {
	if n != 1 {
		return rt.Errf(line, "pointer subscript must be one-dimensional")
	}
	return c.checkDeref(buf, line)
}

// checkSpace enforces the host/device memory separation for named accesses.
// Simulated device-library procedures (cuda*) may touch device buffers from
// host code — that is exactly what host_data use_device is for.
func (c *execCtx) checkSpace(v *VarInfo, line int) error {
	if v.Buf.Space == c.space() {
		return nil
	}
	return c.spaceError(v, line)
}

// spaceError is checkSpace's verdict on an access across the split, kept
// out of checkSpace so that the check inlines into every access.
func (c *execCtx) spaceError(v *VarInfo, line int) error {
	if c.kernel != nil {
		return rt.Errf(line, "compute region accesses host variable %q that has no device copy", v.Name)
	}
	if c.cudaLib {
		return nil
	}
	return rt.Errf(line, "host code accesses device-resident variable %q", v.Name)
}

// checkDeref enforces the host/device separation for pointer dereferences.
// Host code may only touch device memory from a simulated device library
// ("cuda*" procedures); device code may never follow host pointers.
func (c *execCtx) checkDeref(buf *mem.Buffer, line int) error {
	if buf == nil {
		return rt.Errf(line, "dereference of null pointer")
	}
	if buf.Space == mem.Device && c.kernel == nil && !c.cudaLib {
		return rt.Errf(line, "segmentation fault: host dereference of device pointer (%s)", buf.Name)
	}
	if buf.Space == mem.Host && c.kernel != nil {
		return rt.Errf(line, "device dereference of host pointer (%s)", buf.Name)
	}
	return nil
}

// loadElem reads element off of buf into dst: through the element's word
// when WordAt finds one, else through Buffer.Load, whose error it raises
// at line. Like Buffer.LoadWordInto, the word path writes only dst's kind
// and payload.
func loadElem(buf *mem.Buffer, off int, dst *mem.Value, line int32) error {
	if w := buf.WordAt(off); w != nil {
		buf.LoadWordInto(w, dst)
		return nil
	}
	v, err := buf.Load(off)
	if err != nil {
		return rt.Errf(int(line), "%v", err)
	}
	*dst = v
	return nil
}

// storeElem writes *v into element off of buf, converted to the element
// kind: through the element's word when WordAt finds one, else through
// Buffer.Store, whose error it raises at line.
func storeElem(buf *mem.Buffer, off int, v *mem.Value, line int32) error {
	if w := buf.WordAt(off); w != nil {
		buf.StoreWord(w, v)
		return nil
	}
	if err := buf.Store(off, *v); err != nil {
		return rt.Errf(int(line), "%v", err)
	}
	return nil
}

// augElem is op= on element off of buf, rhs its right operand: yield,
// load, apply the operator, yield, store, with the yields taken only when
// yield is set (batched lanes never yield).
func (c *execCtx) augElem(buf *mem.Buffer, off int, op ast.OpKind, rhs *mem.Value, line int32, yield bool) error {
	if yield {
		c.maybeYield(buf)
	}
	var v mem.Value
	if err := loadElem(buf, off, &v, line); err != nil {
		return err
	}
	if err := binInto(op, &v, rhs, &v, line); err != nil {
		return err
	}
	if yield {
		c.maybeYield(buf)
	}
	return storeElem(buf, off, &v, line)
}

// subscript is v.AsInt() read in place: an int subscript's payload
// without copying the value.
func subscript(v *mem.Value) int64 {
	if v.K == mem.KInt {
		return v.I
	}
	return v.AsInt()
}

// binInto applies binary operator k to *x and *y and writes the result to
// dst, which may alias either operand. Int and double operands take the
// inlined operators of vmIntBin and vmF64Bin; every other operator, kind
// and error is rt.BinOp's, raised at line.
func binInto(k ast.OpKind, x, y, dst *mem.Value, line int32) error {
	if x.K == mem.KInt && y.K == mem.KInt {
		if vmIntBin(k, x.I, y.I, dst) {
			return nil
		}
	} else if x.K == mem.KF64 && y.K == mem.KF64 {
		if vmF64Bin(k, x.F, y.F, dst) {
			return nil
		}
	}
	v, err := rt.BinOp(k, *x, *y)
	if err != nil {
		return rt.Errf(int(line), "%v", err)
	}
	*dst = v
	return nil
}

// vmIntBin inlines the integer rt.BinOp cases that cannot fail: the
// operators kernel inner loops hit every iteration, with division and
// modulo when the divisor is nonzero. A zero divisor, shifts, power and
// the bitwise operators fall through to rt.BinOp. Results are written
// field-by-field into dst: a scalar is fully described by its kind and
// payload, and partial writes avoid copying the whole Value struct. The
// operands arrive as plain int64s, so dst may alias an operand. Semantics
// match rt.BinOp case for case (MinInt64 / -1 wraps in both).
func vmIntBin(k ast.OpKind, a, b int64, dst *mem.Value) bool {
	switch k {
	case ast.OpAdd:
		dst.K, dst.I = mem.KInt, a+b
	case ast.OpSub:
		dst.K, dst.I = mem.KInt, a-b
	case ast.OpMul:
		dst.K, dst.I = mem.KInt, a*b
	case ast.OpDiv:
		if b == 0 {
			return false
		}
		dst.K, dst.I = mem.KInt, a/b
	case ast.OpRem:
		if b == 0 {
			return false
		}
		dst.K, dst.I = mem.KInt, a%b
	case ast.OpLt:
		dst.K, dst.I = mem.KInt, b2i(a < b)
	case ast.OpLe:
		dst.K, dst.I = mem.KInt, b2i(a <= b)
	case ast.OpGt:
		dst.K, dst.I = mem.KInt, b2i(a > b)
	case ast.OpGe:
		dst.K, dst.I = mem.KInt, b2i(a >= b)
	case ast.OpEq:
		dst.K, dst.I = mem.KInt, b2i(a == b)
	case ast.OpNe:
		dst.K, dst.I = mem.KInt, b2i(a != b)
	default:
		return false
	}
	return true
}

// vmF64Bin is vmIntBin's double-precision sibling (float division cannot
// fail; rt.BinOp yields F64 whenever both operands are F64, and comparisons
// yield the same mem.Bool ints).
func vmF64Bin(k ast.OpKind, a, b float64, dst *mem.Value) bool {
	switch k {
	case ast.OpAdd:
		dst.K, dst.F = mem.KF64, a+b
	case ast.OpSub:
		dst.K, dst.F = mem.KF64, a-b
	case ast.OpMul:
		dst.K, dst.F = mem.KF64, a*b
	case ast.OpDiv:
		dst.K, dst.F = mem.KF64, a/b
	case ast.OpLt:
		dst.K, dst.I = mem.KInt, b2i(a < b)
	case ast.OpLe:
		dst.K, dst.I = mem.KInt, b2i(a <= b)
	case ast.OpGt:
		dst.K, dst.I = mem.KInt, b2i(a > b)
	case ast.OpGe:
		dst.K, dst.I = mem.KInt, b2i(a >= b)
	case ast.OpEq:
		dst.K, dst.I = mem.KInt, b2i(a == b)
	case ast.OpNe:
		dst.K, dst.I = mem.KInt, b2i(a != b)
	default:
		return false
	}
	return true
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
