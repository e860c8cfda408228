package interp

import (
	"accv/internal/mem"
	"accv/internal/rt"
)

// This file holds the access rules every engine applies — the tree-walker,
// the scalar VM (vm.go) and the batch VM (spmd.go) — so one copy decides
// what a name resolves to, which element a subscript reaches, and which
// side of the host/device split may touch it. Each engine supplies its own
// source line and keeps its own order around these calls: check, then
// yield, then load or store.

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
	*r = resolution{state: resScalar, v: v, w: v.Buf.Word0()}
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
