package interp

import (
	"fmt"
	"runtime"

	"accv/internal/ast"
	"accv/internal/compiler"
	"accv/internal/device"
	"accv/internal/directive"
	"accv/internal/mem"
)

// kernelState is the per-lane identity inside a compute region.
type kernelState struct {
	gang, gangs     int
	worker, workers int
	vlen            int
	kernelsMode     bool
	// banked records a yield drawn at memory the lane's group owns and
	// not yet taken; see draw.
	banked bool
	lane   mem.Lane // the group this lane starts, if it starts one
	rng    uint64
	ops    opCounter
	// group is the lane group the lane belongs to, and the owner of the
	// memory it creates. A lane on a goroutine of its own starts a group,
	// pointing group at its own lane field; a lane run inline on its
	// parent's goroutine keeps the parent's.
	group *mem.Lane
	// raceGang is the gang instance's unique id under -race-check; zero
	// when the tracker is off. Gang instances of one launch race freely.
	raceGang int64
}

// newLane readies k, a copy of its parent's state, as a new lane: nothing
// banked, no ops counted, and its own group when it runs concurrently
// with its siblings.
func (k *kernelState) newLane(concurrent bool) {
	k.banked = false
	k.ops = opCounter{}
	if concurrent {
		k.group = &k.lane
	}
}

// maybeYield is a scheduler yield point at an access to b: it calls
// runtime.Gosched when draw says to, so racing lanes interleave
// differently from run to run.
func (k *kernelState) maybeYield(b *mem.Buffer) {
	if k.draw(b) {
		runtime.Gosched()
	}
}

// draw advances the lane's xorshift stream, one step per access, and
// reports whether the lane should yield before accessing b. A draw hits
// with probability 1/8. A hit at memory the lane's group owns is banked,
// not taken: no lane that can run meanwhile can reach that memory, so a
// switch there shows nothing another lane can see. The lane yields at its
// next access to memory other lanes can reach, once, if a hit is banked or
// drawn there. So between two such accesses with m owned accesses in
// between, a switch happens with probability 1 − (7/8)^(m+1), as when every
// hit yielded.
func (k *kernelState) draw(b *mem.Buffer) bool {
	k.rng = k.rng*6364136223846793005 + 1442695040888963407
	hit := (k.rng>>33)&7 == 0
	if b.Owner.Load() == k.group {
		k.banked = k.banked || hit
		return false
	}
	hit = hit || k.banked
	k.banked = false
	return hit
}

// execPragma executes a directive statement in the current context.
func (c *execCtx) execPragma(p *ast.PragmaStmt) error {
	exe := c.in.exe
	if r, ok := exe.Regions[p]; ok {
		switch r.Construct {
		case directive.Parallel, directive.Kernels,
			directive.ParallelLoop, directive.KernelsLoop:
			return c.execCompute(p, r)
		case directive.Data:
			return c.execDataRegion(p, r)
		case directive.HostData:
			return c.execHostData(p, r)
		case directive.Update:
			return c.execUpdate(r)
		case directive.Wait:
			return c.execWait(r)
		case directive.Declare:
			return c.execDeclare(r)
		case directive.Cache:
			if c.in.hooks().CrashOnCacheDirective {
				return errf(p, "internal compiler error: cache directive lowering failed (injected crash)")
			}
			return nil // cache is a performance hint
		case directive.EnterData:
			return c.execEnterData(r)
		case directive.ExitData:
			return c.execExitData(r)
		case directive.Routine:
			return nil
		}
		return errf(p, "unsupported construct %s", r.Construct)
	}
	if plan, ok := exe.Loops[p]; ok {
		return c.execLoop(p, plan)
	}
	return errf(p, "pragma was not lowered (missing plan)")
}

// dataEntry is one resolved data action of a region.
type dataEntry struct {
	action      compiler.DataAction
	host        *VarInfo
	off         int
	length      int
	copyin      bool
	copyout     bool
	needPresent bool
	isDeviceptr bool
	devPtr      mem.Ptr
	mapping     *device.DataMapping
}

// regionData is the resolved data environment of a region instance.
type regionData struct {
	entries []*dataEntry
}

// resolveSection flattens a clause var-ref section against the variable's
// declared shape. Only the leading dimension may be sectioned; trailing
// sections must cover their whole dimension.
func (c *execCtx) resolveSection(v *VarInfo, ref directive.VarRef, line int) (off, length int, err error) {
	if len(ref.Sections) == 0 {
		return 0, v.Total(), nil
	}
	if !v.IsArray() && !v.IsPtr {
		return 0, 0, &RuntimeError{Line: line, Msg: fmt.Sprintf("section on scalar %q", ref.Name)}
	}
	rowStride := 1
	for _, d := range v.Dims[1:] {
		rowStride *= d
	}
	sec := ref.Sections[0]
	lower := v.LowerBound(0)
	lo := int64(lower)
	if sec.Lo != nil {
		lv, err := c.eval(sec.Lo)
		if err != nil {
			return 0, 0, err
		}
		lo = lv.AsInt()
	}
	dim0 := v.Total() / max(rowStride, 1)
	if len(v.Dims) > 0 {
		dim0 = v.Dims[0]
	}
	var count int64
	switch {
	case sec.Hi == nil:
		count = int64(dim0) - (lo - int64(lower))
	case sec.LenIsCount: // C: a[lo:len]
		hv, err := c.eval(sec.Hi)
		if err != nil {
			return 0, 0, err
		}
		count = hv.AsInt()
	default: // Fortran: a(lo:hi) inclusive
		hv, err := c.eval(sec.Hi)
		if err != nil {
			return 0, 0, err
		}
		count = hv.AsInt() - lo + 1
	}
	if count < 0 {
		return 0, 0, &RuntimeError{Line: line, Msg: fmt.Sprintf("negative section length for %q", ref.Name)}
	}
	// Verify trailing sections cover whole dimensions.
	for d := 1; d < len(ref.Sections) && d < len(v.Dims); d++ {
		s := ref.Sections[d]
		if s.Lo != nil || s.Hi != nil {
			full := false
			if s.Lo != nil && s.Hi != nil {
				lv, err1 := c.eval(s.Lo)
				hv, err2 := c.eval(s.Hi)
				if err1 == nil && err2 == nil {
					dlo := v.LowerBound(d)
					n := hv.AsInt()
					if !s.LenIsCount {
						n = n - lv.AsInt() + 1
					}
					full = int(lv.AsInt()) == dlo && int(n) == v.Dims[d]
				}
			}
			if !full {
				return 0, 0, &RuntimeError{Line: line, Msg: fmt.Sprintf("non-contiguous section on %q: only the leading dimension may be partial", ref.Name)}
			}
		}
	}
	start := (int(lo) - lower) * rowStride
	return start, int(count) * rowStride, nil
}

// prepareRegionData resolves every data action against the host environment.
// Section bounds and firstprivate snapshots are captured eagerly, so async
// regions see entry-time values.
func (c *execCtx) prepareRegionData(r *compiler.Region, line int) (*regionData, error) {
	rd := &regionData{}
	for _, a := range r.Data {
		e := &dataEntry{action: a}
		v, ok := c.env.Lookup(a.Var.Name)
		if !ok {
			return nil, &RuntimeError{Line: line, Msg: fmt.Sprintf("undeclared variable %q in data clause", a.Var.Name)}
		}
		e.host = v
		if a.Kind == directive.Deviceptr {
			pv, err := v.Buf.Load(0)
			if err != nil {
				return nil, err
			}
			if pv.K != mem.KPtr || pv.P.IsNil() {
				return nil, &RuntimeError{Line: line, Msg: fmt.Sprintf("deviceptr %q does not hold a device pointer", a.Var.Name)}
			}
			if pv.P.Buf.Space != mem.Device {
				return nil, &RuntimeError{Line: line, Msg: fmt.Sprintf("deviceptr %q points to host memory", a.Var.Name)}
			}
			e.isDeviceptr = true
			e.devPtr = pv.P
			rd.entries = append(rd.entries, e)
			continue
		}
		off, length, err := c.resolveSection(v, a.Var, line)
		if err != nil {
			return nil, err
		}
		e.off, e.length = off, length
		switch a.Kind {
		case directive.Copy, directive.PresentOrCopy:
			e.copyin, e.copyout = true, true
		case directive.Copyin, directive.PresentOrCopyin:
			e.copyin = true
		case directive.Copyout, directive.PresentOrCopyout:
			e.copyout = true
		case directive.Create, directive.PresentOrCreate:
		case directive.Present:
			e.needPresent = true
		}
		if (r.SkipDataKind != nil && r.SkipDataKind[a.Kind]) ||
			(r.SkipDataExplicit != nil && r.SkipDataExplicit[a.Kind] && !a.Implicit) {
			// Miscompiled data clause: the mapping is still created (so the
			// kernel runs) but no transfer happens — the silent wrong-code
			// failure mode the paper highlights.
			e.copyin, e.copyout, e.needPresent = false, false, false
		}
		rd.entries = append(rd.entries, e)
	}
	return rd, nil
}

// enter performs the data-entry half of the region on the device.
func (rd *regionData) enter(dev *device.Device) error {
	for _, e := range rd.entries {
		if e.isDeviceptr {
			continue
		}
		if e.needPresent {
			m := dev.Lookup(e.host.Buf, e.off, e.length)
			if m == nil {
				return &device.NotPresentError{Var: e.host.Name}
			}
			dev.Retain(m)
			e.mapping = m
			continue
		}
		m, _, err := dev.MapIn(e.host.Buf, e.off, e.length, e.copyin)
		if err != nil {
			return err
		}
		e.mapping = m
	}
	return nil
}

// exit performs the data-exit half: copyout policies and unmapping.
func (rd *regionData) exit(dev *device.Device, hooks compiler.Hooks) error {
	var first error
	for i := len(rd.entries) - 1; i >= 0; i-- {
		e := rd.entries[i]
		if e.isDeviceptr || e.mapping == nil {
			continue
		}
		out := e.copyout
		if out && hooks.SkipScalarCopyOut && !e.host.IsArray() {
			// Cray §V-B: scalar variables in copy clauses are not copied
			// back to the host.
			out = false
		}
		if err := dev.Unmap(e.mapping, out); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// buildEnv constructs the device-side environment of the region.
func (rd *regionData) buildEnv() *Env {
	env := NewEnv(nil)
	for _, e := range rd.entries {
		if e.isDeviceptr {
			v := &VarInfo{Name: e.host.Name, Kind: mem.KPtr, IsPtr: true,
				Buf: mem.NewBuffer(mem.KPtr, 1, mem.Device, e.host.Name)}
			_ = v.Buf.Store(0, mem.PtrVal(e.devPtr))
			env.Bind(v)
			continue
		}
		env.Bind(&VarInfo{
			Name: e.host.Name, Kind: e.host.Kind, Buf: e.mapping.Dev,
			Dims: e.host.Dims, Lower: e.host.Lower, Bias: e.off, IsPtr: e.host.IsPtr,
		})
	}
	return env
}

// ifClauseTrue evaluates a directive's if clause; it is true when
// execution should proceed on the device.
func (c *execCtx) ifClauseTrue(r *compiler.Region) (bool, error) {
	cl := r.Dir.Get(directive.If)
	if cl == nil || r.DropIf {
		return true, nil
	}
	v, err := c.eval(cl.Arg)
	if err != nil {
		return false, err
	}
	return v.Truth(), nil
}

// launchDim evaluates a launch-configuration clause with a default.
func (c *execCtx) launchDim(dir *directive.Directive, k directive.ClauseKind, def int) (int, error) {
	cl := dir.Get(k)
	if cl == nil || cl.Arg == nil {
		return def, nil
	}
	v, err := c.eval(cl.Arg)
	if err != nil {
		return 0, err
	}
	n := int(v.AsInt())
	if n < 1 {
		return 0, errf(nil, "%s must be positive, got %d", k, n)
	}
	return n, nil
}

// execCompute runs a parallel or kernels construct (including the combined
// forms).
func (c *execCtx) execCompute(p *ast.PragmaStmt, r *compiler.Region) error {
	if r.Deleted {
		// Cray dead-region elimination: the whole construct — including its
		// data movement — was removed at compile time (Fig. 11).
		return nil
	}
	if c.kernel != nil {
		return errf(p, "nested compute constructs are not supported")
	}
	hooks := c.in.hooks()
	dev := c.in.plat.Current()
	dir := r.Dir

	ok, err := c.ifClauseTrue(r)
	if err != nil {
		return err
	}
	if !ok || c.in.plat.HostMode() {
		// The if clause is false (or the host device is selected): the
		// region executes on the host, against host memory — the staleness
		// the Fig. 5 test checks for.
		hc := c.child()
		hc.hostFallback = true
		_, err := hc.exec(p.Body)
		return err
	}

	cfg := dev.Cfg
	gangs := cfg.DefaultGangs
	if !r.DropClause[directive.NumGangs] {
		gangs, err = c.launchDim(dir, directive.NumGangs, cfg.DefaultGangs)
		if err != nil {
			return err
		}
	}
	workers := cfg.DefaultWorkers
	if !r.DropClause[directive.NumWorkers] {
		workers, err = c.launchDim(dir, directive.NumWorkers, cfg.DefaultWorkers)
		if err != nil {
			return err
		}
	}
	vlen := cfg.DefaultVectorLen
	if !hooks.IgnoreVectorLength && !r.DropClause[directive.VectorLength] {
		vlen, err = c.launchDim(dir, directive.VectorLength, cfg.DefaultVectorLen)
		if err != nil {
			return err
		}
	}
	if cfg.Mapping == device.MapGangBlockVectorThread {
		// PGI mapping ignores the worker level entirely (§II).
		workers = 1
	}
	if workers > cfg.Backend.WorkerLimit {
		workers = cfg.Backend.WorkerLimit
	}
	if vlen > cfg.Backend.VectorLimit {
		vlen = cfg.Backend.VectorLimit
	}

	// Async configuration. A launch the PGI async bug blocks runs
	// synchronously and never evaluates its tag.
	var q *device.Queue
	if !hooks.AsyncDisabledWithData || !hasExplicitData(r) {
		if q, err = c.asyncQueue(r); err != nil {
			return err
		}
	}

	rd, err := c.prepareRegionData(r, dir.Line)
	if err != nil {
		return err
	}

	// Snapshot firstprivate and region-reduction initial values now.
	type privSpec struct {
		v        *VarInfo
		snapshot []mem.Value // nil for private (garbage init)
	}
	var firsts, privs []privSpec
	for _, ref := range r.First {
		v, ok := c.env.Lookup(ref.Name)
		if !ok {
			return errf(p, "undeclared firstprivate variable %q", ref.Name)
		}
		spec := privSpec{v: v}
		if !hooks.FirstprivateAsPrivate {
			spec.snapshot = v.Buf.Snapshot()
		}
		firsts = append(firsts, spec)
	}
	for _, ref := range r.FirstImplicit {
		v, ok := c.env.Lookup(ref.Name)
		if !ok {
			return errf(p, "undeclared variable %q", ref.Name)
		}
		firsts = append(firsts, privSpec{v: v, snapshot: v.Buf.Snapshot()})
	}
	for _, ref := range r.Private {
		v, ok := c.env.Lookup(ref.Name)
		if !ok {
			return errf(p, "undeclared private variable %q", ref.Name)
		}
		privs = append(privs, privSpec{v: v})
	}
	type redSpec struct {
		op   string
		v    *VarInfo
		init mem.Value
	}
	var reds []redSpec
	for _, red := range r.Reduction {
		for _, ref := range red.Vars {
			v, ok := c.env.Lookup(ref.Name)
			if !ok {
				return errf(p, "undeclared reduction variable %q", ref.Name)
			}
			if v.IsArray() {
				return errf(p, "reduction variable %q must be scalar", ref.Name)
			}
			init, err := v.Buf.Load(0)
			if err != nil {
				return err
			}
			reds = append(reds, redSpec{op: red.Op, v: v, init: init})
		}
	}

	kernelsMode := r.Construct == directive.Kernels || r.Construct == directive.KernelsLoop
	combinedPlan := c.in.exe.Loops[p] // non-nil for combined constructs
	body := p.Body
	seed := c.in.seed
	exe := c.in.exe
	in := c.in

	op := func() error {
		if err := rd.enter(dev); err != nil {
			return err
		}
		regionEnv := rd.buildEnv()

		// Per-gang private/firstprivate/reduction copies, owned by their
		// gang's lane group. The SharePrivates miscompilation hands every
		// gang the same copy, owned by none, racing exactly as the
		// private-clause cross test expects a broken compiler to.
		var shared []*VarInfo
		if r.SharePrivates {
			for _, spec := range privs {
				shared = append(shared, makePrivate(spec.v, nil, seed))
			}
		}
		gangPriv := make([][]*VarInfo, gangs)
		gangRed := make([][]*VarInfo, gangs)
		for g := 0; g < gangs; g++ {
			if r.SharePrivates {
				gangPriv[g] = append(gangPriv[g], shared...)
			} else {
				for _, spec := range privs {
					gangPriv[g] = append(gangPriv[g], makePrivate(spec.v, nil, seed+int64(g)))
				}
			}
			for _, spec := range firsts {
				gangPriv[g] = append(gangPriv[g], makePrivate(spec.v, spec.snapshot, seed+int64(g)))
			}
			for _, spec := range reds {
				gangRed[g] = append(gangRed[g], newAccumulator(spec.v, spec.op))
			}
		}

		launchGangs := gangs
		if kernelsMode {
			// A kernels region is a single logical thread: gang 0 walks the
			// body, and annotated loops fan out to gangs internally.
			launchGangs = 1
		}
		gangFn := func(g int) (int64, error) {
			k := &kernelState{
				gang: g, gangs: gangs, workers: workers, vlen: vlen,
				kernelsMode: kernelsMode,
				rng:         uint64(seed)*0x9e3779b97f4a7c15 + uint64(g+1)*0xbf58476d1ce4e5b9,
			}
			k.group = &k.lane
			if in.rc != nil {
				k.raceGang = in.rc.id()
			}
			genv := NewEnv(regionEnv)
			for i, pv := range gangPriv[g] {
				if i >= len(shared) {
					pv.Buf.Owner.Store(k.group)
				}
				genv.Bind(pv)
			}
			for _, pv := range gangRed[g] {
				pv.Buf.Owner.Store(k.group)
				genv.Bind(pv)
			}
			kc := &execCtx{in: in, env: genv, kernel: k}
			var err error
			if combinedPlan != nil {
				err = kc.execLoop(p, combinedPlan)
			} else {
				_, err = kc.exec(body)
			}
			if err == nil {
				k.ops.flush(in)
			}
			return k.ops.n, err
		}

		var maxOps int64
		kerr := dev.Launch(launchGangs)
		if kerr == nil {
			if in.rc != nil {
				in.rc.barrier() // launch edge: host work cannot race the kernel
			}
			maxOps, kerr = runLanes(launchGangs, gangFn)
			if in.rc != nil {
				in.rc.barrier() // join edge: later regions are ordered after this one
			}
		}

		dev.AddCycles(int64(float64(maxOps) * dev.Cfg.Backend.CycleScale))

		// Region-level reduction combine: initial value op all gang partials,
		// written back to the host variable.
		if kerr == nil {
			for i, spec := range reds {
				acc := spec.init
				for g := 0; g < gangs; g++ {
					part, err := gangRed[g][i].Buf.Load(0)
					if err != nil {
						return err
					}
					acc, err = combineReduction(spec.op, acc, part)
					if err != nil {
						return err
					}
				}
				if err := spec.v.Buf.Store(0, acc); err != nil {
					return err
				}
			}
		}

		if err := rd.exit(dev, exe.Hooks); err != nil && kerr == nil {
			kerr = err
		}
		return kerr
	}

	if q != nil {
		q.Enqueue(op)
		return nil
	}
	return op()
}

// hasExplicitData reports whether the construct spells a data clause in
// the source (the PGI async bug triggers only when the compute construct
// itself carries data clauses).
func hasExplicitData(r *compiler.Region) bool {
	for _, a := range r.Data {
		if !a.Implicit {
			return true
		}
	}
	return false
}

// makePrivate builds a private copy of a variable: garbage-initialized, or
// copied from the snapshot for firstprivate.
func makePrivate(v *VarInfo, snapshot []mem.Value, seed int64) *VarInfo {
	n := v.Total()
	var buf *mem.Buffer
	if snapshot == nil {
		buf = mem.NewGarbageBuffer(v.Kind, n, mem.Device, v.Name, seed^0x7f4a7c15)
	} else {
		buf = mem.NewBuffer(v.Kind, n, mem.Device, v.Name)
		for i, val := range snapshot {
			_ = buf.Store(i, val)
		}
	}
	return &VarInfo{Name: v.Name, Kind: v.Kind, Buf: buf, Dims: v.Dims, Lower: v.Lower, IsPtr: v.IsPtr}
}

// execDataRegion runs a structured data construct.
func (c *execCtx) execDataRegion(p *ast.PragmaStmt, r *compiler.Region) error {
	ok, err := c.ifClauseTrue(r)
	if err != nil {
		return err
	}
	if !ok {
		_, err := c.exec(p.Body)
		return err
	}
	dev := c.in.plat.Current()
	rd, err := c.prepareRegionData(r, r.Dir.Line)
	if err != nil {
		return err
	}
	if err := rd.enter(dev); err != nil {
		return err
	}
	_, bodyErr := c.exec(p.Body)
	if err := rd.exit(dev, c.in.hooks()); err != nil && bodyErr == nil {
		bodyErr = err
	}
	return bodyErr
}

// execHostData binds device addresses of present data for the body.
func (c *execCtx) execHostData(p *ast.PragmaStmt, r *compiler.Region) error {
	dev := c.in.plat.Current()
	cc := c.child()
	cc.env.DeviceViews = map[string]mem.Ptr{}
	for _, ref := range r.UseDevice {
		v, ok := c.env.Lookup(ref.Name)
		if !ok {
			return errf(p, "undeclared use_device variable %q", ref.Name)
		}
		m := dev.Lookup(v.Buf, 0, v.Total())
		if m == nil {
			return &device.NotPresentError{Var: ref.Name}
		}
		if c.in.hooks().UseDeviceWrongAddr {
			// Miscompilation: the host address leaks through use_device, so
			// "device" computations never touch the device copy.
			cc.env.DeviceViews[ref.Name] = mem.Ptr{Buf: v.Buf}
			continue
		}
		cc.env.DeviceViews[ref.Name] = m.DevPtr(0)
	}
	_, err := cc.exec(p.Body)
	return err
}

// execUpdate runs the update directive.
func (c *execCtx) execUpdate(r *compiler.Region) error {
	ok, err := c.ifClauseTrue(r)
	if err != nil {
		return err
	}
	if !ok {
		return nil
	}
	hooks := c.in.hooks()
	dev := c.in.plat.Current()
	type xfer struct {
		toHost bool
		buf    *mem.Buffer
		off, n int
	}
	var xfers []xfer
	for _, cl := range r.Dir.Clauses {
		var toHost bool
		switch cl.Kind {
		case directive.HostClause:
			toHost = true
		case directive.DeviceClause:
			toHost = false
		default:
			continue
		}
		for _, ref := range cl.Vars {
			v, ok := c.env.Lookup(ref.Name)
			if !ok {
				return &RuntimeError{Line: r.Dir.Line, Msg: fmt.Sprintf("undeclared variable %q in update", ref.Name)}
			}
			off, n, err := c.resolveSection(v, ref, r.Dir.Line)
			if err != nil {
				return err
			}
			xfers = append(xfers, xfer{toHost: toHost, buf: v.Buf, off: off, n: n})
		}
	}
	run := func() error {
		for _, x := range xfers {
			if x.toHost {
				if hooks.UpdateHostNoop {
					continue
				}
				if err := dev.UpdateHost(x.buf, x.off, x.n); err != nil {
					return err
				}
			} else {
				if hooks.UpdateDeviceNoop {
					continue
				}
				if err := dev.UpdateDevice(x.buf, x.off, x.n); err != nil {
					return err
				}
			}
		}
		return nil
	}
	q, err := c.asyncQueue(r)
	if err != nil {
		return err
	}
	if q != nil {
		q.Enqueue(run)
		return nil
	}
	return run()
}

// asyncQueue evaluates a directive's async clause and returns the queue it
// names, or nil when the directive runs synchronously.
func (c *execCtx) asyncQueue(r *compiler.Region) (*device.Queue, error) {
	cl := r.Dir.Get(directive.Async)
	if cl == nil || r.ForceSync {
		return nil, nil
	}
	tag := int64(-1)
	if cl.Arg != nil {
		v, err := c.eval(cl.Arg)
		if err != nil {
			return nil, err
		}
		tag = v.AsInt()
	}
	return c.in.plat.Current().Queue(tag), nil
}

// execWait runs the wait directive.
func (c *execCtx) execWait(r *compiler.Region) error {
	if len(r.Dir.WaitArgs) == 0 {
		if c.in.hooks().HangOnWait {
			return c.spinForever()
		}
		return c.in.plat.Current().WaitAll()
	}
	for _, e := range r.Dir.WaitArgs {
		v, err := c.eval(e)
		if err != nil {
			return err
		}
		if err := c.waitQueue(v.AsInt()); err != nil {
			return err
		}
	}
	return nil
}

// execDeclare enters declare-directive data for the rest of the function.
func (c *execCtx) execDeclare(r *compiler.Region) error {
	if r.Deleted {
		return nil // miscompilation: the declare mapping is never made
	}
	dev := c.in.plat.Current()
	rd, err := c.prepareRegionData(r, r.Dir.Line)
	if err != nil {
		return err
	}
	if err := rd.enter(dev); err != nil {
		return err
	}
	root := c.env
	for root.Parent != nil {
		root = root.Parent
	}
	hooks := c.in.hooks()
	root.AddCleanup(func() error { return rd.exit(dev, hooks) })
	return nil
}

// execEnterData implements the OpenACC 2.0 enter data directive.
func (c *execCtx) execEnterData(r *compiler.Region) error {
	ok, err := c.ifClauseTrue(r)
	if err != nil {
		return err
	}
	if !ok {
		return nil
	}
	rd, err := c.prepareRegionData(r, r.Dir.Line)
	if err != nil {
		return err
	}
	return rd.enter(c.in.plat.Current())
}

// execExitData implements the OpenACC 2.0 exit data directive.
func (c *execCtx) execExitData(r *compiler.Region) error {
	ok, err := c.ifClauseTrue(r)
	if err != nil {
		return err
	}
	if !ok {
		return nil
	}
	dev := c.in.plat.Current()
	for _, a := range r.Data {
		v, ok := c.env.Lookup(a.Var.Name)
		if !ok {
			return &RuntimeError{Line: r.Dir.Line, Msg: fmt.Sprintf("undeclared variable %q in exit data", a.Var.Name)}
		}
		off, n, err := c.resolveSection(v, a.Var, r.Dir.Line)
		if err != nil {
			return err
		}
		m := dev.Lookup(v.Buf, off, n)
		if m == nil {
			return &device.NotPresentError{Var: a.Var.Name}
		}
		if err := dev.Unmap(m, a.Kind == directive.Copyout); err != nil {
			return err
		}
	}
	return nil
}
