package vendors

import (
	"accv/internal/ast"
	"accv/internal/compiler"
	"accv/internal/directive"
)

// Hook-effect observability predicates. A hook effect flips runtime flags
// in compiler.Hooks; it only changes a program's behavior when the program
// actually exercises the hooked operation (a WaitNoop hook is inert on a
// program that never waits). applyEffect reports a hook effect as
// fired only when a flag it flipped is observable here, keeping sweep
// fingerprints from splitting on hooks the template can never feel. Each
// predicate mirrors the flag's consumption site in internal/interp and
// must err toward true (over-reporting only costs memo sharing).

// hooksObservable reports whether any flag that differs between the two
// hook states is observable by the program.
func hooksObservable(before, after compiler.Hooks, exe *compiler.Executable) bool {
	type check struct {
		flipped bool
		obs     func(*compiler.Executable) bool
	}
	for _, c := range []check{
		{before.AsyncDisabledWithData != after.AsyncDisabledWithData, hasAsyncComputeWithExplicitData},
		{before.AsyncTestStale != after.AsyncTestStale, callsAny("acc_async_test", "acc_async_test_all")},
		{before.SkipScalarCopyOut != after.SkipScalarCopyOut, hasCopyoutAction},
		{before.FirstprivateAsPrivate != after.FirstprivateAsPrivate, hasExplicitFirstprivate},
		{before.UpdateHostNoop != after.UpdateHostNoop, hasUpdateClause(directive.HostClause)},
		{before.UpdateDeviceNoop != after.UpdateDeviceNoop, hasUpdateClause(directive.DeviceClause)},
		{before.HangOnWait != after.HangOnWait, usesWait},
		{before.WaitNoop != after.WaitNoop, usesWait},
		{before.CrashOnCacheDirective != after.CrashOnCacheDirective, hasConstruct(directive.Cache)},
		{before.UseDeviceWrongAddr != after.UseDeviceWrongAddr, hasUseDevice},
		{before.OnDeviceWrong != after.OnDeviceWrong, callsAny("acc_on_device")},
		{before.MallocReturnsNull != after.MallocReturnsNull, callsAny("acc_malloc")},
		{before.InitCrash != after.InitCrash, callsAny("acc_init")},
		{before.SetDeviceNumNoop != after.SetDeviceNumNoop, callsAny("acc_set_device_num")},
		{before.NumDevicesZero != after.NumDevicesZero, callsAny("acc_get_num_devices")},
	} {
		if c.flipped && c.obs(exe) {
			return true
		}
	}
	return false
}

func isCompute(n directive.Name) bool {
	switch n {
	case directive.Parallel, directive.Kernels, directive.ParallelLoop, directive.KernelsLoop:
		return true
	}
	return false
}

// hasAsyncComputeWithExplicitData: AsyncDisabledWithData blocks the async
// launch of compute regions that carry explicit data clauses.
func hasAsyncComputeWithExplicitData(exe *compiler.Executable) bool {
	for _, r := range exe.Regions {
		if !isCompute(r.Construct) || !r.Dir.Has(directive.Async) {
			continue
		}
		for _, a := range r.Data {
			if !a.Implicit {
				return true
			}
		}
	}
	return false
}

// hasCopyoutAction: SkipScalarCopyOut suppresses the copy-back of
// copyout-family mappings (scalar ones; the array check is runtime-side,
// so this predicate over-approximates to any copyout-family action).
func hasCopyoutAction(exe *compiler.Executable) bool {
	for _, r := range exe.Regions {
		for _, a := range r.Data {
			switch a.Kind {
			case directive.Copy, directive.PresentOrCopy,
				directive.Copyout, directive.PresentOrCopyout:
				return true
			}
		}
	}
	return false
}

// hasExplicitFirstprivate: FirstprivateAsPrivate skips only the snapshot
// of explicit firstprivate clauses; implicitly-defaulted scalars keep
// their copies (see Region.FirstImplicit).
func hasExplicitFirstprivate(exe *compiler.Executable) bool {
	for _, r := range exe.Regions {
		if len(r.First) > 0 {
			return true
		}
	}
	return false
}

func hasUpdateClause(k directive.ClauseKind) func(*compiler.Executable) bool {
	return func(exe *compiler.Executable) bool {
		for _, r := range exe.Regions {
			if r.Construct == directive.Update && r.Dir.Has(k) {
				return true
			}
		}
		return false
	}
}

func hasConstruct(n directive.Name) func(*compiler.Executable) bool {
	return func(exe *compiler.Executable) bool {
		for _, r := range exe.Regions {
			if r.Construct == n {
				return true
			}
		}
		return false
	}
}

func hasUseDevice(exe *compiler.Executable) bool {
	for _, r := range exe.Regions {
		if len(r.UseDevice) > 0 {
			return true
		}
	}
	return false
}

// usesWait: HangOnWait/WaitNoop intercept the wait directive and the
// acc_async_wait / acc_async_wait_all routines.
func usesWait(exe *compiler.Executable) bool {
	if hasConstruct(directive.Wait)(exe) {
		return true
	}
	return callsAny("acc_async_wait", "acc_async_wait_all")(exe)
}

// callsAny reports whether the program calls one of the named routines.
func callsAny(names ...string) func(*compiler.Executable) bool {
	return func(exe *compiler.Executable) bool {
		found := false
		ast.Walk(exe.Prog, func(n ast.Node) bool {
			if found {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok {
				for _, name := range names {
					if call.Fun == name {
						found = true
					}
				}
			}
			return true
		})
		return found
	}
}
