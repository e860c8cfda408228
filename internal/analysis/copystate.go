package analysis

// The copy-state pass: an abstract interpretation of host/device memory
// coherence over the CFG. Every variable carries a lattice value describing
// the relationship between its host copy and its (possible) device copy;
// a forward worklist fixpoint propagates states through branches and loops,
// then a final walk emits findings. Joins that disagree collapse to
// stUnknown, which never produces a finding — the zero-false-positive rule.

import (
	"fmt"

	"accv/internal/ast"
	"accv/internal/directive"
)

// copyState is the per-variable coherence lattice.
type copyState uint8

const (
	stUnmapped  copyState = iota // no device copy; host data current
	stSynced                     // mapped; host and device agree
	stDevUninit                  // mapped; device copy never initialized
	stHostAhead                  // mapped; host modified since last sync
	stDevAhead                   // mapped; device modified; host copy stale
	stLost                       // device-modified data discarded at unmap; host stale
	stUnknown                    // conflicting paths or untrackable
)

// varState is the abstract state of one variable.
type varState struct {
	st    copyState
	owner int                  // nesting depth that mapped it; -1 when unmapped, 0 persistent
	kind  directive.ClauseKind // mapping clause kind (decides copy-back at exit)
	pend  bool                 // an async transfer of this variable is in flight
	queue int64                // queue of the pending transfer
}

var noState = varState{st: stUnmapped, owner: -1}

// stateMap maps variable names to abstract states. Missing keys mean
// noState.
type stateMap map[string]varState

func (s stateMap) get(name string) varState {
	if v, ok := s[name]; ok {
		return v
	}
	return noState
}

func cloneState(s stateMap) stateMap {
	o := make(stateMap, len(s))
	for k, v := range s {
		o[k] = v
	}
	return o
}

// joinVar merges two path states for one variable.
func joinVar(a, b varState) varState {
	if a == b {
		return a
	}
	v := varState{}
	if a.st == b.st {
		v.st = a.st
	} else {
		v.st = stUnknown
	}
	if a.owner == b.owner {
		v.owner = a.owner
		v.kind = a.kind
	} else if a.owner > b.owner {
		// Prefer the mapped side so a later region exit still clears it.
		v.owner, v.kind = a.owner, a.kind
	} else {
		v.owner, v.kind = b.owner, b.kind
	}
	// A pending transfer survives only when both paths agree on it: if one
	// path waited, the access may be safe and we stay quiet.
	if a.pend && b.pend && a.queue == b.queue {
		v.pend, v.queue = true, a.queue
	}
	return v
}

func joinStates(a, b stateMap) stateMap {
	o := make(stateMap, len(a)+len(b))
	for k, av := range a {
		o[k] = joinVar(av, b.get(k))
	}
	for k, bv := range b {
		if _, ok := a[k]; !ok {
			o[k] = joinVar(noState, bv)
		}
	}
	return o
}

func equalStates(a, b stateMap) bool {
	for k, av := range a {
		if b.get(k) != av {
			return false
		}
	}
	for k, bv := range b {
		if _, ok := a[k]; !ok && bv != noState {
			return false
		}
	}
	return true
}

// copiesBack reports whether a mapping kind transfers device data to the
// host when its region exits.
func copiesBack(k directive.ClauseKind) bool {
	switch k {
	case directive.Copy, directive.PresentOrCopy, directive.Copyout, directive.PresentOrCopyout:
		return true
	}
	return false
}

// copiesIn reports whether a mapping kind initializes the device copy from
// host data at region entry.
func copiesIn(k directive.ClauseKind) bool {
	switch k {
	case directive.Copy, directive.PresentOrCopy, directive.Copyin, directive.PresentOrCopyin:
		return true
	}
	return false
}

// emitCtx carries what the final walk needs to report findings.
type emitCtx struct {
	rd  *reachDefs
	b   *block
	idx int
}

// copyStatePass runs the coherence fixpoint and emits ACV001 (stale host
// read), ACV002 (device read before initialization), and ACV006 (host
// access racing an async transfer).
func (p *pass) copyStatePass() {
	transfer := func(b *block, s stateMap) stateMap {
		s = cloneState(s)
		for i := range b.events {
			p.applyEvent(&b.events[i], s, nil)
		}
		return s
	}
	in := solveForward(p.graph, stateMap{}, transfer, joinStates, equalStates)
	rd := solveReachingDefs(p.graph)
	muted := map[string]bool{}
	p.mutedCopy = muted
	for _, b := range p.graph.blocks {
		s, ok := in[b]
		if !ok {
			continue // unreachable
		}
		s = cloneState(s)
		for i := range b.events {
			p.applyEvent(&b.events[i], s, &emitCtx{rd: rd, b: b, idx: i})
		}
	}
}

// emitCopy reports a copy-state finding once per (analyzer, variable) in a
// function: the first access to stale or racing data is the actionable one.
func (p *pass) emitCopy(id string, pos ast.Pos, v, msg string) {
	key := id + "/" + v
	if p.mutedCopy[key] {
		return
	}
	p.mutedCopy[key] = true
	p.report(id, pos, v, msg)
}

// applyEvent advances the abstract state over one event. When em is nil the
// call is a pure transfer (fixpoint iteration); otherwise findings are
// emitted against the final states.
func (p *pass) applyEvent(ev *event, s stateMap, em *emitCtx) {
	switch ev.op {
	case opHostRead:
		v := s.get(ev.name)
		if em == nil {
			return
		}
		switch {
		case v.pend:
			p.emitCopy("ACV006", ev.pos, ev.name, fmt.Sprintf(
				"host reads %q while an asynchronous operation%s may still be transferring it; add a wait directive or acc_async_wait call",
				ev.name, queueSuffix(v.queue)))
		case v.st == stDevAhead:
			p.emitCopy("ACV001", ev.pos, ev.name, fmt.Sprintf(
				"host reads %q but the device copy was modified%s and not copied back; add update host(%s) before the read",
				ev.name, writtenAt(em, ev.name), ev.name))
		case v.st == stLost:
			p.emitCopy("ACV001", ev.pos, ev.name, fmt.Sprintf(
				"host reads %q but the device modified it%s and the region's %s clause never copies it back; use copy/copyout or update host(%s)",
				ev.name, writtenAt(em, ev.name), v.kind, ev.name))
		}
	case opHostWrite:
		v := s.get(ev.name)
		if em != nil && v.pend {
			p.emitCopy("ACV006", ev.pos, ev.name, fmt.Sprintf(
				"host writes %q while an asynchronous operation%s may still be transferring it; add a wait directive or acc_async_wait call",
				ev.name, queueSuffix(v.queue)))
		}
		switch v.st {
		case stLost:
			v = noState // host rewrites the stale data: coherent again
		case stDevAhead:
			v.st = stUnknown // both sides modified: give up quietly
		case stSynced, stDevUninit:
			v.st = stHostAhead
		}
		s[ev.name] = v
	case opHavoc:
		v := s.get(ev.name)
		s[ev.name] = varState{st: stUnknown, owner: v.owner, kind: v.kind}
	case opEnter:
		p.applyRegionActs(ev.region, s)
	case opExit:
		p.applyRegionExit(ev.region, s, false)
	case opExitData:
		pre := snapshotActs(ev.acts, s)
		for _, a := range ev.acts {
			v := s.get(a.name)
			switch {
			case copiesBack(a.kind):
				v = noState
			case v.st == stDevAhead:
				v = varState{st: stLost, owner: -1, kind: a.kind}
			case v.st == stUnknown:
				v = varState{st: stUnknown, owner: -1}
			default:
				v = noState
			}
			s[a.name] = v
		}
		if ev.cond {
			mergeSnapshot(pre, s)
		}
	case opKernel:
		p.applyKernel(ev, s, em)
	case opUpdate:
		// if() clauses are treated optimistically: the update happens.
		for _, name := range ev.hostVars {
			v := s.get(name)
			if v.owner >= 0 {
				v.st = stSynced
			} else {
				v.st = stUnknown
			}
			if ev.async {
				v.pend, v.queue = true, ev.queue
			}
			s[name] = v
		}
		for _, name := range ev.devVars {
			v := s.get(name)
			if v.owner >= 0 {
				v.st = stSynced
			} else {
				v.st = stUnknown
			}
			s[name] = v
		}
	case opWait:
		for name, v := range s {
			if !v.pend {
				continue
			}
			if ev.waitAll || v.queue == asyncNoQueue || containsQueue(ev.waitQueues, v.queue) {
				v.pend = false
				s[name] = v
			}
		}
	}
}

// applyRegionActs maps a region's data clauses onto the state.
func (p *pass) applyRegionActs(ri *regionInfo, s stateMap) {
	pre := snapshotActs(ri.acts, s)
	for _, a := range ri.acts {
		v := s.get(a.name)
		if a.kind == directive.Deviceptr {
			// The variable holds a device address; host accesses touch the
			// pointer, never the data. Untrackable, permanently quiet.
			s[a.name] = varState{st: stUnknown, owner: -1}
			continue
		}
		if v.owner >= 0 {
			continue // already mapped: present_or semantics, no transfer
		}
		switch {
		case v.st == stUnknown:
			v.owner, v.kind = ri.depth, a.kind // track lifetime, stay unknown
		case copiesIn(a.kind):
			v = varState{st: stSynced, owner: ri.depth, kind: a.kind}
		case a.kind == directive.Create || a.kind == directive.PresentOrCreate ||
			a.kind == directive.Copyout || a.kind == directive.PresentOrCopyout:
			v = varState{st: stDevUninit, owner: ri.depth, kind: a.kind}
		default: // present: cannot verify the mapping, stay quiet
			v = varState{st: stUnknown, owner: ri.depth, kind: a.kind}
		}
		s[a.name] = v
	}
	if ri.cond {
		mergeSnapshot(pre, s)
	}
}

// applyRegionExit unmaps everything this region owns.
func (p *pass) applyRegionExit(ri *regionInfo, s stateMap, async bool) []string {
	var pending []string
	for name, v := range s {
		if v.owner != ri.depth || ri.depth == 0 {
			continue
		}
		back := copiesBack(v.kind)
		switch {
		case back:
			v = noState
		case v.st == stDevAhead:
			v = varState{st: stLost, owner: -1, kind: v.kind}
		case v.st == stUnknown:
			v = varState{st: stUnknown, owner: -1}
		default:
			v = noState
		}
		if async && back {
			v.pend, v.queue = true, ri.queue
			pending = append(pending, name)
		}
		s[name] = v
	}
	return pending
}

// applyKernel interprets a whole compute region: map, check uninitialized
// reads, apply device writes, and unmap.
func (p *pass) applyKernel(ev *event, s stateMap, em *emitCtx) {
	ri := ev.region
	touched := map[string]bool{}
	for _, a := range ri.acts {
		touched[a.name] = true
	}
	for name := range ri.writes {
		touched[name] = true
	}
	var pre stateMap
	if ri.cond {
		pre = make(stateMap, len(touched))
		for name := range touched {
			pre[name] = s.get(name)
		}
	}

	p.applyRegionActsNoCond(ri, s)

	// ACV002: the kernel reads an array before any kernel write, and the
	// device copy was never initialized by a data transfer.
	if em != nil {
		for name, poses := range ri.uninit {
			v := s.get(name)
			if v.st != stDevUninit || len(poses) == 0 {
				continue
			}
			p.emitCopy("ACV002", poses[0], name, fmt.Sprintf(
				"kernel reads %q but its device copy is never initialized: %s allocates without copying host data in; use copyin or copy",
				name, v.kind))
		}
	}

	for name := range ri.writes {
		v := s.get(name)
		if v.owner < 0 {
			continue // firstprivate-like scalar: the write does not escape
		}
		v.st = stDevAhead
		s[name] = v
	}
	// A reduction combines into the original variable when the region
	// completes: host-visible, coherent.
	for name := range ri.reduction {
		v := s.get(name)
		if v.owner >= 0 {
			v.st = stSynced
			s[name] = v
		}
	}

	p.applyRegionExit(ri, s, ri.async)

	if ri.cond {
		mergeSnapshot(pre, s)
	}
}

// applyRegionActsNoCond applies entry actions without the conditional
// merge (the kernel handles if() around the whole entry+exec+exit step).
func (p *pass) applyRegionActsNoCond(ri *regionInfo, s stateMap) {
	saved := ri.cond
	ri.cond = false
	p.applyRegionActs(ri, s)
	ri.cond = saved
}

// snapshotActs captures the pre-states of every acted-on variable.
func snapshotActs(acts []dataAct, s stateMap) stateMap {
	pre := make(stateMap, len(acts))
	for _, a := range acts {
		pre[a.name] = s.get(a.name)
	}
	return pre
}

// mergeSnapshot joins pre- and post-states for conditional constructs.
func mergeSnapshot(pre, s stateMap) {
	for name, old := range pre {
		s[name] = joinVar(old, s.get(name))
	}
}

func containsQueue(qs []int64, q int64) bool {
	for _, x := range qs {
		if x == q {
			return true
		}
	}
	return false
}

// queueSuffix renders " (queue N)" for known queues.
func queueSuffix(q int64) string {
	if q == asyncNoQueue {
		return ""
	}
	return fmt.Sprintf(" (async queue %d)", q)
}

// writtenAt renders " (line N)" when a reaching device definition is known.
func writtenAt(em *emitCtx, v string) string {
	if em == nil || em.rd == nil {
		return ""
	}
	pos := em.rd.deviceDefAt(em.b, em.idx, v)
	if !pos.IsValid() {
		return ""
	}
	return fmt.Sprintf(" (device write at line %d)", pos.Line)
}
