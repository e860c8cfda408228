package vendors

import (
	"fmt"
	"strconv"

	"accv/internal/ast"
	"accv/internal/compiler"
)

// This file exposes the per-template bug-match predicates the sweep engine
// (internal/sweep) needs to fingerprint a (template, version) pair: two
// versions of a vendor whose active effects fire identically on a program
// compile it to byte-identical executables, so one execution result serves
// both (docs/PERFORMANCE.md, "The cross-version sweep memo").

// BasePlan runs semantic analysis alone (compiler.Plan) under this
// vendor's compilation options and applies none of the version's bug
// effects: the pristine plan every release of the vendor family starts
// from. It carries the regions, loop plans and hooks bug effects read, but
// no vet findings, lane-safety verdicts or lowering, so it is cheap to
// build. All versions of a family share identical options (the bug
// database is the only thing that varies), so the sweep fingerprints every
// release from one base plan per (template, lang, family).
func (v *Vendor) BasePlan(prog *ast.Program) (*compiler.Executable, []compiler.Diagnostic, error) {
	return compiler.Plan(prog, v.opts)
}

// BaseCompile is BasePlan followed by the rest of the reference lowering:
// the runnable pristine executable. Nothing on the fingerprint path needs
// it; it stays because the benchmark's layer replay attributes compile
// cost with it.
func (v *Vendor) BaseCompile(prog *ast.Program) (*compiler.Executable, []compiler.Diagnostic, error) {
	return compiler.Compile(prog, v.opts)
}

// SemanticsKey digests every compilation input that shapes runtime
// behavior: spec level, loop-to-hardware mapping, the worker-without-gang
// policy, and the simulated device configuration. Options.Name and
// Options.Version are deliberately excluded — they only decorate
// diagnostics — so two versions of a family share a key and can share
// memoized results when their fired-effect sets agree.
//
// The ";vet=0" is a fixed literal kept from a removed per-toolchain vet
// switch: every existing store key was computed with those bytes, so
// dropping them would turn every store cold (testdata/fingerprints.golden
// pins the keys).
func (v *Vendor) SemanticsKey() string {
	return fmt.Sprintf("spec=%v;map=%d;wng=%d;vet=0;dev=%+v",
		v.opts.Spec, v.opts.Mapping, v.opts.WorkerNoGang, v.devCfg)
}

// FiredEffects replays this release's active bug effects, in database
// order, over a scratch copy of the pristine executable and returns the
// identities ("bugID#effectIndex") of the effects that observably fire on
// this program. Replaying — rather than evaluating each predicate against
// the pristine state — is what keeps cascades sound: an effect that
// rewrites a loop plan (e.g. seq ignored) can enable a later effect that
// matches the rewritten plan, and sequential application evaluates each
// effect against exactly the state the real Compile would present it.
// exe is either a BasePlan or a BaseCompile result — effects read only the
// program, regions, loop plans and hooks, which the two share — and it is
// not mutated. The scratch copy is made only once an effect is active for
// the program's language, so a release with none allocates nothing.
func (v *Vendor) FiredEffects(exe *compiler.Executable) []string {
	var (
		scratch *compiler.Executable
		fired   []string
	)
	for _, b := range v.bugs {
		if b.Lang != exe.Prog.Lang || !b.ActiveIn(v.version) {
			continue
		}
		for i, e := range b.Effects {
			if !e.activeIn(v.version) {
				continue
			}
			if scratch == nil {
				scratch = cloneForReplay(exe)
			}
			if _, hit := applyEffectTracked(e, scratch, b.ID); hit {
				fired = append(fired, b.ID+"#"+strconv.Itoa(i))
			}
		}
	}
	return fired
}

// cloneForReplay copies the executable state bug effects mutate — the
// region and loop-plan tables (including their lazily-allocated switch
// maps) and the hook set — so FiredEffects can replay a version's effects
// without touching the shared pristine executable. Directive, data-action,
// and reduction slices are shared read-only: effects replace them (e.g.
// Reduction = nil) but never write through them.
func cloneForReplay(exe *compiler.Executable) *compiler.Executable {
	cp := *exe
	cp.Regions = make(map[*ast.PragmaStmt]*compiler.Region, len(exe.Regions))
	for p, r := range exe.Regions {
		rc := *r
		rc.SkipDataKind = cloneKindSet(r.SkipDataKind)
		rc.SkipDataExplicit = cloneKindSet(r.SkipDataExplicit)
		rc.DropClause = cloneKindSet(r.DropClause)
		cp.Regions[p] = &rc
	}
	cp.Loops = make(map[*ast.PragmaStmt]*compiler.LoopPlan, len(exe.Loops))
	for p, plan := range exe.Loops {
		pc := *plan
		cp.Loops[p] = &pc
	}
	return &cp
}

func cloneKindSet[K comparable](m map[K]bool) map[K]bool {
	if m == nil {
		return nil
	}
	out := make(map[K]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
