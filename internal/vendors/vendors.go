// Package vendors simulates the three commercial OpenACC compilers the
// paper evaluates — CAPS, PGI, and Cray — as wrappers around the reference
// lowering with a versioned bug database. Each bug entry is an executable
// miscompilation effect (skip a data transfer, drop a loop schedule, block
// async activities, reject an expression form, ...), so running the
// validation suite against a simulated vendor version reproduces the
// failure signatures of Table I and Fig. 8 through actual execution rather
// than bookkeeping.
package vendors

import (
	"fmt"
	"strconv"
	"strings"

	"accv/internal/ast"
	"accv/internal/compiler"
	"accv/internal/device"
	"accv/internal/directive"
)

// CompareVersions compares dotted numeric versions: -1, 0, or 1. A missing
// or non-numeric component counts as 0, so "3.3" equals "3.3.0". Every
// compile and fingerprint checks each bug's version window, so the two
// strings are walked in place rather than split.
func CompareVersions(a, b string) int {
	for a != "" || b != "" {
		var as, bs string
		as, a, _ = strings.Cut(a, ".")
		bs, b, _ = strings.Cut(b, ".")
		if av, bv := versionPart(as), versionPart(bs); av != bv {
			if av < bv {
				return -1
			}
			return 1
		}
	}
	return 0
}

// versionPart parses one version component the way strconv.Atoi does,
// reading errors as 0, without the error value Atoi allocates for an
// empty component.
func versionPart(s string) int {
	if s == "" {
		return 0
	}
	n, _ := strconv.Atoi(s)
	return n
}

// Action enumerates the miscompilation effects the bug engine can apply.
type Action int

// Actions. Region actions select compute/data/declare/update constructs;
// loop actions select loop plans.
const (
	// ActNone marks divergences that need no plan change (e.g. the Fig. 12
	// device-type ambiguity, which the platform configuration reproduces).
	ActNone Action = iota
	// ActReject raises a compile error when a matching construct exists.
	ActReject
	// ActRejectNonConstDims rejects non-constant num_gangs / num_workers /
	// vector_length expressions (CAPS < 3.1.0, Fig. 9).
	ActRejectNonConstDims
	// ActSkipData keeps the device mapping but suppresses the transfer for
	// the selected data-clause kind (silent wrong results).
	ActSkipData
	// ActForceSync executes async constructs synchronously.
	ActForceSync
	// ActDropIf ignores the if clause.
	ActDropIf
	// ActSharePrivates hands all gangs the same private copy.
	ActSharePrivates
	// ActDropLaunchClause ignores a launch-configuration clause.
	ActDropLaunchClause
	// ActDeleteRegion removes matching constructs entirely.
	ActDeleteRegion
	// ActDeleteRegionWithClause removes matching constructs that carry the
	// selector clause (e.g. an unimplemented declare create: the mapping is
	// simply never made, and later present lookups fail).
	ActDeleteRegionWithClause
	// ActDeleteDeadStoreRegion removes compute regions that only copy data
	// between arrays (Cray's over-aggressive dead-code elimination,
	// Fig. 11).
	ActDeleteDeadStoreRegion
	// ActRegionDropReduction drops region-level reduction clauses.
	ActRegionDropReduction
	// ActNoCombine never combines loop reduction partials.
	ActNoCombine
	// ActLoopDropPlan ignores the loop directive (redundant execution).
	ActLoopDropPlan
	// ActLoopRedundant executes partitioned iterations on every lane.
	ActLoopRedundant
	// ActLoopPartialLanes executes only lane 0's share of worker/vector
	// levels (wrong stride codegen).
	ActLoopPartialLanes
	// ActLoopCollapseSwap transposes the collapsed index decomposition.
	ActLoopCollapseSwap
	// ActLoopSeqIgnored partitions loops annotated seq.
	ActLoopSeqIgnored
	// ActHook flips a runtime-behaviour hook.
	ActHook
)

// Effect is one plan transformation of a bug, optionally gated to a version
// range narrower than the bug's own activity (used for the PGI 13.2
// reorganization regression, whose bug count is unchanged while its blast
// radius grows).
type Effect struct {
	Action     Action
	Constructs []directive.Name     // region selectors; empty = any
	Clause     directive.ClauseKind // data/launch clause parameter
	ReduceOp   string               // loop reduction operator selector
	Hook       func(*compiler.Hooks)
	Msg        string // diagnostic text for reject actions
	MinVersion string // inclusive; empty = no lower gate
	MaxVersion string // inclusive; empty = no upper gate
	// ExplicitOnly limits ActSkipData to clauses spelled in the source,
	// sparing the implicit data-attribute lowering.
	ExplicitOnly bool
}

// activeIn reports whether the effect applies at the given version.
func (e Effect) activeIn(v string) bool {
	if e.MinVersion != "" && CompareVersions(v, e.MinVersion) < 0 {
		return false
	}
	if e.MaxVersion != "" && CompareVersions(v, e.MaxVersion) > 0 {
		return false
	}
	return true
}

// Bug is one defect of a vendor compiler. Bugs are counted per language, as
// Table I does: a defect present in both frontends appears as two entries.
type Bug struct {
	ID         string
	Title      string
	Lang       ast.Lang
	Introduced string // empty = present since the first simulated release
	FixedIn    string // empty = never fixed within the simulated range
	Effects    []Effect
}

// ActiveIn reports whether the bug is present in the given version.
func (b Bug) ActiveIn(v string) bool {
	if b.Introduced != "" && CompareVersions(v, b.Introduced) < 0 {
		return false
	}
	if b.FixedIn != "" && CompareVersions(v, b.FixedIn) >= 0 {
		return false
	}
	return true
}

// Vendor is a simulated vendor compiler at a specific version.
type Vendor struct {
	name    string
	version string
	opts    compiler.Options
	devCfg  device.Config
	bugs    []Bug
}

// Name implements compiler.Compiler.
func (v *Vendor) Name() string { return v.name }

// Version implements compiler.Compiler.
func (v *Vendor) Version() string { return v.version }

// DeviceConfig implements compiler.Toolchain.
func (v *Vendor) DeviceConfig() device.Config { return v.devCfg }

// Bugs returns the vendor's full bug database (all versions).
func (v *Vendor) Bugs() []Bug { return v.bugs }

// ActiveBugs returns the bugs present in this version for one language.
func (v *Vendor) ActiveBugs(lang ast.Lang) []Bug {
	var out []Bug
	for _, b := range v.bugs {
		if b.Lang == lang && b.ActiveIn(v.version) {
			out = append(out, b)
		}
	}
	return out
}

// Compile implements compiler.Compiler: the reference plan, then the
// version's active bug effects, then the rest of the reference lowering
// over the rewritten plans. A program an effect rejects is never lowered.
func (v *Vendor) Compile(prog *ast.Program) (*compiler.Executable, []compiler.Diagnostic, error) {
	exe, diags, err := compiler.Plan(prog, v.opts)
	if err != nil {
		return nil, diags, err
	}
	v.eachEffect(prog.Lang, func(bugID string, _ int, e Effect) {
		d, _ := applyEffect(e, exe, bugID)
		diags = append(diags, d...)
	})
	exe.Diags = diags
	for _, d := range diags {
		if d.Sev == compiler.Error {
			return nil, diags, &compiler.CompileError{Diags: diags}
		}
	}
	compiler.Lower(exe)
	return exe, diags, nil
}

// eachEffect calls f for every effect this version has active for lang,
// in database order, with its bug's ID and its index among the bug's
// effects. Compile applies effects and FiredEffects replays them through
// this one walk, so both see the same effects in the same order.
func (v *Vendor) eachEffect(lang ast.Lang, f func(bugID string, i int, e Effect)) {
	for _, b := range v.bugs {
		if b.Lang != lang || !b.ActiveIn(v.version) {
			continue
		}
		for i, e := range b.Effects {
			if e.activeIn(v.version) {
				f(b.ID, i, e)
			}
		}
	}
}

// String renders the vendor identity.
func (v *Vendor) String() string { return fmt.Sprintf("%s %s", v.name, v.version) }

// New constructs a simulated vendor compiler by name ("caps", "pgi",
// "cray", "reference").
func New(name, version string) (compiler.Toolchain, error) {
	switch strings.ToLower(name) {
	case "caps":
		return NewCAPS(version), nil
	case "pgi":
		return NewPGI(version), nil
	case "cray":
		return NewCray(version), nil
	case "reference", "ref":
		return compiler.NewReference(), nil
	}
	return nil, fmt.Errorf("unknown compiler %q (want caps, pgi, cray, or reference)", name)
}

// All returns every simulated vendor at its given versions, for sweeps.
func All() map[string][]string {
	return map[string][]string{
		"caps": CAPSVersions,
		"pgi":  PGIVersions,
		"cray": CrayVersions,
	}
}
