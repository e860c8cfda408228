package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"

	"accv/internal/ast"
	"accv/internal/cfront"
	"accv/internal/compiler"
	"accv/internal/core"
	"accv/internal/ffront"
	"accv/internal/vendors"
)

// A behavioral fingerprint digests every input that shapes a test's
// execution under one toolchain version:
//
//   - the template identity (name + language — which pins the generated
//     sources and ACC_* environment),
//   - the toolchain's semantics key (spec, mapping, worker-no-gang policy,
//     vet mode, device configuration — everything except the inert
//     name/version strings),
//   - the set of bug-DB effects that actually fire on the template's
//     pristine plan (vendors.FiredEffects over Vendor.BasePlan), for both
//     the functional and the cross variant,
//   - a caller salt covering run-shaping config the fingerprint cannot
//     see from the template (iterations, engine, timeouts, environment).
//
// Two (template, version) cells with equal fingerprints compile to
// byte-identical executables and run under identical configuration, so one
// cell's TestResult serves both. See docs/PERFORMANCE.md.

// Fingerprinter computes fingerprints, sharing one pristine (bug-free)
// plan per (template, variant, semantics) across all versions of a vendor
// family. It is safe for concurrent use.
type Fingerprinter struct {
	salt     string
	mu       sync.Mutex
	pristine map[pristineKey]*pristineEntry
}

type pristineKey struct {
	id      string // template ID (name.lang)
	variant string // "func" | "cross"
	sem     string // vendor semantics key
}

type pristineEntry struct {
	once    sync.Once
	plan    *compiler.Executable // Vendor.BasePlan result (sema only)
	errText string               // parse/sema failure text ("" on success)
}

// NewFingerprinter returns a fingerprinter whose fingerprints are salted
// with the given run-config digest. Callers must fold every run-shaping
// input the fingerprint cannot derive from the template or toolchain
// (iterations, engine, timeouts, fault environment) into the salt.
func NewFingerprinter(salt string) *Fingerprinter {
	return &Fingerprinter{salt: salt, pristine: map[pristineKey]*pristineEntry{}}
}

// ConfigSalt digests the run-shaping fields of a core.Config into a
// fingerprint salt. The toolchain is deliberately not included — the
// fingerprint captures toolchain behavior itself.
func ConfigSalt(cfg core.Config) string {
	return fmt.Sprintf("iters=%d;maxops=%d;timeout=%s;devices=%d;vet=%d;engine=%d;retry=%d/%s",
		cfg.Iterations, cfg.MaxOps, cfg.Timeout, cfg.Devices, cfg.Vet, cfg.Engine,
		cfg.Retry.Attempts, cfg.Retry.Backoff)
}

// For returns a core.Config.Fingerprint function for one toolchain.
//
// Vendor toolchains get the full treatment: pristine plan + fired effect
// replay, enabling cross-version sharing. Any other toolchain (the
// reference compiler, harness node wrappers) falls back to an identity
// fingerprint — toolchain name+version+device config — which still
// deduplicates identical repeated runs (screening the same stack on many
// nodes, repeated epochs) but never shares across versions.
//
// A vendor's semantics key is read here, once per toolchain: configure
// the toolchain (SetVet) before calling For, as sweep.Run does.
func (f *Fingerprinter) For(tc compiler.Toolchain) func(*core.Template) (string, bool) {
	v, isVendor := tc.(*vendors.Vendor)
	if !isVendor {
		return func(tpl *core.Template) (string, bool) {
			return digest(f.salt, "identity", tpl.ID(), tc.Name(), tc.Version(),
				fmt.Sprintf("%+v", tc.DeviceConfig())), true
		}
	}
	sem := v.SemanticsKey()
	return func(tpl *core.Template) (string, bool) {
		return f.vendorFingerprint(v, sem, tpl)
	}
}

func (f *Fingerprinter) vendorFingerprint(v *vendors.Vendor, sem string, tpl *core.Template) (string, bool) {
	functional, cross, hasCross, err := tpl.GenerateCached()
	if err != nil {
		// Generation failure is deterministic per template; share it.
		return digest(f.salt, "generr", tpl.ID(), err.Error()), true
	}
	parts := []string{f.salt, "vendor", tpl.ID(), sem,
		"func", f.variantComponent(v, tpl, "func", functional, sem)}
	if hasCross {
		parts = append(parts, "cross", f.variantComponent(v, tpl, "cross", cross, sem))
	}
	return digest(parts...), true
}

// variantComponent returns the fingerprint component for one generated
// source: the pristine parse or sema failure text, or the ordered list of
// bug effects that fire on the pristine plan under this version. Effects
// read only the plan's program, regions, loop plans and hooks, so the
// vet, lane-safety and lowering stages of a full compile are never run
// here (TestFingerprintsGolden pins the keys this produces).
func (f *Fingerprinter) variantComponent(v *vendors.Vendor, tpl *core.Template, variant, src, sem string) string {
	ent := f.entry(pristineKey{id: tpl.ID(), variant: variant, sem: sem})
	ent.once.Do(func() {
		prog, err := parse(tpl.Lang, src)
		if err != nil {
			ent.errText = err.Error()
			return
		}
		plan, _, err := v.BasePlan(prog)
		if err != nil {
			ent.errText = err.Error()
			return
		}
		ent.plan = plan
	})
	if ent.plan == nil {
		return "err:" + ent.errText
	}
	return "fired:" + strings.Join(v.FiredEffects(ent.plan), ",")
}

func (f *Fingerprinter) entry(k pristineKey) *pristineEntry {
	f.mu.Lock()
	defer f.mu.Unlock()
	e := f.pristine[k]
	if e == nil {
		e = &pristineEntry{}
		f.pristine[k] = e
	}
	return e
}

func parse(lang ast.Lang, src string) (*ast.Program, error) {
	if lang == ast.LangFortran {
		return ffront.Parse(src)
	}
	return cfront.Parse(src)
}

func digest(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}
