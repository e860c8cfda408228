package bench

import (
	"fmt"
	"time"

	"accv/internal/analysis"
	"accv/internal/ast"
	"accv/internal/bytecode"
	"accv/internal/cfront"
	"accv/internal/compiler"
	"accv/internal/core"
	"accv/internal/device"
	"accv/internal/ffront"
	"accv/internal/interp"
	"accv/internal/vendors"
)

// replayer drives programs through each layer's public entry point,
// timing every call in a span. Toolchain.Compile runs the whole compiler
// in one call, so the replay calls it and its parts again on the same,
// now cache-warm, program — Compile, Vendor.BaseCompile (the reference
// lowering without bug effects), analysis.Analyze,
// analysis.AnalyzeLaneSafety and bytecode.LowerProgram — and attributes
// the differences between those warm calls: effects = Compile −
// BaseCompile, and the rest (sema and batch lowering) = BaseCompile − vet
// − LaneSafety − lower. compiler.compile_ms is the first, real call.
type replayer struct {
	rec *Recorder
	cfg core.Config // toolchain and the engine's run defaults
	n   layerCounts
}

type layerCounts struct {
	srcBytes                                                 int
	batched, declined, findings, proven, other, fired, procs int
	runs, ops, spmdBatched, spmdFallbacks                    int64
	kernels, bytes, presentHits, presentMisses, queueWaits   int64
	inconclusive                                             int
	reportBytes                                              int64
}

func newReplayer(rec *Recorder, tc compiler.Toolchain) *replayer {
	cfg := core.Config{Toolchain: tc, Iterations: iterations}.WithDefaults()
	return &replayer{rec: rec, cfg: cfg}
}

// compile parses and compiles src, then replays the compiler's parts for
// attribution. Errors are worded as core's compileSource words them.
func (p *replayer) compile(parent int, lang ast.Lang, src string) (*compiler.Executable, []compiler.Diagnostic, error) {
	var prog *ast.Program
	var err error
	if lang == ast.LangFortran {
		p.rec.Time(parent, "ffront.parse", func() { prog, err = ffront.Parse(src) })
	} else {
		p.rec.Time(parent, "cfront.parse", func() { prog, err = cfront.Parse(src) })
	}
	p.n.srcBytes += len(src)
	if err != nil {
		return nil, nil, fmt.Errorf("frontend: %w", err)
	}
	var exe *compiler.Executable
	var diags []compiler.Diagnostic
	p.rec.Time(parent, "compiler.compile", func() { exe, diags, err = p.cfg.Toolchain.Compile(prog) })
	if err != nil {
		return nil, diags, err
	}
	p.rec.Time(parent, "compiler.recompile", func() { _, _, _ = p.cfg.Toolchain.Compile(prog) })
	if v, ok := p.cfg.Toolchain.(*vendors.Vendor); ok {
		var base *compiler.Executable
		p.rec.Time(parent, "compiler.base", func() { base, _, _ = v.BaseCompile(prog) })
		if base != nil {
			p.rec.Time(parent, "vendors.fired", func() { p.n.fired += len(v.FiredEffects(base)) })
		}
	}
	p.rec.Time(parent, "analysis.vet", func() {
		p.n.findings += len(analysis.Analyze(prog, analysis.Options{}).Findings)
	})
	p.rec.Time(parent, "analysis.lanesafety", func() {
		for _, ls := range analysis.AnalyzeLaneSafety(prog) {
			if ls.Verdict == analysis.LaneProvenIndependent {
				p.n.proven++
			} else {
				p.n.other++
			}
		}
	})
	p.rec.Time(parent, "bytecode.lower", func() { p.n.procs += bytecode.LowerProgram(prog).Lowered })
	p.n.batched += len(exe.Batch)
	p.n.declined += len(exe.BatchDecline)
	return exe, diags, nil
}

// run executes exe once on a fresh platform, exactly as core's runOnce
// does, and classifies the result the same way.
func (p *replayer) run(parent int, exe *compiler.Executable, env map[string]string, seed int64) (core.Outcome, string) {
	r := p.exec(parent, exe, interp.RunConfig{
		MaxOps: p.cfg.MaxOps, Timeout: p.cfg.Timeout, Seed: seed, Env: env,
	})
	switch {
	case r.Err == interp.ErrBudget || r.Err == interp.ErrDeadline:
		return core.FailTimeout, r.Err.Error()
	case r.Err != nil:
		return core.FailCrash, r.Err.Error()
	case r.Exit != 1:
		return core.FailWrongResult, fmt.Sprintf("verification returned %d (want 1)", r.Exit)
	}
	return core.Pass, ""
}

// exec runs exe in an interp.run span on a fresh platform of the
// toolchain's device and counts what the interpreter and device did.
func (p *replayer) exec(parent int, exe *compiler.Executable, rc interp.RunConfig) interp.Result {
	var r interp.Result
	p.rec.Time(parent, "interp.run", func() {
		rc.Platform = device.NewPlatform(p.cfg.Toolchain.DeviceConfig(), p.cfg.Devices)
		r = interp.Run(exe, rc)
	})
	p.n.runs++
	p.n.ops += r.Ops
	p.n.spmdBatched += r.SpmdBatchedNests
	for _, k := range r.SpmdFallbacks {
		p.n.spmdFallbacks += k
	}
	p.n.kernels += r.Kernels
	p.n.bytes += r.BytesIn + r.BytesOut
	p.n.presentHits += r.PresentHits
	p.n.presentMisses += r.PresentMisses
	p.n.queueWaits += r.QueueWaits
	return r
}

// test replays one template the way core's runTest does under the
// enforcing vet policy: generate, compile the functional variant, fail
// on an error-severity finding, run it M times and, if it passed,
// compile and run the cross variant M times for the §III statistics.
func (p *replayer) test(parent int, tpl *core.Template) core.TestResult {
	span := p.rec.Start(parent, "bench.test", 0)
	defer p.rec.End(span)
	res := core.TestResult{Name: tpl.Name, Lang: tpl.Lang, Family: tpl.Family, Description: tpl.Description}
	var functional, cross string
	var hasCross bool
	var err error
	p.rec.Time(span, "core.generate", func() { functional, cross, hasCross, err = tpl.GenerateCached() })
	if err != nil {
		res.Outcome, res.Detail = core.FailCompile, "template expansion: "+err.Error()
		return res
	}
	res.Functional, res.Cross, res.HasCross = functional, cross, hasCross
	exe, diags, err := p.compile(span, tpl.Lang, functional)
	for _, d := range diags {
		if d.BugID != "" {
			res.BugIDs = append(res.BugIDs, d.BugID)
		}
	}
	if err != nil {
		res.Outcome, res.Detail = core.FailCompile, err.Error()
		return res
	}
	res.Findings = exe.Findings
	for i := range exe.Findings {
		if exe.Findings[i].Sev == analysis.Error {
			res.Outcome, res.Detail = core.VetFail, "accvet: "+exe.Findings[i].String()
			return res
		}
	}
	m := p.cfg.Iterations
	for it := 0; it < m; it++ {
		res.FuncRuns++
		if out, detail := p.run(span, exe, tpl.Env, int64(it)); out != core.Pass {
			res.FuncFails++
			if res.Outcome == core.Pass || res.Outcome == core.FailWrongResult {
				res.Outcome, res.Detail = out, detail
			}
		}
	}
	if res.Outcome.Failed() || !hasCross {
		return res
	}
	fails := m
	cexe, _, err := p.compile(span, tpl.Lang, cross)
	if err == nil {
		fails = 0
		for it := 0; it < m; it++ {
			if out, _ := p.run(span, cexe, tpl.Env, int64(1000+it)); out != core.Pass {
				fails++
			}
		}
	}
	p.rec.Time(span, "core.stats", func() { res.Cert = core.NewCertainty(fails, m) })
	if err == nil && !res.Cert.Conclusive() {
		res.Inconclusive = true
		p.n.inconclusive++
	}
	return res
}

// metrics turns the replay's spans under root and its counters into the
// per-layer metrics.
func (p *replayer) metrics(root int) map[string]float64 {
	self := p.rec.SelfTimes(root)
	ms := func(name string) float64 { return float64(self[name]) / float64(time.Millisecond) }
	vet, ls, lower := ms("analysis.vet"), ms("analysis.lanesafety"), ms("bytecode.lower")
	base, effects := ms("compiler.recompile"), 0.0
	if _, ok := p.cfg.Toolchain.(*vendors.Vendor); ok {
		base = ms("compiler.base")
		effects = ms("compiler.recompile") - base
	}
	parse := ms("cfront.parse") + ms("ffront.parse")
	runMs := ms("interp.run")
	m := map[string]float64{
		"core.generate_ms":        ms("core.generate"),
		"cfront.parse_ms":         ms("cfront.parse"),
		"ffront.parse_ms":         ms("ffront.parse"),
		"compiler.compile_ms":     ms("compiler.compile"),
		"compiler.rest_ms":        base - vet - ls - lower,
		"compiler.batched_nests":  float64(p.n.batched),
		"compiler.declined_nests": float64(p.n.declined),
		"analysis.vet_ms":         vet,
		"analysis.lanesafety_ms":  ls,
		"analysis.findings":       float64(p.n.findings),
		"analysis.nests_proven":   float64(p.n.proven),
		"analysis.nests_other":    float64(p.n.other),
		"vendors.effects_ms":      effects,
		"vendors.effects_fired":   float64(p.n.fired),
		"bytecode.lower_ms":       lower,
		"bytecode.procs":          float64(p.n.procs),
		"core.stats_ms":           ms("core.stats"),
		"core.inconclusive":       float64(p.n.inconclusive),
		"report.write_ms":         ms("report.write"),
		"report.kb":               float64(p.n.reportBytes) / 1e3,
		"interp.run_ms":           runMs,
		"interp.runs":             float64(p.n.runs),
		"interp.ops":              float64(p.n.ops),
		"interp.spmd_batched":     float64(p.n.spmdBatched),
		"interp.spmd_fallbacks":   float64(p.n.spmdFallbacks),
		"device.kernels":          float64(p.n.kernels),
		"device.mb_moved":         float64(p.n.bytes) / 1e6,
		"device.queue_waits":      float64(p.n.queueWaits),
	}
	if parse > 0 {
		m["frontend.kb_per_ms"] = float64(p.n.srcBytes) / 1e3 / parse
	}
	if p.n.ops > 0 {
		m["interp.ns_per_op"] = runMs * 1e6 / float64(p.n.ops)
	}
	if n := p.n.presentHits + p.n.presentMisses; n > 0 {
		m["device.present_hit_ratio"] = float64(p.n.presentHits) / float64(n)
	}
	return m
}
