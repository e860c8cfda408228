package bench

import (
	"context"
	"fmt"
	"time"

	"accv"
	"accv/internal/ast"
	"accv/internal/compiler"
	"accv/internal/core"
	"accv/internal/device"
	"accv/internal/interp"
)

// kernelsRun is the kernels workload: the kernel corpus compiled once by
// the reference compiler in set-up, each kernel run by interp.Run on a
// fresh platform (core's default two devices) under the default engine.
type kernelsRun struct {
	env  *env
	cfg  core.Config // the reference toolchain and core's run defaults
	srcs []string
	exes []*compiler.Executable
}

func setupKernels(ctx context.Context, e *env) (instance, error) {
	k := &kernelsRun{env: e, cfg: core.Config{Toolchain: accv.Reference()}.WithDefaults()}
	for _, name := range Kernels {
		src, err := testdata.ReadFile("testdata/kernels/" + name + ".c")
		if err != nil {
			return nil, err
		}
		prog, err := accv.Parse(string(src), accv.C)
		if err != nil {
			return nil, fmt.Errorf("kernel %s: %w", name, err)
		}
		exe, _, err := k.cfg.Toolchain.Compile(prog)
		if err != nil {
			return nil, fmt.Errorf("kernel %s: %w", name, err)
		}
		k.srcs = append(k.srcs, string(src))
		k.exes = append(k.exes, exe)
	}
	return k, warmUp(ctx, k)
}

func (k *kernelsRun) prepare() error { return nil }
func (k *kernelsRun) close() error   { return nil }

// checkRun counts one kernel run: it fails unless the kernel verified its
// own result (exit 1) without a runtime error.
func checkRun(t *tally, name string, r interp.Result) {
	t.attempted++
	if r.Err != nil || r.Exit != 1 {
		t.fail(fmt.Sprintf("kernel %s: exit %d, error %v", name, r.Exit, r.Err))
	}
}

func (k *kernelsRun) rep(ctx context.Context) (repResult, error) {
	r := repResult{samples: map[string]float64{}}
	for i, name := range Kernels {
		rc := interp.RunConfig{Ctx: ctx, Seed: k.env.seed,
			Platform: device.NewPlatform(k.cfg.Toolchain.DeviceConfig(), k.cfg.Devices)}
		start := time.Now()
		res := interp.Run(k.exes[i], rc)
		r.samples["run_ms."+name] = float64(time.Since(start)) / float64(time.Millisecond)
		checkRun(&r.tally, name, res)
	}
	return r, nil
}

// traced runs the kernels set-up compiled, each in an interp.run span,
// then replays each kernel's compile through the layer calls.
func (k *kernelsRun) traced(ctx context.Context, rec *Recorder, wall float64) (map[string]float64, tally, error) {
	root := rec.Start(0, "bench.kernels", 0)
	p := newReplayer(rec, k.cfg.Toolchain)
	var t tally
	repSpan := rec.Start(root, "bench.rep", 0)
	for i, name := range Kernels {
		checkRun(&t, name, p.exec(repSpan, k.exes[i], interp.RunConfig{Ctx: ctx, Seed: k.env.seed}))
	}
	rec.End(repSpan)
	for i, name := range Kernels {
		if _, _, err := p.compile(root, ast.LangC, k.srcs[i]); err != nil {
			return nil, t, fmt.Errorf("kernel %s: %w", name, err)
		}
	}
	rec.End(root)
	m := p.metrics(root)
	traceMetrics(m, rec, root, repSpan, wall)
	return m, t, nil
}
