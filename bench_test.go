package accv

// Benchmarks regenerating every table and figure of the paper's evaluation
// (§V, §VII), plus ablation benches for the design choices DESIGN.md calls
// out. Each table/figure bench prints the regenerated rows once and reports
// headline numbers as benchmark metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the evaluation end to end. Absolute wall times are properties
// of the simulator, not of the paper's testbed; the shapes (who regresses,
// where the dips fall, which vendor is flat) are the reproduction targets.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"accv/internal/ast"
	"accv/internal/compiler"
	"accv/internal/core"
	"accv/internal/device"
	"accv/internal/harness"
	"accv/internal/interp"
	"accv/internal/sweep"
	"accv/internal/vendors"
)

// runExe executes a compiled program on a given platform (bench helper).
func runExe(exe *compiler.Executable, plat *device.Platform) int64 {
	r := interp.Run(exe, interp.RunConfig{Platform: plat})
	if r.Err != nil {
		return -1
	}
	return r.Exit
}

// sweepCache holds one full memoized cross-version sweep per vendor so the
// three Fig. 8 benches do not redo identical work across sub-benchmarks.
var (
	sweepMu    sync.Mutex
	sweepCache = map[string]*sweep.Result{}
)

// vendorSweep runs (or returns the cached) memoized sweep of every version
// of one vendor in both languages — the engine behind accval sweep.
func vendorSweep(b *testing.B, vendor string) *sweep.Result {
	b.Helper()
	sweepMu.Lock()
	defer sweepMu.Unlock()
	if r, ok := sweepCache[vendor]; ok {
		return r
	}
	r, err := sweep.Run(context.Background(), vendor, sweep.Options{
		Langs:      []ast.Lang{ast.LangC, ast.LangFortran},
		Iterations: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	sweepCache[vendor] = r
	return r
}

// benchFig8 regenerates one panel of Fig. 8: pass rate per compiler
// version for the C and Fortran suites, through the memoized sweep engine
// (whose output is held byte-identical to a naive per-version loop by
// sweep_differential_test.go).
func benchFig8(b *testing.B, vendor string) {
	var rows []string
	var res *sweep.Result
	for i := 0; i < b.N; i++ {
		res = vendorSweep(b, vendor)
		rows = rows[:0]
		for vi, v := range res.Versions {
			rows = append(rows, fmt.Sprintf("  %-8s  C: %5.1f%%   Fortran: %5.1f%%", v,
				res.Cells[vi][0].PassRate(), res.Cells[vi][1].PassRate()))
		}
	}
	b.StopTimer()
	last := res.Cells[len(res.Versions)-1]
	b.ReportMetric(last[0].PassRate(), "final-C-pass%")
	b.ReportMetric(last[1].PassRate(), "final-F-pass%")
	b.Logf("Fig. 8 (%s) pass rates by version:\n%s", vendor, join(rows))
}

func join(rows []string) string {
	out := ""
	for _, r := range rows {
		out += r + "\n"
	}
	return out
}

// BenchmarkFigure8aCAPSPassRate regenerates Fig. 8(a): the CAPS releases,
// with the 3.0.x betas and the 3.1.x declare regression far below the
// 3.2.x/3.3.x plateau, and the Fortran crater at 3.0.8.
func BenchmarkFigure8aCAPSPassRate(b *testing.B) {
	benchFig8(b, "caps")
}

// BenchmarkFigure8bPGIPassRate regenerates Fig. 8(b): PGI improving from
// 12.6, dipping at the 13.2 multi-target reorganization, and carrying the
// async family to the end.
func BenchmarkFigure8bPGIPassRate(b *testing.B) {
	benchFig8(b, "pgi")
}

// BenchmarkFigure8cCrayPassRate regenerates Fig. 8(c): the flat Cray bars.
func BenchmarkFigure8cCrayPassRate(b *testing.B) {
	benchFig8(b, "cray")
}

// BenchmarkTableIBugCounts regenerates Table I: bugs identified per
// compiler version per language, straight from the versioned bug databases
// the suite's failures trace back to.
func BenchmarkTableIBugCounts(b *testing.B) {
	var rows []string
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, vendor := range []string{"caps", "pgi", "cray"} {
			line := fmt.Sprintf("  %-5s", vendor)
			for _, ver := range vendors.All()[vendor] {
				tc, err := vendors.New(vendor, ver)
				if err != nil {
					b.Fatal(err)
				}
				v := tc.(*vendors.Vendor)
				line += fmt.Sprintf("  %s:C=%d,F=%d", ver,
					len(v.ActiveBugs(ast.LangC)), len(v.ActiveBugs(ast.LangFortran)))
			}
			rows = append(rows, line)
		}
	}
	b.StopTimer()
	b.Logf("Table I — bugs identified per compiler version:\n%s", join(rows))
}

// BenchmarkSweep measures the full cross-version sweep of one vendor in
// both languages, memoized against naive (docs/PERFORMANCE.md, "The
// cross-version sweep memo"; accbench's sweep-cold workload records the
// end-to-end numbers).
// The memoized run must actually share work: zero memo hits fails the
// bench rather than silently measuring two naive sweeps.
func BenchmarkSweep(b *testing.B) {
	for _, vendor := range []string{"caps", "pgi", "cray"} {
		for _, mode := range []struct {
			name   string
			noMemo bool
		}{{"memo", false}, {"naive", true}} {
			b.Run(vendor+"/"+mode.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := sweep.Run(context.Background(), vendor, sweep.Options{
						Langs:      []ast.Lang{ast.LangC, ast.LangFortran},
						Iterations: 3,
						NoMemo:     mode.noMemo,
					})
					if err != nil {
						b.Fatal(err)
					}
					if !mode.noMemo && res.MemoHits == 0 {
						b.Fatalf("memoized %s sweep recorded zero memo hits", vendor)
					}
				}
			})
		}
	}
}

// BenchmarkFigure13TitanHarness regenerates the §VII production workflow:
// screening nodes across the Fig. 13 software stacks and catching an
// injected node fault.
func BenchmarkFigure13TitanHarness(b *testing.B) {
	caught := 0
	for i := 0; i < b.N; i++ {
		h := harness.New(4, harness.DefaultStacks())
		if err := h.InjectFault(2, harness.BadMemory); err != nil {
			b.Fatal(err)
		}
		if _, err := h.ScreenRandomNodes(4, int64(i)+1); err != nil {
			b.Fatal(err)
		}
		deg := h.DetectDegraded(5)
		if len(deg) == 1 && deg[0] == 2 {
			caught++
		}
	}
	b.ReportMetric(float64(caught)/float64(b.N), "fault-detection-rate")
}

// --- ablation and micro benches -----------------------------------------

// BenchmarkVendorMappingAblation compares the simulated kernel cost of a
// worker-level loop under the three vendor gang/worker/vector mappings
// (§II): PGI ignores the worker level, so the same program serializes onto
// one lane and burns more simulated cycles — the "wider performance gaps"
// the paper's introduction observes.
func BenchmarkVendorMappingAblation(b *testing.B) {
	src := `
int acc_test()
{
    int gangs = 4;
    int i, j;
    int acc[4];
    #pragma acc parallel copyout(acc[0:gangs]) num_gangs(gangs) num_workers(8)
    {
        #pragma acc loop gang
        for (i = 0; i < gangs; i++) {
            int t = 0;
            #pragma acc loop worker reduction(+:t)
            for (j = 0; j < 4096; j++)
                t++;
            acc[i] = t;
        }
    }
    return (acc[0] == 4096);
}
`
	for _, vendor := range []string{"caps", "pgi", "cray"} {
		b.Run(vendor, func(b *testing.B) {
			tc, err := vendors.New(vendor, vendors.All()[vendor][len(vendors.All()[vendor])-1])
			if err != nil {
				b.Fatal(err)
			}
			var cycles int64
			for i := 0; i < b.N; i++ {
				res, err := CompileAndRun(src, C, tc, WithSeed(int64(i)))
				if err != nil {
					b.Fatal(err)
				}
				if res.Err != nil || res.Exit != 1 {
					b.Fatalf("run failed: %v exit=%d", res.Err, res.Exit)
				}
				cycles = res.SimCycles
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
}

// BenchmarkKernelGangScaling measures wall time of one interpreted kernel
// as gangs scale — the simulator's own parallel speedup.
func BenchmarkKernelGangScaling(b *testing.B) {
	for _, gangs := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("gangs=%d", gangs), func(b *testing.B) {
			// A compute-heavy kernel (100 flops per element) so the
			// parallel section dominates the host init/verify passes.
			src := fmt.Sprintf(`
int acc_test()
{
    int n = 8192;
    int i, k;
    int errors = 0;
    double a[8192];
    for (i = 0; i < n; i++) a[i] = i;
    #pragma acc parallel copy(a[0:n]) num_gangs(%d)
    {
        #pragma acc loop gang
        for (i = 0; i < n; i++) {
            double s = a[i];
            for (k = 0; k < 100; k++)
                s = s + 0.5;
            a[i] = s;
        }
    }
    for (i = 0; i < n; i++) {
        if (a[i] != i + 50.0) errors++;
    }
    return (errors == 0);
}
`, gangs)
			tc, _ := vendors.New("reference", "")
			for i := 0; i < b.N; i++ {
				res, err := CompileAndRun(src, C, tc)
				if err != nil || res.Err != nil || res.Exit != 1 {
					b.Fatalf("run failed: %v / %v exit=%d", err, res.Err, res.Exit)
				}
			}
		})
	}
}

// BenchmarkTemplateExpansion measures the Fig. 3 generation step for the
// entire registry (both languages, functional + cross).
func BenchmarkTemplateExpansion(b *testing.B) {
	tpls := core.All()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range tpls {
			if _, _, _, err := t.Generate(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(tpls)), "templates")
}

// BenchmarkCompile measures frontend+lowering cost for a representative
// test program in both languages.
func BenchmarkCompile(b *testing.B) {
	for _, lang := range []Language{C, Fortran} {
		tpl := core.Lookup("parallel_num_workers", lang)
		if tpl == nil {
			b.Fatal("template missing")
		}
		src, _, _, err := tpl.Generate()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(lang.String(), func(b *testing.B) {
			tc := Reference()
			for i := 0; i < b.N; i++ {
				prog, err := Parse(src, lang)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := tc.Compile(prog); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCertaintyConvergence measures the §III statistics as the repeat
// count M grows, on the Fig. 2 cross test: the probability that a broken
// implementation slips through, p_a = (1-p)^M, collapses geometrically.
func BenchmarkCertaintyConvergence(b *testing.B) {
	// A deliberately low-contention race: the cross variant shares the
	// scratch scalar between two gangs over a short loop, so the wrong
	// result only appears when the gangs actually interleave — p < 1, and
	// repeated iterations genuinely buy certainty (the reason §III repeats
	// tests at all).
	tpl := &core.Template{
		Name: "private_lowcontention", Lang: ast.LangC, Family: "bench",
		Description: "low-contention private-clause race",
		Source: `    int n = 24;
    int i, errors;
    int t = 0;
    int a[24];
    for (i = 0; i < n; i++) a[i] = 0;
    <acctest:directive cross="#pragma acc parallel copy(a[0:n]) copy(t) num_gangs(2)">#pragma acc parallel copy(a[0:n]) num_gangs(2) private(t)</acctest:directive>
    {
        #pragma acc loop gang
        for (i = 0; i < n; i++) {
            t = i*3;
            a[i] = t + 1;
        }
    }
    errors = 0;
    for (i = 0; i < n; i++) {
        if (a[i] != 3*i + 1) errors++;
    }
    return (errors == 0);
`,
	}
	tc, _ := vendors.New("reference", "")
	for _, m := range []int{1, 2, 3, 5, 8} {
		b.Run(fmt.Sprintf("M=%d", m), func(b *testing.B) {
			var last core.Certainty
			for i := 0; i < b.N; i++ {
				res := core.RunTest(core.Config{Toolchain: tc, Iterations: m}, tpl)
				if res.Outcome.Failed() {
					b.Fatalf("functional failed: %s", res.Detail)
				}
				last = res.Cert
			}
			b.ReportMetric(last.PC*100, "certainty%")
			b.ReportMetric(last.PAccident, "p-accident")
		})
	}
}

// BenchmarkDeviceDataTraffic measures present-table and transfer cost for a
// data region entered repeatedly (the §IV-B data-movement path).
func BenchmarkDeviceDataTraffic(b *testing.B) {
	src := `
int acc_test()
{
    int n = 4096;
    int i, r;
    int a[4096];
    for (i = 0; i < n; i++) a[i] = i;
    for (r = 0; r < 32; r++) {
        #pragma acc parallel loop copy(a[0:n]) num_gangs(4)
        for (i = 0; i < n; i++)
            a[i] = a[i] + 1;
    }
    return (a[0] == 32);
}
`
	tc, _ := vendors.New("reference", "")
	prog, err := Parse(src, C)
	if err != nil {
		b.Fatal(err)
	}
	exe, _, err := tc.Compile(prog)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plat := device.NewPlatform(tc.DeviceConfig(), 1)
		res := runExe(exe, plat)
		if res != 1 {
			b.Fatal("wrong result")
		}
	}
}
