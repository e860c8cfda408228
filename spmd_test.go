package accv

// Tests for the VM's oracle-gated lane batching. Batching is admitted per
// nest by the LaneSafety oracle: proven-independent nests run lockstep
// over lane-batched storage; proven-dependent and unknown nests —
// including the deliberately racy templates — must decline with a stable
// reason and fall back to the goroutine path, producing results identical
// to the tree-walker. A separate check keeps the gate from going vacuous:
// across the corpus, batched nests must dominate declines and every batch
// opcode must be emitted, and a real suite run under the default engine
// must report batched nests through the accv_spmd_* counters.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"accv/internal/bytecode"
	"accv/internal/compiler"
	"accv/internal/core"
)

// findTemplate locates a registered 1.0 template by name.
func findTemplate(t *testing.T, lang Language, name string) *core.Template {
	t.Helper()
	for _, tpl := range core.ByLang(lang) {
		if tpl.Name == name {
			return tpl
		}
	}
	t.Fatalf("template %q not registered for %v", name, lang)
	return nil
}

// TestSPMDOracleGatedFallback pins the batch decision for nests the oracle
// cannot prove independent: the racy templates' cross variants (a
// collapsed subscript and a dropped reduction clause — proven cross-lane
// dependences) and functional templates the oracle classifies dependent or
// unknown. Each must compile with zero batched nests and the expected
// decline reason, and the VM must still produce the same result as the
// tree-walker via the per-nest fallback.
func TestSPMDOracleGatedFallback(t *testing.T) {
	cases := []struct {
		tpl    string
		langs  []Language
		cross  bool // run the bug-witness variant instead of the functional one
		reason string
	}{
		{"loop_gang_write_race", []Language{C, Fortran}, true, "oracle-dependent"},
		{"loop_gang_reduction_race", []Language{C, Fortran}, true, "oracle-dependent"},
		{"loop_independent", []Language{C, Fortran}, false, "oracle-dependent"},
		{"loop_reduction_float_add", []Language{C}, false, "oracle-unknown"},
	}
	for _, tt := range cases {
		for _, lang := range tt.langs {
			name := tt.tpl + "/" + lang.String()
			if tt.cross {
				name += "/cross"
			}
			t.Run(name, func(t *testing.T) {
				tpl := findTemplate(t, lang, tt.tpl)
				functional, cross, hasCross, err := tpl.Generate()
				if err != nil {
					t.Fatal(err)
				}
				src := functional
				if tt.cross {
					if !hasCross {
						t.Fatalf("template %q has no cross variant", tt.tpl)
					}
					src = cross
				}
				prog, err := Parse(src, lang)
				if err != nil {
					t.Fatal(err)
				}
				exe, _, err := Reference().Compile(prog)
				if err != nil {
					t.Fatal(err)
				}
				if len(exe.Batch) != 0 {
					t.Errorf("oracle-unproven nest was batch-lowered (%d nests)", len(exe.Batch))
				}
				if len(exe.BatchDecline) == 0 {
					t.Fatal("no decline reason recorded")
				}
				for _, reason := range exe.BatchDecline {
					if reason != tt.reason {
						t.Errorf("decline reason = %q, want %q", reason, tt.reason)
					}
				}
				// The fallback must be invisible in results. Racy cross
				// variants can be schedule-nondeterministic by design, so a
				// mismatch is only an engine defect if the tree-walker
				// agrees with itself across runs.
				tree := runEngine(t, src, lang, EngineTree)
				vm := runEngine(t, src, lang, EngineVM)
				if tree != vm {
					if again := runEngine(t, src, lang, EngineTree); tree != again {
						t.Skipf("template is schedule-nondeterministic on this machine; cannot compare engines")
					}
					t.Errorf("engines disagree: tree=%+v vm=%+v", tree, vm)
				}
			})
		}
	}
}

type engineOutcome struct {
	Exit      int64
	Output    string
	SimCycles int64
	ErrMsg    string
}

func runEngine(t *testing.T, src string, lang Language, e Engine) engineOutcome {
	t.Helper()
	res, err := CompileAndRun(src, lang, Reference(), WithEngine(e), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	o := engineOutcome{Exit: res.Exit, Output: res.Output, SimCycles: res.SimCycles}
	if res.Err != nil {
		o.ErrMsg = res.Err.Error()
	}
	return o
}

// chunkKernel batches two nests whose lane sets cross the VM's batch
// chunk size. The first gives its 2 gangs 151 and 150 lanes (two full
// chunks and a partial one) split over 3 workers — set by worker(3),
// because the reference device runs num_workers on one worker — with a
// worker-partitioned reduction. Gang 0's workers own 51, 50 and 50 lanes
// and SimCycles follows the slowest worker's op count, so it checks the
// per-lane worker attribution as well. The second is a collapsed nest of
// a different shape, 65 lanes a gang, whose lockstep inner loop over a
// shared counter runs on the same recycled lane storage.
const chunkKernel = `
int acc_test()
{
    int n = 301;
    int i, j, k, check;
    int sum = 0;
    int a[301];
    int b[301];
    double c[10][13];
    for (i = 0; i < n; i++) a[i] = i * 7 % 31;
    #pragma acc parallel copyin(a[0:n]) copyout(b[0:n], c) copy(sum) num_gangs(2)
    {
        #pragma acc loop gang worker(3) reduction(+:sum)
        for (i = 0; i < n; i++) {
            int v = a[i];
            b[i] = v * 3 + 1;
            sum = sum + v;
        }
        #pragma acc loop gang collapse(2)
        for (i = 0; i < 10; i++)
            for (j = 0; j < 13; j++) {
                c[i][j] = i * 0.5 + j;
                for (k = 0; k < 3; k++)
                    c[i][j] = c[i][j] + k;
            }
    }
    check = 0;
    for (i = 0; i < n; i++) check = check * 31 % 1000003 + b[i];
    printf("sum=%d check=%d c=%f\n", sum, check, c[9][12]);
    return (sum > 0);
}
`

// TestBatchChunkBoundaries pins chunked batch execution against the
// tree-walker: chunk boundaries, per-worker partial folds and reuse of
// pooled lane storage across nests must not change a byte of output.
func TestBatchChunkBoundaries(t *testing.T) {
	prog, err := Parse(chunkKernel, C)
	if err != nil {
		t.Fatal(err)
	}
	exe, _, err := Reference().Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(exe.Batch) != 2 {
		t.Fatalf("batch-lowered %d nests (declines %v), want both", len(exe.Batch), exe.BatchDecline)
	}
	tree := runEngine(t, chunkKernel, C, EngineTree)
	vm := runEngine(t, chunkKernel, C, EngineVM)
	if tree.Exit != 1 || tree.ErrMsg != "" {
		t.Fatalf("tree run failed: %+v", tree)
	}
	if tree != vm {
		t.Errorf("engines disagree:\n tree=%+v\n   vm=%+v", tree, vm)
	}
}

// TestUnbatchableNestsFallBack pins proven-independent nests whose bodies
// hold divergent control flow, which the maskless batch lowering declines:
// a branch and a varying inner loop across chunk-sized gangs, and a branch
// guarding a store. Each records the unsupported-construct decline and
// must match the tree-walker on the goroutine path.
func TestUnbatchableNestsFallBack(t *testing.T) {
	cases := []struct{ name, src string }{
		{"branch-and-varying-loop", `
int acc_test()
{
    int n = 300;
    int i, j, check;
    int sum = 0;
    int a[300];
    int b[300];
    double c[10][13];
    for (i = 0; i < n; i++) a[i] = i * 7 % 31;
    #pragma acc parallel copyin(a[0:n]) copyout(b[0:n], c) copy(sum) num_gangs(2)
    {
        #pragma acc loop gang worker(3) reduction(+:sum)
        for (i = 0; i < n; i++) {
            int v = a[i];
            int k;
            if (v % 3 == 0) {
                b[i] = v;
                for (k = 0; k < v; k++)
                    b[i] = b[i] + 2;
            } else
                b[i] = -v;
            sum = sum + v;
        }
        #pragma acc loop gang collapse(2)
        for (i = 0; i < 10; i++)
            for (j = 0; j < 13; j++)
                c[i][j] = i * 0.5 + j;
    }
    check = 0;
    for (i = 0; i < n; i++) check = check * 31 % 1000003 + b[i];
    printf("sum=%d check=%d c=%f\n", sum, check, c[9][12]);
    return (sum > 0);
}
`},
		{"guarded-store", `
int acc_test()
{
    int n = 64;
    int i;
    int a[64];
    for (i = 0; i < n; i++) a[i] = i;
    #pragma acc parallel copy(a[0:n]) num_gangs(2)
    {
        #pragma acc loop gang
        for (i = 0; i < n; i++) {
            if (a[i] > 31)
                a[i] = a[i] * 2;
        }
    }
    return (a[63] == 126);
}
`},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			prog, err := Parse(tt.src, C)
			if err != nil {
				t.Fatal(err)
			}
			exe, _, err := Reference().Compile(prog)
			if err != nil {
				t.Fatal(err)
			}
			declined := false
			for _, reason := range exe.BatchDecline {
				declined = declined || reason == "unsupported-construct"
			}
			if !declined {
				t.Errorf("no nest declined as unsupported-construct (declines %v)", exe.BatchDecline)
			}
			tree := runEngine(t, tt.src, C, EngineTree)
			vm := runEngine(t, tt.src, C, EngineVM)
			if tree.Exit != 1 || tree.ErrMsg != "" {
				t.Fatalf("tree run failed: %+v", tree)
			}
			if tree != vm {
				t.Errorf("engines disagree:\n tree=%+v\n   vm=%+v", tree, vm)
			}
		})
	}
}

// referenceProgram is one program of the reference corpus.
type referenceProgram struct {
	name  string
	lang  Language
	tc    Compiler
	src   string
	cross bool
}

// referenceCorpus lists every program the reference compilers are given:
// the functional and cross variants of each 1.0 template under Reference
// and of each 2.0 template under Reference20, in both languages, and the
// accbench kernels, read in place from internal/bench/testdata/kernels.
func referenceCorpus(t *testing.T) []referenceProgram {
	t.Helper()
	var out []referenceProgram
	for _, lang := range []Language{C, Fortran} {
		for _, set := range []struct {
			tc       Compiler
			registry func(Language) []*core.Template
		}{{Reference(), core.ByLang}, {Reference20(), core.ByLang20}} {
			for _, tpl := range set.registry(lang) {
				functional, cross, hasCross, err := tpl.Generate()
				if err != nil {
					t.Fatalf("%s: generate: %v", tpl.Name, err)
				}
				out = append(out, referenceProgram{tpl.Name, lang, set.tc, functional, false})
				if hasCross {
					out = append(out, referenceProgram{tpl.Name + "/cross", lang, set.tc, cross, true})
				}
			}
		}
	}
	kernels, err := filepath.Glob("internal/bench/testdata/kernels/*.c")
	if err != nil || len(kernels) == 0 {
		t.Fatalf("no accbench kernels found (%v)", err)
	}
	for _, path := range kernels {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, referenceProgram{filepath.Base(path), C, Reference(), string(src), false})
	}
	return out
}

// compile returns the program's executable, or nil for a cross variant
// the reference compiler rejects (removing a directive can leave a
// nested one orphaned).
func (p referenceProgram) compile(t *testing.T) *compiler.Executable {
	t.Helper()
	prog, err := Parse(p.src, p.lang)
	if err != nil {
		t.Fatalf("%s (%s): parse: %v", p.name, p.lang, err)
	}
	exe, _, err := p.tc.Compile(prog)
	if err != nil {
		if p.cross {
			return nil
		}
		t.Fatalf("%s (%s): compile: %v", p.name, p.lang, err)
	}
	return exe
}

// neverEmitted lists the opcodes in (first, last] that counts never saw.
// first is the zero-valued no-op and last closes the opcode block.
func neverEmitted(counts map[bytecode.Op]int, first, last bytecode.Op) []bytecode.Op {
	var out []bytecode.Op
	for op := first + 1; op <= last; op++ {
		if counts[op] == 0 {
			out = append(out, op)
		}
	}
	return out
}

// TestSPMDBatchingNotVacuous guards the oracle gate against silently
// declining everything: the differential suite would still pass with the
// batcher never engaged. Across the reference corpus the compile-time
// lowering must batch far more nests than it declines and emit every
// batch opcode at least once — an opcode no program lowers to is dead
// weight in the dispatch loop — and an actual suite run under the default
// engine must surface nonzero accv_spmd_batched_nests_total alongside the
// expected fallback reasons.
func TestSPMDBatchingNotVacuous(t *testing.T) {
	batched, declined := 0, 0
	emitted := map[bytecode.Op]int{}
	for _, p := range referenceCorpus(t) {
		exe := p.compile(t)
		if exe == nil {
			continue
		}
		batched += len(exe.Batch)
		declined += len(exe.BatchDecline)
		for _, bp := range exe.Batch {
			for _, in := range bp.Code {
				emitted[in.Op]++
			}
		}
	}
	t.Logf("corpus: %d nests batch-lowered, %d declined", batched, declined)
	if batched == 0 {
		t.Fatal("no nest in the corpus batch-lowered; lane batching is vacuous")
	}
	if batched <= declined {
		t.Errorf("batch lowering declined more nests (%d) than it lowered (%d)", declined, batched)
	}
	if dead := neverEmitted(emitted, bytecode.BNop, bytecode.BEndBatch); len(dead) > 0 {
		t.Errorf("batch opcodes %v (internal/bytecode/spmd.go order) are never emitted", dead)
	}

	// Runtime: a suite run on the loop family must batch nests and record
	// the racy template's fallback.
	o := NewObserver()
	r, err := NewRunner(C, WithFamily("loop"), WithIterations(1), WithObs(o))
	if err != nil {
		t.Fatal(err)
	}
	r.Run(Reference())
	var buf bytes.Buffer
	if err := o.WriteMetricsJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	counters := map[string]float64{}
	fallbackReasons := map[string]float64{}
	for _, c := range snap.Counters {
		counters[c.Name] += c.Value
		if c.Name == "accv_spmd_fallback_nests_total" {
			fallbackReasons[c.Labels["reason"]] += c.Value
		}
	}
	if counters["accv_spmd_batched_nests_total"] == 0 {
		t.Error("suite run under the default engine batched zero nests")
	}
	if fallbackReasons["oracle-dependent"] == 0 {
		t.Error("racy cross variants recorded no oracle-dependent fallbacks")
	}
}
