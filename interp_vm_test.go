package accv

// Differential tests for the execution engines: the bytecode VM (default),
// lane batching included, must be observationally identical to the
// reference tree-walking interpreter on the complete template corpus —
// same outcomes, same details, same cross-test statistics, byte-for-byte
// identical rendered reports. The VM and its batcher earn their speed only
// by doing exactly what the tree-walker does (docs/PERFORMANCE.md); this
// suite is the enforcement.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"accv/internal/bytecode"
	"accv/internal/core"
)

// engineReport runs the full suite for lang on tc under engine e and
// renders the Text report with the wall-clock fields — the only
// legitimately nondeterministic data in a SuiteResult — zeroed out.
// spec20 selects the OpenACC 2.0 template set (run against Reference20).
func engineReport(t testing.TB, lang Language, tc Compiler, e Engine, spec20 bool) []byte {
	t.Helper()
	newRunner, registry := NewRunner, core.ByLang
	if spec20 {
		newRunner, registry = NewRunner20, core.ByLang20
	}
	r, err := newRunner(lang, WithEngine(e), WithIterations(2))
	if err != nil {
		t.Fatal(err)
	}
	res := r.Run(tc)
	if res.Total() != len(registry(lang)) {
		t.Fatalf("suite ran %d tests, registry has %d", res.Total(), len(registry(lang)))
	}
	res.Duration = 0
	for i := range res.Results {
		res.Results[i].Duration = 0
	}
	var buf bytes.Buffer
	if err := WriteReport(&buf, res, Text); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// firstDiff locates the first differing line of two renderings.
func firstDiff(a, b []byte) string {
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < len(al) || i < len(bl); i++ {
		var av, bv []byte
		if i < len(al) {
			av = al[i]
		}
		if i < len(bl) {
			bv = bl[i]
		}
		if !bytes.Equal(av, bv) {
			return fmt.Sprintf("line %d:\n  tree:  %s\n  other: %s", i+1, av, bv)
		}
	}
	return "(no differing line?)"
}

// TestEngineDifferentialReports runs every registered template through
// both engines and requires byte-identical suite reports. Coverage spans
// both languages on the reference compiler plus a heavily-bugged vendor
// release, so miscompiled plans and vendor hooks go through the VM and its
// lane batcher too. If the VM disagrees with the tree-walker, the
// tree-walker is re-run once: a tree-vs-tree mismatch means the corpus
// itself went schedule-nondeterministic on this machine (not an engine
// defect), and the comparison is skipped.
func TestEngineDifferentialReports(t *testing.T) {
	pgi, err := NewCompiler("pgi", "13.2")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		lang   Language
		tc     Compiler
		spec20 bool
	}{
		{"reference-c", C, Reference(), false},
		{"reference-fortran", Fortran, Reference(), false},
		{"pgi13.2-c", C, pgi, false},
		// The OpenACC 2.0 future-work set, so all 214 registered templates
		// (206 1.0 + 8 2.0) go through every engine.
		{"reference20-c", C, Reference20(), true},
		{"reference20-fortran", Fortran, Reference20(), true},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			tree := engineReport(t, tt.lang, tt.tc, EngineTree, tt.spec20)
			got := engineReport(t, tt.lang, tt.tc, EngineVM, tt.spec20)
			if bytes.Equal(tree, got) {
				return
			}
			if again := engineReport(t, tt.lang, tt.tc, EngineTree, tt.spec20); !bytes.Equal(tree, again) {
				t.Skipf("suite is schedule-nondeterministic on this machine (tree-vs-tree differs); cannot byte-compare engines")
			}
			t.Errorf("the VM diverged from the tree-walker; first difference at %s", firstDiff(tree, got))
		})
	}
}

// TestEngineDifferentialCoversTheVM guards the differential suite against
// vacuity: if the lowerer silently declined everything, the VM engine would
// trivially equal the tree-walker because it never executed bytecode. Every
// program of the reference corpus must compile to a module that lowered at
// least one procedure, lowered procs must dominate, and every scalar
// opcode must be emitted at least once — an opcode no program lowers to is
// dead weight in the dispatch loop.
func TestEngineDifferentialCoversTheVM(t *testing.T) {
	lowered, declined, programs := 0, 0, 0
	emitted := map[bytecode.Op]int{}
	for _, p := range referenceCorpus(t) {
		exe := p.compile(t)
		if exe == nil {
			continue
		}
		if exe.Code == nil {
			t.Fatalf("%s: executable has no bytecode module", p.name)
		}
		if exe.Code.Lowered == 0 {
			t.Errorf("%s (%s): no procedure lowered to bytecode", p.name, p.lang)
		}
		for _, proc := range exe.Code.Procs() {
			for _, in := range proc.Code {
				emitted[in.Op]++
			}
		}
		lowered += exe.Code.Lowered
		declined += exe.Code.Declined
		programs++
	}
	t.Logf("corpus: %d programs, %d procs lowered, %d declined", programs, lowered, declined)
	if lowered <= declined {
		t.Errorf("lowerer declined more procs (%d) than it lowered (%d); the VM hot path is not covered", declined, lowered)
	}
	if dead := neverEmitted(emitted, bytecode.OpNop, bytecode.OpEnd); len(dead) > 0 {
		t.Errorf("scalar opcodes %v (internal/bytecode/bytecode.go order) are never emitted", dead)
	}
}

// TestCompileCacheHitsOnRepeatedRuns drives the acceptance criterion for
// the compiled-program cache in the shape the accvd daemon uses it: a
// Runner handed one shared cache (WithCompileCache) and re-run must be
// served from it, visible through accv_compile_cache_hits_total. A Runner
// or RunSweep built without the option caches nothing and records no
// cache traffic at all.
func TestCompileCacheHitsOnRepeatedRuns(t *testing.T) {
	counter := func(o *Observer, name string) float64 {
		var buf bytes.Buffer
		if err := o.WriteMetricsJSON(&buf); err != nil {
			t.Fatal(err)
		}
		var snap MetricsSnapshot
		if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
			t.Fatal(err)
		}
		var total float64
		for _, c := range snap.Counters {
			if c.Name == name {
				total += c.Value
			}
		}
		return total
	}

	bare := NewObserver()
	plain, err := NewRunner(C, WithFamily("data"), WithIterations(1), WithObs(bare))
	if err != nil {
		t.Fatal(err)
	}
	plain.Run(Reference())
	if _, err := RunSweep(context.Background(), "pgi", WithFamily("data"), WithIterations(1), WithObs(bare)); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"accv_compile_cache_hits_total", "accv_compile_cache_misses_total"} {
		if n := counter(bare, name); n != 0 {
			t.Errorf("Runner and RunSweep without WithCompileCache recorded %s = %v, want 0", name, n)
		}
	}

	o := NewObserver()
	r, err := NewRunner(C, WithFamily("data"), WithIterations(1), WithObs(o),
		WithCompileCache(NewCompileCache()))
	if err != nil {
		t.Fatal(err)
	}
	r.Run(Reference())
	if hits := counter(o, "accv_compile_cache_hits_total"); hits != 0 {
		t.Errorf("first run reported %v cache hits, want 0 (nothing cached yet)", hits)
	}
	missesAfterFirst := counter(o, "accv_compile_cache_misses_total")
	if missesAfterFirst == 0 {
		t.Fatal("first run reported no cache misses; is WithCompileCache wired up?")
	}

	r.Run(Reference())
	hits := counter(o, "accv_compile_cache_hits_total")
	newMisses := counter(o, "accv_compile_cache_misses_total") - missesAfterFirst
	if hits == 0 {
		t.Error("second run never hit the cache")
	}
	// Failed compilations are never cached (there is no Executable to
	// store), so each re-misses; everything else must be served from the
	// cache. Together the two cover the first run exactly.
	if hits+newMisses != missesAfterFirst {
		t.Errorf("second run: %v hits + %v new misses != %v first-run compilations", hits, newMisses, missesAfterFirst)
	}
	if newMisses >= hits {
		t.Errorf("second run re-missed %v compilations vs %v hits; cache is not doing its job", newMisses, hits)
	}
}
