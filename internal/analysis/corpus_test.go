package analysis_test

// The corpus contract: the analyzer runs over every built-in template's
// functional variant and must report nothing — the suite's own tests are
// either hazard-free or carry an explicit accvet:ignore annotation naming
// the hazard they exercise on purpose. The set of annotated templates is
// pinned below so a template can neither grow a silent hazard nor lose its
// annotation without this test noticing.

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"accv/internal/analysis"
	"accv/internal/ast"
	"accv/internal/cfront"
	"accv/internal/core"
	"accv/internal/ffront"
	_ "accv/internal/templates"
)

// parseTemplate expands a template's functional variant and parses it.
func parseTemplate(t *testing.T, tpl *core.Template) *ast.Program {
	t.Helper()
	functional, _, _, err := tpl.Generate()
	if err != nil {
		t.Fatalf("%s: generate: %v", tpl.ID(), err)
	}
	var prog *ast.Program
	if tpl.Lang == ast.LangFortran {
		prog, err = ffront.Parse(functional)
	} else {
		prog, err = cfront.Parse(functional)
	}
	if err != nil {
		t.Fatalf("%s: parse: %v", tpl.ID(), err)
	}
	return prog
}

// Templates whose functional variant intentionally exercises a hazard; the
// template source carries a matching ignore annotation.
var annotatedTemplates = map[string]string{
	"acc_set_device_type.c":       "ACV001",
	"acc_set_device_type.fortran": "ACV001",
	"data_copyin.c":               "ACV001",
	"data_copyin.fortran":         "ACV001",
	"data_copyout_uninit.c":       "ACV002",
	"data_copyout_uninit.fortran": "ACV002",
	"data_create.c":               "ACV001",
	"data_create.fortran":         "ACV001",
	"data_pcopyin.c":              "ACV001",
	"data_pcopyin.fortran":        "ACV001",
	"data_pcreate.c":              "ACV001",
	"data_pcreate.fortran":        "ACV001",
	"declare_copyin.c":            "ACV001",
	"declare_copyin.fortran":      "ACV001",
	"declare_create.c":            "ACV001",
	"declare_create.fortran":      "ACV001",
	"env_acc_device_type.c":       "ACV001",
	"env_acc_device_type.fortran": "ACV001",
	"kernels_copyin.c":            "ACV001",
	"kernels_copyin.fortran":      "ACV001",
	"kernels_create.c":            "ACV001",
	"kernels_create.fortran":      "ACV001",
	"kernels_pcopyin.c":           "ACV001",
	"kernels_pcopyin.fortran":     "ACV001",
	"kernels_pcreate.c":           "ACV001",
	"kernels_pcreate.fortran":     "ACV001",
	"loop_independent.c":          "ACV004",
	"loop_independent.fortran":    "ACV004",
	"parallel_copyin.c":           "ACV001",
	"parallel_copyin.fortran":     "ACV001",
	"parallel_create.c":           "ACV001",
	"parallel_create.fortran":     "ACV001",
	"parallel_pcopyin.c":          "ACV001",
	"parallel_pcopyin.fortran":    "ACV001",
	"parallel_pcreate.c":          "ACV001",
	"parallel_pcreate.fortran":    "ACV001",
}

// TestCorpusClean asserts zero unsuppressed findings over the whole
// built-in corpus: the zero-false-positive contract.
func TestCorpusClean(t *testing.T) {
	for _, tpl := range core.All() {
		prog := parseTemplate(t, tpl)
		rep := analysis.Analyze(prog, analysis.Options{})
		for _, f := range rep.Findings {
			t.Errorf("%s: unexpected finding: %s", tpl.ID(), f)
		}
	}
}

// TestCorpusAnnotations asserts that exactly the pinned templates carry
// suppressed findings, with the pinned analyzer IDs.
func TestCorpusAnnotations(t *testing.T) {
	got := map[string]string{}
	for _, tpl := range core.All() {
		prog := parseTemplate(t, tpl)
		rep := analysis.Analyze(prog, analysis.Options{NoSuppress: true})
		ids := map[string]bool{}
		for _, f := range rep.Findings {
			ids[f.ID] = true
		}
		if len(ids) == 0 {
			continue
		}
		var list []string
		for id := range ids {
			list = append(list, id)
		}
		sort.Strings(list)
		got[tpl.ID()] = strings.Join(list, ",")
	}
	for id, want := range annotatedTemplates {
		if got[id] != want {
			t.Errorf("%s: annotated findings = %q, want %q", id, got[id], want)
		}
	}
	for id, ids := range got {
		if _, ok := annotatedTemplates[id]; !ok {
			t.Errorf("%s: has findings (%s) but is not in the annotated-template list", id, ids)
		}
	}
}

// raceTemplateCrossFindings pins the race templates' cross variants: the
// cross substitution removes exactly the synchronization the feature
// provides, so the lane-race analyzers must fire on the cross source while
// TestCorpusClean keeps the functional source silent. This is the static
// half of the -race-check differential (docs/ANALYSIS.md).
var raceTemplateCrossFindings = map[string]string{
	"loop_gang_write_race":     "ACV007",
	"loop_gang_reduction_race": "ACV010",
}

// TestRaceTemplateCrossVariants analyzes the cross variant of each race
// template and asserts the pinned analyzer fires in both languages.
func TestRaceTemplateCrossVariants(t *testing.T) {
	for name, wantID := range raceTemplateCrossFindings {
		for _, lang := range []ast.Lang{ast.LangC, ast.LangFortran} {
			tpl := core.Lookup(name, lang)
			if tpl == nil {
				t.Fatalf("template %s missing for %v", name, lang)
			}
			_, cross, hasCross, err := tpl.Generate()
			if err != nil || !hasCross {
				t.Fatalf("%s: generate: %v (hasCross=%v)", tpl.ID(), err, hasCross)
			}
			var prog *ast.Program
			if lang == ast.LangFortran {
				prog, err = ffront.Parse(cross)
			} else {
				prog, err = cfront.Parse(cross)
			}
			if err != nil {
				t.Fatalf("%s: parse cross: %v", tpl.ID(), err)
			}
			rep := analysis.Analyze(prog, analysis.Options{})
			found := false
			for _, f := range rep.Findings {
				if f.ID == wantID {
					found = true
				}
			}
			if !found {
				t.Errorf("%s cross variant: want %s, got %v", tpl.ID(), wantID, rep.Findings)
			}
		}
	}
}

// TestCorpusSuppressionRoundTrip asserts every suppressed finding would
// reappear with suppression disabled — annotations hide real findings,
// they are not dead comments.
func TestCorpusSuppressionRoundTrip(t *testing.T) {
	total := 0
	for _, tpl := range core.All() {
		prog := parseTemplate(t, tpl)
		clean := analysis.Analyze(prog, analysis.Options{})
		raw := analysis.Analyze(prog, analysis.Options{NoSuppress: true})
		if clean.Suppressed != len(raw.Findings)-len(clean.Findings) {
			t.Errorf("%s: suppressed=%d but raw-clean=%d", tpl.ID(),
				clean.Suppressed, len(raw.Findings)-len(clean.Findings))
		}
		total += clean.Suppressed
	}
	if total != len(annotatedTemplates) {
		t.Errorf("corpus-wide suppressed findings = %d, want %d", total, len(annotatedTemplates))
	}
}

// ExampleWriteText demonstrates the text renderer.
func ExampleWriteText() {
	findings := []analysis.Finding{{
		ID: "ACV001", Sev: analysis.Warning,
		Pos:  ast.Pos{Line: 12, Col: 9},
		Func: "acc_test", Var: "a",
		Message: `host reads "a" but the device copy was modified`,
	}}
	var sb strings.Builder
	_ = analysis.WriteText(&sb, "demo.c", findings)
	fmt.Print(sb.String())
	// Output: demo.c:12:9: ACV001 warning: host reads "a" but the device copy was modified
}
