// Package core implements the validation testsuite itself — the paper's
// primary contribution: template-based test generation (functional and
// cross variants), the execution harness with failure classification, and
// the statistical certainty analysis of §III.
//
// A test template is written in an HTML-like tagged syntax (Fig. 3). The
// body between <acctest:code> tags is the test program; within it,
//
//	<acctest:directive cross="REPLACEMENT">TEXT</acctest:directive>
//
// marks the directive under test: the functional variant keeps TEXT, the
// cross variant substitutes REPLACEMENT (possibly empty, which removes the
// directive — the Fig. 2 methodology). The same tag with name
// <acctest:alt> substitutes arbitrary non-directive code, used by tests
// like Fig. 6 whose cross variant flips an expected value instead of a
// directive.
package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"accv/internal/ast"
)

// Template is one test case of the suite, for one feature in one language.
type Template struct {
	// Name is the feature identifier, e.g. "parallel_num_gangs".
	Name string
	// Lang is the source language of the test program.
	Lang ast.Lang
	// Family groups features for reporting ("parallel", "data", "loop",
	// "update", "host_data", "declare", "runtime", "env", ...).
	Family string
	// Description states what the test validates.
	Description string
	// Source is the tagged template body (the contents of acctest:code).
	Source string
	// Env provides ACC_* environment variables for the run.
	Env map[string]string
	// NoCross marks tests without a cross variant (runtime routines and
	// environment tests, where removing "the directive" is meaningless).
	NoCross bool
	// TopLevel holds helper procedures placed outside the entry procedure
	// (before it in C, after the program unit in Fortran).
	TopLevel string
	// Spec20 marks OpenACC 2.0 tests (the paper's in-progress future work);
	// they are excluded from 1.0 suite selections and require a compiler
	// configured for the 2.0 specification.
	Spec20 bool
}

// ID returns the unique test identifier "name.lang".
func (t *Template) ID() string { return t.Name + "." + t.Lang.String() }

// tagError reports a malformed template.
type tagError struct {
	Name string
	Msg  string
}

func (e *tagError) Error() string { return fmt.Sprintf("template %s: %s", e.Name, e.Msg) }

// Generate expands the template into the functional and cross test
// programs. hasCross is false when the template carries no substitution
// markers (or is flagged NoCross).
func (t *Template) Generate() (functional, cross string, hasCross bool, err error) {
	fBody, cBody, n, err := expand(t.Source, t.Name)
	if err != nil {
		return "", "", false, err
	}
	fTop, cTop, nTop, err := expand(t.TopLevel, t.Name)
	if err != nil {
		return "", "", false, err
	}
	functional = wrap(t.Lang, fBody, fTop)
	cross = wrap(t.Lang, cBody, cTop)
	hasCross = n+nTop > 0 && !t.NoCross
	return functional, cross, hasCross, nil
}

// genResult is one cached template expansion together with every input
// that shaped it, so a mutated template (ad-hoc tests rewrite Source
// between calls) invalidates instead of serving stale sources.
type genResult struct {
	source, topLevel, name string
	lang                   ast.Lang
	noCross                bool

	functional, cross string
	hasCross          bool
	err               error
}

// genCache shares one expansion per *Template across suite runs, sweep
// cells, and fingerprint computations. Registry templates are immutable
// package-level values, so the common hit path is a pointer-equal string
// compare; genCacheCap bounds growth from ephemeral ad-hoc templates
// (CompileAndRun builds one per call) — past it new templates are simply
// expanded uncached.
var (
	genCache    sync.Map // *Template → *genResult
	genCacheLen atomic.Int64
)

const genCacheCap = 8192

// GenerateCached is Generate through the per-template expansion cache:
// the first call per (template, inputs) pays expand+wrap, later calls —
// every other sweep cell and every fingerprint probe touching the
// template — return the shared strings. Results alias the cached copy;
// callers must not mutate them (Generate's are equally shared by value
// semantics: strings are immutable).
func (t *Template) GenerateCached() (functional, cross string, hasCross bool, err error) {
	if v, ok := genCache.Load(t); ok {
		g := v.(*genResult)
		if g.source == t.Source && g.topLevel == t.TopLevel && g.name == t.Name &&
			g.lang == t.Lang && g.noCross == t.NoCross {
			return g.functional, g.cross, g.hasCross, g.err
		}
	}
	functional, cross, hasCross, err = t.Generate()
	if _, stale := genCache.Load(t); stale || genCacheLen.Load() < genCacheCap {
		if _, loaded := genCache.Swap(t, &genResult{
			source: t.Source, topLevel: t.TopLevel, name: t.Name,
			lang: t.Lang, noCross: t.NoCross,
			functional: functional, cross: cross, hasCross: hasCross, err: err,
		}); !loaded {
			genCacheLen.Add(1)
		}
	}
	return functional, cross, hasCross, err
}

// expand processes acctest:directive / acctest:alt tags. It returns the
// functional body, the cross body, and the number of substitution markers.
func expand(src, name string) (functional, cross string, markers int, err error) {
	var fb, cb strings.Builder
	rest := src
	for {
		i := strings.Index(rest, "<acctest:")
		if i < 0 {
			fb.WriteString(rest)
			cb.WriteString(rest)
			break
		}
		fb.WriteString(rest[:i])
		cb.WriteString(rest[:i])
		rest = rest[i:]

		// Parse "<acctest:NAME" then optional cross="..." then ">".
		end := strings.IndexByte(rest, '>')
		if end < 0 {
			return "", "", 0, &tagError{name, "unterminated acctest tag"}
		}
		open := rest[:end]
		tagName := open[len("<acctest:"):]
		if j := strings.IndexAny(tagName, " \t"); j >= 0 {
			tagName = tagName[:j]
		}
		if tagName != "directive" && tagName != "alt" {
			return "", "", 0, &tagError{name, fmt.Sprintf("unknown tag <acctest:%s>", tagName)}
		}
		crossRepl := ""
		if k := strings.Index(open, `cross="`); k >= 0 {
			tail := open[k+len(`cross="`):]
			q := strings.IndexByte(tail, '"')
			if q < 0 {
				return "", "", 0, &tagError{name, "unterminated cross attribute"}
			}
			crossRepl = tail[:q]
		}
		closeTag := fmt.Sprintf("</acctest:%s>", tagName)
		bodyStart := end + 1
		bodyEnd := strings.Index(rest[bodyStart:], closeTag)
		if bodyEnd < 0 {
			return "", "", 0, &tagError{name, "missing " + closeTag}
		}
		body := rest[bodyStart : bodyStart+bodyEnd]
		fb.WriteString(body)
		cb.WriteString(crossRepl)
		markers++
		rest = rest[bodyStart+bodyEnd+len(closeTag):]
	}
	return fb.String(), cb.String(), markers, nil
}

// wrap embeds the test body in the language's standard harness program.
// The entry procedure returns 1 on pass and 0 on fail; the Fortran harness
// reports through the test_result variable.
func wrap(lang ast.Lang, body, toplevel string) string {
	if lang == ast.LangFortran {
		s := "program acc_testcase\n  implicit none\n" + body + "\nend program acc_testcase\n"
		if toplevel != "" {
			s += "\n" + toplevel + "\n"
		}
		return s
	}
	s := "#include <stdio.h>\n#include <stdlib.h>\n#include <math.h>\n#include <openacc.h>\n\n"
	if toplevel != "" {
		s += toplevel + "\n"
	}
	return s + "int acc_test()\n{\n" + body + "\n}\n"
}
