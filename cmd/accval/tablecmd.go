// The table verbs: `accval list` (the registered features), `accval
// bugs` (a vendor's bug database) and `accval matrix` (the feature ×
// compiler pass/fail table). None of them writes a report or a store.
package main

import (
	"fmt"
	"io"

	"accv"
)

func cmdList(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("accval list", stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	printFeatures(stdout)
	return 0
}

func cmdBugs(args []string, stdout, stderr io.Writer) int {
	var f cliFlags
	fs := newFlagSet("accval bugs", stderr)
	fs.StringVar(&f.compiler, "compiler", "", "vendor whose bug database to print: caps, pgi, or cray")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	return printBugs(&f, stdout, stderr)
}

func cmdMatrix(args []string, stdout, stderr io.Writer) int {
	var f cliFlags
	fs := newFlagSet("accval matrix", stderr)
	f.registerCommon(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	return runMatrix(&f, stdout, stderr)
}

// printBugs renders the vendor's bug database — Table I's ground truth.
func printBugs(f *cliFlags, stdout, stderr io.Writer) int {
	db := accv.BugDatabase(f.compiler)
	if db == nil {
		return fail(stderr, fmt.Errorf("no bug database for %q (want caps, pgi, or cray)", f.compiler))
	}
	fmt.Fprintf(stdout, "%s bug database: %d entries\n\n", f.compiler, len(db))
	fmt.Fprintf(stdout, "%-34s %-8s %-11s %-10s %s\n", "id", "lang", "introduced", "fixed-in", "title")
	for _, b := range db {
		intro, fixed := b.Introduced, b.FixedIn
		if intro == "" {
			intro = "(first)"
		}
		if fixed == "" {
			fixed = "(never)"
		}
		fmt.Fprintf(stdout, "%-34s %-8s %-11s %-10s %s\n", b.ID, b.Lang, intro, fixed, b.Title)
	}
	return 0
}

// printFeatures lists the registered test features by family.
func printFeatures(stdout io.Writer) {
	for _, fam := range accv.Families() {
		fmt.Fprintf(stdout, "%s:\n", fam)
		for _, t := range accv.AllTemplates() {
			if t.Family == fam && t.Lang == accv.C {
				fmt.Fprintf(stdout, "  %-36s %s\n", t.Name, t.Description)
			}
		}
	}
}

// runMatrix prints the per-feature pass/fail table against the three
// vendor compilers — the "tabular column" §VI describes but omits for
// space. One Runner built from the shared flags validates every
// compiler, so -j, -timeout, -fail-fast, -vet, -engine, -trace and
// -metrics apply exactly as they do to `accval run`.
func runMatrix(f *cliFlags, stdout, stderr io.Writer) int {
	observer, err := f.observer()
	if err != nil {
		return fail(stderr, err)
	}
	langs, err := parseLangs(f.lang)
	if err != nil {
		return fail(stderr, err)
	}
	lang := langs[0]
	runOpts, err := f.runOptions(observer)
	if err != nil {
		return fail(stderr, err)
	}
	var compilers []accv.Compiler
	for _, v := range accv.Vendors() {
		ver := f.version
		if ver == "" {
			vs := accv.Versions(v)
			ver = vs[len(vs)-1]
		}
		tc, err := accv.NewCompiler(v, ver)
		if err != nil {
			return fail(stderr, err)
		}
		compilers = append(compilers, tc)
	}
	r, err := accv.NewRunner(lang, runOpts...)
	if err != nil {
		return fail(stderr, err)
	}
	results := make([]*accv.SuiteResult, len(compilers))
	for i, tc := range compilers {
		results[i] = r.Run(tc)
	}

	fmt.Fprintf(stdout, "Feature × compiler matrix (%s tests)\n\n", lang)
	fmt.Fprintf(stdout, "%-36s", "feature")
	for _, tc := range compilers {
		fmt.Fprintf(stdout, "  %-14s", tc.Name()+" "+tc.Version())
	}
	fmt.Fprintln(stdout)
	for ti, tpl := range r.Templates() {
		fmt.Fprintf(stdout, "%-36s", tpl.Name)
		for _, res := range results {
			cell := "pass"
			if out := res.Results[ti].Outcome; out.Failed() {
				cell = "FAIL(" + shortOutcome(out.String()) + ")"
			}
			fmt.Fprintf(stdout, "  %-14s", cell)
		}
		fmt.Fprintln(stdout)
	}
	if err := f.exportObs(observer, stdout); err != nil {
		return fail(stderr, err)
	}
	return 0
}

// shortOutcome abbreviates outcome names for matrix cells.
func shortOutcome(s string) string {
	switch s {
	case "compilation error":
		return "compile"
	case "incorrect results":
		return "wrong"
	case "time out":
		return "hang"
	case "vet findings":
		return "vet"
	}
	return s
}
