// The `accval run` subcommand: one suite run against one compiler
// release, with an optional release snapshot for `accval diff`.
package main

import (
	"fmt"
	"io"
	"os"
	"sort"

	"accv"
)

func cmdRun(args []string, stdout, stderr io.Writer) int {
	var f cliFlags
	fs := newFlagSet("accval run", stderr)
	f.registerCommon(fs)
	fs.StringVar(&f.format, "format", "text", "report format: text, csv, or html")
	fs.StringVar(&f.out, "o", "", "write the report to a file instead of stdout")
	fs.BoolVar(&f.bugReport, "bugreport", false, "append the per-failure bug report with code snippets")
	fs.StringVar(&f.snapshot, "snapshot", "", "also write a release snapshot (JSON) for `accval diff`")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	observer, err := f.observer()
	if err != nil {
		return fail(stderr, err)
	}
	langs, err := parseLangs(f.lang)
	if err != nil {
		return fail(stderr, err)
	}
	runOpts, err := f.runOptions(observer)
	if err != nil {
		return fail(stderr, err)
	}
	ver := f.version
	if ver == "" {
		if vs := accv.Versions(f.compiler); len(vs) > 0 {
			ver = vs[len(vs)-1]
		}
	}
	tc, err := accv.NewCompiler(f.compiler, ver)
	if err != nil {
		return fail(stderr, err)
	}
	w := stdout
	if f.out != "" {
		file, err := os.Create(f.out)
		if err != nil {
			return fail(stderr, err)
		}
		defer file.Close()
		w = file
	}
	fm, err := parseFormat(f.format)
	if err != nil {
		return fail(stderr, err)
	}
	exit := 0
	var results []*accv.SuiteResult
	for _, l := range langs {
		r, err := accv.NewRunner(l, runOpts...)
		if err != nil {
			return fail(stderr, err)
		}
		res := r.Run(tc)
		results = append(results, res)
		if err := accv.WriteReport(w, res, fm); err != nil {
			return fail(stderr, err)
		}
		if f.bugReport {
			fmt.Fprintln(w)
			if err := accv.WriteBugReport(w, res); err != nil {
				return fail(stderr, err)
			}
		}
		if res.Failed() > 0 {
			exit = 1
		}
	}
	if f.snapshot != "" {
		if err := writeSnapshotFile(f.snapshot, results); err != nil {
			return fail(stderr, err)
		}
	}
	if err := f.exportObs(observer, stdout); err != nil {
		return fail(stderr, err)
	}
	return exit
}

// writeSnapshotFile merges the per-language suite results of one release
// into a single snapshot file (records sorted by template ID, so -lang
// both produces one deterministic snapshot).
func writeSnapshotFile(path string, results []*accv.SuiteResult) error {
	if len(results) == 0 {
		return fmt.Errorf("snapshot: no suite results to record")
	}
	snap := accv.SnapshotOf(results[0])
	for _, res := range results[1:] {
		snap.Results = append(snap.Results, accv.SnapshotOf(res).Results...)
	}
	sort.Slice(snap.Results, func(i, j int) bool {
		return snap.Results[i].ID() < snap.Results[j].ID()
	})
	w, err := os.Create(path)
	if err != nil {
		return err
	}
	defer w.Close()
	return accv.WriteSnapshot(w, snap)
}
