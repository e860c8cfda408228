// The `accval sweep` subcommand: the Fig. 8 cross-version sweep, with
// the persistent result store (-store) keeping executions warm across
// processes and -snapshot-dir feeding `accval diff`.
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"accv"
)

func cmdSweep(args []string, stdout, stderr io.Writer) int {
	var f cliFlags
	fs := newFlagSet("accval sweep", stderr)
	f.registerCommon(fs)
	fs.StringVar(&f.store, "store", "", "persistent result-store directory: warm from and write through it (docs/STORE.md)")
	fs.IntVar(&f.storeCap, "store-cap", 0, "result-store entry cap, LRU-evicted past it (0: default 65536, negative: unbounded)")
	fs.StringVar(&f.snapshotDir, "snapshot-dir", "", "write one release snapshot per swept (version, lang) into this directory (for accval diff)")
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
	opts := append(runOpts, accv.WithLangs(langs...))
	if f.store != "" {
		st, err := accv.OpenStore(f.store, accv.WithObs(observer), accv.WithStoreCap(f.storeCap))
		if err != nil {
			return fail(stderr, err)
		}
		opts = append(opts, accv.WithResultStore(st))
	}
	res, err := accv.RunSweep(context.Background(), f.compiler, opts...)
	if err != nil {
		return fail(stderr, err)
	}
	printSweepTable(stdout, f.compiler, res)
	// Store telemetry goes to stderr only, keeping stdout identical with
	// and without -store.
	if f.store != "" {
		fmt.Fprintf(stderr, "accval: store %s: %d disk hits, %d memo hits, %d executions this sweep\n",
			f.store, res.StoreHits, res.MemoHits, res.MemoMisses)
	}
	if f.snapshotDir != "" {
		if err := writeSweepSnapshots(f.snapshotDir, res); err != nil {
			return fail(stderr, err)
		}
	}
	if err := f.exportObs(observer, stdout); err != nil {
		return fail(stderr, err)
	}
	return 0
}

// printSweepTable renders the Fig. 8 pass-rate table.
func printSweepTable(w io.Writer, vendor string, res *accv.SweepResult) {
	fmt.Fprintf(w, "Pass rate (%%) by %s version — Fig. 8 reproduction\n\n", vendor)
	fmt.Fprintf(w, "%-10s", "version")
	for _, l := range res.Langs {
		fmt.Fprintf(w, "  %10s", l.String()+" test")
	}
	fmt.Fprintln(w)
	for vi, ver := range res.Versions {
		fmt.Fprintf(w, "%-10s", ver)
		for li := range res.Langs {
			fmt.Fprintf(w, "  %9.1f%%", res.Cells[vi][li].PassRate())
		}
		fmt.Fprintln(w)
	}
}

// writeSweepSnapshots writes one release snapshot per swept
// (version, lang) cell into dir, named <vendor>-<version>-<lang>.json —
// the inputs `accval diff` compares across releases.
func writeSweepSnapshots(dir string, res *accv.SweepResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for vi, ver := range res.Versions {
		for li, l := range res.Langs {
			cell := res.Cells[vi][li]
			if cell == nil {
				continue
			}
			name := fmt.Sprintf("%s-%s-%s.json", res.Vendor, ver, l)
			f, err := os.Create(filepath.Join(dir, name))
			if err != nil {
				return err
			}
			if err := accv.WriteSnapshot(f, accv.SnapshotOf(cell)); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
	}
	return nil
}
