// validate-vendor: the paper's primary workflow — run the full validation
// suite against a simulated vendor compiler, print the report, and show the
// bug-report excerpt a vendor would receive.
//
//	go run ./examples/validate-vendor
package main

import (
	"fmt"
	"os"
	"strings"

	"accv"
)

func main() {
	// PGI 13.2 is the interesting release: the multi-target reorganization
	// regressed the kernels data lowering (the Fig. 8(b) dip), while the
	// async family of Fig. 10 persists.
	tc, err := accv.NewCompiler("pgi", "13.2")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	for _, lang := range []accv.Language{accv.C, accv.Fortran} {
		r, err := accv.NewRunner(lang, accv.WithIterations(3))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		res := r.Run(tc)
		fmt.Printf("== %s %s, %s tests: %d/%d passed (%.1f%%) ==\n",
			res.Compiler, res.Version, lang, res.Passed(), res.Total(), res.PassRate())
		byOutcome := res.ByOutcome()
		for outcome, n := range byOutcome {
			if outcome.Failed() {
				fmt.Printf("   %-18s %d\n", outcome, n)
			}
		}
		if ids := res.FailedBugIDs(); len(ids) > 0 {
			fmt.Printf("   compile-time diagnostics traced to: %s\n", strings.Join(ids, ", "))
		}
		fmt.Println()

		if lang == accv.C {
			// The vendor-facing bug report includes the generated test
			// programs; show the first screenful.
			var sb strings.Builder
			if err := accv.WriteBugReport(&sb, res); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			lines := strings.SplitN(sb.String(), "\n", 40)
			fmt.Println(strings.Join(lines[:min(len(lines), 39)], "\n"))
			fmt.Println("   ... (full report via: accval run -compiler pgi -version 13.2 -bugreport)")
			fmt.Println()
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
