// Command accval runs the OpenACC 1.0 validation suite against a
// simulated compiler and reports the results — the paper's primary
// workflow — through a subcommand CLI:
//
//	accval run    -compiler pgi -version 13.2 -lang c     # one suite run
//	accval run    -compiler pgi -snapshot pgi-14.1.json   # + release snapshot
//	accval sweep  -compiler caps                          # Fig. 8 version sweep
//	accval sweep  -compiler caps -store ./results         # warm across processes
//	accval vet    kernels.c saxpy.f90                     # static analysis only
//	accval diff   pgi-13.2.json pgi-14.1.json             # cross-release deltas
//	accval list                                           # registered features
//	accval bugs   -compiler pgi                           # Table I ground truth
//	accval matrix -lang c                                 # feature × compiler table
//
// `accval help` prints the subcommand summary; every subcommand takes -h.
// An argv that does not start with a subcommand is a usage error.
//
// Exit status: 0 on success, 1 when the suite recorded failures (or the
// diff recorded regressions), 2 on usage or input errors.
package main

import (
	"fmt"
	"io"
	"os"
)

func main() {
	os.Exit(dispatch(os.Args[1:], os.Stdout, os.Stderr))
}

// subcommand is one routed verb; the table doubles as the help text's
// source of truth.
type subcommand struct {
	name, summary string
	run           func(args []string, stdout, stderr io.Writer) int
}

var subcommands = []subcommand{
	{"run", "validate one compiler release against the suite", cmdRun},
	{"sweep", "validate every simulated release of a vendor (memoized; -store keeps it warm across processes)", cmdSweep},
	{"vet", "run the accvet static analyzers over standalone sources", cmdVet},
	{"diff", "classify per-template deltas between two release snapshots", cmdDiff},
	{"list", "list the registered test features by family", cmdList},
	{"bugs", "print a vendor's bug database (the ground truth behind Table I)", cmdBugs},
	{"matrix", "print the feature × compiler pass/fail matrix (the table §VI omits)", cmdMatrix},
}

// dispatch routes argv to its subcommand. Anything else is a usage
// error: usage goes to stderr, nothing to stdout, and the status is 2.
func dispatch(argv []string, stdout, stderr io.Writer) int {
	if len(argv) > 0 {
		for _, sc := range subcommands {
			if argv[0] == sc.name {
				return sc.run(argv[1:], stdout, stderr)
			}
		}
		switch argv[0] {
		case "help", "-help", "--help", "-h":
			usage(stdout)
			return 0
		}
		fmt.Fprintf(stderr, "accval: unknown command %q\n\n", argv[0])
	}
	usage(stderr)
	return 2
}

func usage(w io.Writer) {
	fmt.Fprintf(w, "usage: accval <command> [flags]\n\ncommands:\n")
	for _, sc := range subcommands {
		fmt.Fprintf(w, "  %-7s %s\n", sc.name, sc.summary)
	}
	fmt.Fprintf(w, "\nRun `accval <command> -h` for that command's flags.\n")
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "accval:", err)
	return 2
}
