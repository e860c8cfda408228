// The shared flag surface: every subcommand registers from one cliFlags
// record, so run, sweep and matrix spell and default their common flags
// identically.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"accv"
	"accv/internal/core"
	"accv/internal/interp"
)

// cliFlags gathers every accval flag; registerCommon installs the shared
// ones and each command registers its own.
type cliFlags struct {
	compiler, version, lang, family string
	iterations                      int
	trace, metrics, metricsFmt      string
	jobs                            int
	timeout                         time.Duration
	failFast                        bool
	vet, engine                     string

	// run-only (the report and the release snapshot).
	format, out string
	bugReport   bool
	snapshot    string
	// sweep-only (the persistent result store; docs/STORE.md).
	store       string
	storeCap    int
	snapshotDir string
}

// registerCommon installs the execution flags shared by run, sweep, and
// matrix.
func (f *cliFlags) registerCommon(fs *flag.FlagSet) {
	fs.StringVar(&f.compiler, "compiler", "reference", "compiler to validate: caps, pgi, cray, reference")
	fs.StringVar(&f.version, "version", "", "compiler version (default: newest simulated release)")
	fs.StringVar(&f.lang, "lang", "c", "test language: c, fortran, or both")
	fs.StringVar(&f.family, "family", "", "restrict to one feature family (e.g. parallel, data, loop)")
	fs.IntVar(&f.iterations, "iterations", 3, "repeat count M for the certainty statistics")
	fs.StringVar(&f.trace, "trace", "", "write the span trace (JSON) to a file, or - for stdout (docs/OBSERVABILITY.md)")
	fs.StringVar(&f.metrics, "metrics", "", "write run metrics to a file, or - for stdout (docs/OBSERVABILITY.md)")
	fs.StringVar(&f.metricsFmt, "metrics-format", "json", "metrics export format: json or prom")
	fs.IntVar(&f.jobs, "j", 0, "worker-pool width for parallel test execution (0: GOMAXPROCS, 1: sequential)")
	fs.DurationVar(&f.timeout, "timeout", 0, "per-iteration wall-clock timeout, e.g. 2s (0: engine default; each test also gets a context deadline covering all its iterations)")
	fs.BoolVar(&f.failFast, "fail-fast", false, "cancel the remaining suite after the first failure")
	fs.StringVar(&f.vet, "vet", "on", "accvet static-analysis policy: on (error findings fail the test), warn, or off")
	fs.StringVar(&f.engine, "engine", "vm", "interpreter execution engine: vm (compiled bytecode, lane-batched where the oracle proves it) or tree (reference tree-walker)")
}

// newFlagSet returns a ContinueOnError flag set writing usage to stderr.
func newFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// observer builds the shared run observer when -trace or -metrics asked
// for one, validating -metrics-format before anything runs.
func (f *cliFlags) observer() (*accv.Observer, error) {
	if f.trace == "" && f.metrics == "" {
		return nil, nil
	}
	if f.metricsFmt != "json" && f.metricsFmt != "prom" {
		return nil, fmt.Errorf("unknown metrics format %q (want json or prom)", f.metricsFmt)
	}
	return accv.NewObserver(), nil
}

// exportObs writes the trace and metrics files after the runs.
func (f *cliFlags) exportObs(observer *accv.Observer, stdout io.Writer) error {
	if observer == nil {
		return nil
	}
	if f.trace != "" {
		if err := writeTo(f.trace, stdout, observer.WriteTrace); err != nil {
			return err
		}
	}
	if f.metrics != "" {
		write := observer.WriteMetricsJSON
		if f.metricsFmt == "prom" {
			write = observer.WriteMetricsText
		}
		if err := writeTo(f.metrics, stdout, write); err != nil {
			return err
		}
	}
	return nil
}

// writeTo opens path ("-" means the command's stdout) and applies f.
func writeTo(path string, stdout io.Writer, f func(io.Writer) error) error {
	if path == "-" {
		return f(stdout)
	}
	w, err := os.Create(path)
	if err != nil {
		return err
	}
	defer w.Close()
	return f(w)
}

// runOptions maps the shared flags onto facade options, validating the
// enum-valued ones.
func (f *cliFlags) runOptions(observer *accv.Observer) ([]accv.Option, error) {
	opts := []accv.Option{
		accv.WithIterations(f.iterations),
		accv.WithObs(observer),
		accv.WithParallelism(f.jobs),
		accv.WithTimeout(f.timeout),
	}
	if f.family != "" {
		opts = append(opts, accv.WithFamily(f.family))
	}
	if f.failFast {
		opts = append(opts, accv.WithFailFast())
	}
	vetPolicy, err := core.ParseVetPolicy(f.vet)
	if err != nil {
		return nil, err
	}
	opts = append(opts, accv.WithVet(vetPolicy))
	eng, err := interp.ParseEngine(f.engine)
	if err != nil {
		return nil, err
	}
	opts = append(opts, accv.WithEngine(eng))
	return opts, nil
}

func parseLangs(s string) ([]accv.Language, error) {
	switch s {
	case "c":
		return []accv.Language{accv.C}, nil
	case "fortran", "f":
		return []accv.Language{accv.Fortran}, nil
	case "both", "all":
		return []accv.Language{accv.C, accv.Fortran}, nil
	}
	return nil, fmt.Errorf("unknown language %q (want c, fortran, or both)", s)
}

func parseFormat(s string) (accv.ReportFormat, error) {
	switch s {
	case "text", "":
		return accv.Text, nil
	case "csv":
		return accv.CSV, nil
	case "html":
		return accv.HTML, nil
	}
	return accv.Text, fmt.Errorf("unknown format %q", s)
}
