// Command accbench runs the repository's benchmark (internal/bench): it
// sets up and measures the named workloads, checks every verdict against
// the committed expected files, prints one line per (workload, metric,
// value, unit) and, last, one JSON result line:
//
//	go run ./cmd/accbench -workload all -seed 1 -o out.json
//	go run ./cmd/accbench -workload suite -seconds 10 -trace 1 -trace-out trace.json
//	go run ./cmd/accbench -compare a.json b.json
//	go run ./cmd/accbench -regen-expected
//
// It exits 1 when any verdict differs from the expected file. See
// internal/bench/README.md for the workloads and the metric glossary.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"

	"accv/internal/bench"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("accbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "input seed: template and vendor order, kernel scheduler seed")
	seconds := fs.Float64("seconds", 15, "measuring budget per workload, in seconds, shared out over its set-ups")
	trace := fs.Int("trace", 0, "1: add the traced repetition and report the per-layer metrics")
	traceOut := fs.String("trace-out", "", "write the traced repetitions' spans as Chrome trace-event JSON (implies -trace 1)")
	out := fs.String("o", "", "write the run record as JSON")
	workDir := fs.String("workdir", ".bench_build/work", "scratch directory for result stores")
	compare := fs.Bool("compare", false, "compare two run records: accbench -compare a.json b.json")
	regen := fs.Bool("regen-expected", false, "regenerate "+bench.ExpectedDir+" under the tree engine (run from the repository root)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "accbench: -compare takes two record files")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *regen:
		if err := bench.Regenerate(ctx, bench.ExpectedDir, *workDir); err != nil {
			fmt.Fprintln(stderr, "accbench:", err)
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "accbench: -trace takes 0 or 1")
		return 2
	}
	traced := *trace == 1 || *traceOut != ""

	workloads := bench.Workloads
	if *workload != "all" {
		w, ok := bench.Lookup(*workload)
		if !ok {
			fmt.Fprintf(stderr, "accbench: unknown workload %q\n", *workload)
			return 2
		}
		workloads = []bench.Workload{w}
	}

	rec := bench.NewRecord(*seed)
	if rec.HostLimited {
		fmt.Fprintf(stderr, "accbench: warning: GOMAXPROCS=%d exceeds the host's %d cores; parallel workers cannot all run at once\n",
			rec.GOMAXPROCS, rec.HostCores)
	}
	var spans *bench.Recorder
	if *traceOut != "" {
		spans = bench.NewRecorder()
	}
	opt := bench.Options{Seed: *seed, Seconds: *seconds, Trace: traced, WorkDir: *workDir}
	line := resultLine{Metrics: map[string]bench.LineValue{}}
	for _, w := range workloads {
		res, err := bench.Run(ctx, w, opt, spans)
		if err != nil {
			fmt.Fprintln(stderr, "accbench:", err)
			return 1
		}
		rec.Results = append(rec.Results, res)
		for _, name := range res.Names() {
			v := res.Metrics[name]
			fmt.Fprintf(stdout, "%s %s %s %s\n", w.Name, name, strconv.FormatFloat(v.Median, 'g', -1, 64), v.Unit)
		}
		for _, m := range res.Mismatches {
			fmt.Fprintf(stderr, "accbench: %s: %s\n", w.Name, m)
		}
		line.Attempted += res.Attempted
		line.Failed += res.Failed
		for name, v := range res.LineMetrics(traced) {
			if len(workloads) > 1 {
				name = w.Name + "/" + name
			}
			line.Metrics[name] = v
		}
	}
	if err := writeOutputs(rec, spans, *out, *traceOut); err != nil {
		fmt.Fprintln(stderr, "accbench:", err)
		return 1
	}
	line.Correct = line.Failed == 0
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "accbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !line.Correct {
		return 1
	}
	return 0
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                       `json:"correct"`
	Attempted int                        `json:"attempted"`
	Failed    int                        `json:"failed"`
	Metrics   map[string]bench.LineValue `json:"metrics"`
}

func writeOutputs(rec *bench.Record, spans *bench.Recorder, out, traceOut string) error {
	if out != "" {
		b, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		if err := spans.WriteChrome(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}

func runCompare(pathA, pathB string, stdout, stderr io.Writer) int {
	a, errA := bench.ReadRecord(pathA)
	b, errB := bench.ReadRecord(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(stderr, "accbench:", err)
		return 1
	}
	if bench.Compare(stdout, a, b) > 0 {
		return 1
	}
	return 0
}
