package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"text/tabwriter"

	"accv"
)

// Record is what accbench -o writes: how and where the numbers were
// taken, and every workload's result.
type Record struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	HostCores  int    `json:"host_cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// HostLimited is set when GOMAXPROCS exceeds the host's cores, so
	// the workers cannot all run at once.
	HostLimited bool      `json:"host_limited"`
	Seed        int64     `json:"seed"`
	Results     []*Result `json:"workloads"`
}

// NewRecord describes this process and build.
func NewRecord(seed int64) *Record {
	r := &Record{
		Commit: "unknown", GoVersion: runtime.Version(),
		HostCores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: seed,
	}
	r.HostLimited = r.GOMAXPROCS > r.HostCores
	if info, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				r.Commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified {
			r.Commit += "+modified"
		}
	}
	return r
}

// ReadRecord loads a record written by accbench -o.
func ReadRecord(path string) (*Record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Record
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// LineValue is one metric in the result line.
type LineValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// LineMetrics returns the metrics BENCHMARK.json names for a run: the
// end-to-end metrics, or with trace the per-layer ones, each as its
// median. A layer the workload never entered reads 0.
func (r *Result) LineMetrics(trace bool) map[string]LineValue {
	group := EndToEnd
	if trace {
		group = PerLayer
	}
	out := make(map[string]LineValue, len(group))
	for _, m := range group {
		out[m.Name] = LineValue{Value: r.Metrics[m.Name].Median, Unit: m.Unit}
	}
	return out
}

// Verdicts of Compare.
const (
	within     = "within bound"
	worse      = "worse"
	better     = "better"
	unresolved = "unresolved"
)

// verdict judges b against the baseline a for metric m: worse or better
// when the medians differ by more than the bound, unresolved when either
// side's interquartile spread is wider than the bound.
func verdict(m Metric, a, b Summary) string {
	sign := 1.0
	if m.Better == "higher" {
		sign = -1
	}
	delta := sign * (b.Median - a.Median)
	if m.Bound == 0 { // error_frac: any increase is a regression
		switch {
		case delta > 0:
			return worse
		case delta < 0:
			return better
		}
		return within
	}
	allowed := m.Bound*math.Abs(a.Median) + m.Floor
	switch {
	case a.Q3-a.Q1 > allowed || b.Q3-b.Q1 > allowed:
		return unresolved
	case delta > allowed:
		return worse
	case delta < -allowed:
		return better
	}
	return within
}

// Compare prints, for every workload in both records and every metric
// with a bound, both medians and quartiles and a verdict. It returns how
// many metrics got worse.
func Compare(w io.Writer, a, b *Record) int {
	base := map[string]*Result{}
	for _, r := range a.Results {
		base[r.Workload] = r
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tunit\ta median [q1, q3] n\tb median [q1, q3] n\tbound\tverdict\n")
	nWorse := 0
	for _, rb := range b.Results {
		ra := base[rb.Workload]
		if ra == nil {
			continue
		}
		for _, m := range append(append([]Metric{ErrorFrac}, EndToEnd...), kernelMetrics()...) {
			va, okA := ra.Metrics[m.Name]
			vb, okB := rb.Metrics[m.Name]
			if !okA || !okB {
				continue
			}
			v := verdict(m, va.Summary, vb.Summary)
			if v == worse {
				nWorse++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%g\t%s\n",
				rb.Workload, m.Name, m.Unit, fmtSummary(va.Summary), fmtSummary(vb.Summary), m.Bound, v)
		}
	}
	tw.Flush()
	return nWorse
}

func fmtSummary(s Summary) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", s.Median, s.Q1, s.Q3, s.N)
}

// ExpectedDir is where -regen-expected writes, relative to the
// repository root.
const ExpectedDir = "internal/bench/testdata/expected"

// Regenerate rewrites the expected verdict files in dir, running the
// suite and the sweeps under the tree-walking engine (the reference
// semantics every other engine is held to), never the measured one.
func Regenerate(ctx context.Context, dir, workDir string) error {
	workers := runtime.GOMAXPROCS(0)
	common := []accv.Option{
		accv.WithIterations(iterations),
		accv.WithParallelism(workers),
		accv.WithEngine(accv.EngineTree),
	}
	suite := &Expected{Compiler: "pgi", Version: "13.2", Iterations: iterations,
		Engine: accv.EngineTree.String(), Verdicts: map[string]string{}}
	tc, err := accv.NewCompiler(suite.Compiler, suite.Version)
	if err != nil {
		return err
	}
	for _, lang := range suiteLangs {
		r, err := accv.NewRunner(lang, common...)
		if err != nil {
			return err
		}
		res, err := r.RunContext(ctx, tc)
		if err != nil {
			return err
		}
		for id, v := range verdicts(res) {
			suite.Verdicts[id] = v
		}
	}
	if err := writeExpected(dir, "suite.json", suite); err != nil {
		return err
	}

	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	storeDir, err := os.MkdirTemp(workDir, "regen-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(storeDir)
	st, err := accv.OpenStore(storeDir)
	if err != nil {
		return err
	}
	sw := &Expected{Iterations: iterations, Engine: accv.EngineTree.String(),
		Cells: map[string]map[string]string{}}
	for _, v := range accv.Vendors() {
		opts := append([]accv.Option{accv.WithLangs(accv.C, accv.Fortran), accv.WithResultStore(st)}, common...)
		res, err := accv.RunSweep(ctx, v, opts...)
		if err != nil {
			return err
		}
		for vi, version := range res.Versions {
			for _, cell := range res.Cells[vi] {
				sw.Cells[cellKey(v, version, cell)] = verdicts(cell)
			}
		}
		// A warm sweep serves from disk every fingerprint this one either
		// executed or already found there.
		sw.StoreHits += res.MemoMisses + res.StoreHits
	}
	return writeExpected(dir, "sweep.json", sw)
}
