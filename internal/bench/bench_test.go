package bench

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// benchmarkSpec is BENCHMARK.json at the repository root.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecMatchesCatalog keeps BENCHMARK.json and the metric catalog in
// step: same workloads, names, units, directions and bounds.
func TestSpecMatchesCatalog(t *testing.T) {
	s := readSpec(t)
	if len(s.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(s.Workloads), len(Workloads))
	}
	for i, w := range s.Workloads {
		if w.Name != Workloads[i].Name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, Workloads[i].Name)
		}
	}
	if len(s.EndToEnd) != len(EndToEnd) || len(s.PerLayer) != len(PerLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the catalog %d+%d",
			len(s.EndToEnd), len(s.PerLayer), len(EndToEnd), len(PerLayer))
	}
	for i, m := range s.EndToEnd {
		c := EndToEnd[i]
		if m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better || m.Bound != c.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, catalog %+v", i, m, c)
		}
	}
	for i, m := range s.PerLayer {
		c := PerLayer[i]
		if m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, catalog %+v", i, m, c)
		}
	}
}

// TestWorkloadsSmoke runs every workload for one repetition plus the
// traced one, the suite and sweeps narrowed to the templates of the
// kernels-construct family (the kernels workload runs its five programs
// whole), and checks that every verdict matches the expected file and
// that every metric BENCHMARK.json names is emitted with its unit.
func TestWorkloadsSmoke(t *testing.T) {
	s := readSpec(t)
	for _, w := range Workloads {
		t.Run(w.Name, func(t *testing.T) {
			start := time.Now()
			opt := Options{Seed: 2, Trace: true, WorkDir: t.TempDir(), reps: 1, setups: 1, family: "kernels"}
			res, err := Run(context.Background(), w, opt, nil)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: %d items in %v", w.Name, res.Attempted, time.Since(start))
			if res.Attempted == 0 || res.Failed != 0 || res.Metrics["error_frac"].Median != 0 {
				t.Errorf("%d of %d items failed: %v", res.Failed, res.Attempted, res.Mismatches)
			}
			e2e, layers := res.LineMetrics(false), res.LineMetrics(true)
			for _, m := range s.EndToEnd {
				if v, ok := e2e[m.Name]; !ok || v.Unit != m.Unit || !(v.Value > 0) {
					t.Errorf("end-to-end %s: got %+v (present %v), want a positive value in %s", m.Name, v, ok, m.Unit)
				}
			}
			for _, m := range s.PerLayer {
				if v, ok := layers[m.Name]; !ok || v.Unit != m.Unit || math.IsNaN(v.Value) {
					t.Errorf("per-layer %s: got %+v (present %v), want unit %s", m.Name, v, ok, m.Unit)
				}
			}
			if w.Name == "suite" {
				if c := res.Metrics["trace.coverage"].Median; c < 0.9 {
					t.Errorf("trace.coverage = %.3f, want ≥ 0.9", c)
				}
			}
		})
	}
}

// TestSummarizeMatchesPython pins the quartiles to Python's
// statistics.quantiles(xs, n=4), which the spread of a metric is judged by.
func TestSummarizeMatchesPython(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{2, 4}, 1.5, 3, 4.5},
	} {
		s := Summarize(c.xs)
		if s.Q1 != c.q1 || s.Median != c.med || s.Q3 != c.q3 {
			t.Errorf("Summarize(%v) = %+v, want q1 %g median %g q3 %g", c.xs, s, c.q1, c.med, c.q3)
		}
	}
}

// TestSelfTimeAndCoverage checks self time (a span minus what its
// children cover, overlapping children counted once) and coverage.
func TestSelfTimeAndCoverage(t *testing.T) {
	r := NewRecorder()
	add := func(parent int, name string, from, to int) int {
		r.spans = append(r.spans, span{id: len(r.spans) + 1, parent: parent, name: name,
			start: time.Duration(from) * time.Millisecond, end: time.Duration(to) * time.Millisecond})
		return len(r.spans)
	}
	root := add(0, "bench.root", 0, 100)
	layer := add(root, "a.layer", 10, 60)
	add(layer, "b.part", 20, 30)
	add(layer, "b.part", 25, 40)
	self := r.SelfTimes(root)
	want := map[string]time.Duration{"bench.root": 50, "a.layer": 30, "b.part": 25}
	for name, ms := range want {
		if self[name] != ms*time.Millisecond {
			t.Errorf("self time of %s = %v, want %v", name, self[name], ms*time.Millisecond)
		}
	}
	if c := r.Coverage(root); math.Abs(c-0.5) > 1e-9 {
		t.Errorf("coverage = %v, want 0.5", c)
	}
}
