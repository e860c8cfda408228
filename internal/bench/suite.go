package bench

import (
	"context"
	"io"
	"math/rand"
	"time"

	"accv"
	"accv/internal/core"
	"accv/internal/obs"
	"accv/internal/report"
	"accv/internal/sweep"
)

// suiteLangs are the suite's two language columns (accval run -lang both).
var suiteLangs = []accv.Language{accv.C, accv.Fortran}

// suiteRun is the suite workload: one compiler release validated in both
// languages through the facade, a fresh Runner (and so a fresh compile
// cache) per language per repetition, the text report rendered and
// discarded.
type suiteRun struct {
	env *env
	tc  accv.Compiler
	// tpls holds each language's templates. Every repetition submits them
	// in a new order drawn from rng: with two workers the order decides
	// which long test finishes last, so a run measures many orders rather
	// than letting one unlucky order set its median.
	tpls [][]*accv.Template
	rng  *rand.Rand
	want *Expected
}

func setupSuite(ctx context.Context, e *env) (instance, error) {
	want, err := loadExpected("suite.json")
	if err != nil {
		return nil, err
	}
	tc, err := accv.NewCompiler(want.Compiler, want.Version)
	if err != nil {
		return nil, err
	}
	if e.family != "" {
		want.Verdicts = only(want.Verdicts, familyIDs(e.family))
	}
	s := &suiteRun{env: e, tc: tc, want: want, rng: e.rng()}
	for _, lang := range suiteLangs {
		s.tpls = append(s.tpls, sweep.TemplatesFor(e.family, lang))
	}
	return s, warmUp(ctx, s)
}

// warmUp runs one untimed repetition, so lazily built state (template
// expansions, heap growth) is in place before timing, and fails set-up
// if its verdicts are wrong.
func warmUp(ctx context.Context, inst instance) error {
	if err := inst.prepare(); err != nil {
		return err
	}
	r, err := inst.rep(ctx)
	if err == nil && r.failed > 0 {
		err = &mismatchError{r.why}
	}
	return err
}

type mismatchError struct{ why []string }

func (e *mismatchError) Error() string {
	msg := "warm-up verdicts differ from the expected file"
	for _, w := range e.why {
		msg += "\n  " + w
	}
	return msg
}

// prepare draws the next submission order.
func (s *suiteRun) prepare() error {
	for _, tpls := range s.tpls {
		s.rng.Shuffle(len(tpls), func(i, j int) { tpls[i], tpls[j] = tpls[j], tpls[i] })
	}
	return nil
}

func (s *suiteRun) close() error { return nil }

// runSuite runs both languages through the facade with the given extra
// options.
func (s *suiteRun) runSuite(ctx context.Context, opts ...accv.Option) ([]*accv.SuiteResult, error) {
	var out []*accv.SuiteResult
	for li, lang := range suiteLangs {
		r, err := accv.NewRunner(lang, append([]accv.Option{
			accv.WithIterations(iterations),
			accv.WithParallelism(s.env.workers),
			accv.WithTemplates(s.tpls[li]...),
		}, opts...)...)
		if err != nil {
			return nil, err
		}
		res, err := r.RunContext(ctx, s.tc)
		if err != nil {
			return nil, err
		}
		if err := accv.WriteReport(io.Discard, res, accv.Text); err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

func (s *suiteRun) check(t *tally, results []*accv.SuiteResult) {
	got := map[string]string{}
	for _, res := range results {
		for id, v := range verdicts(res) {
			got[id] = v
		}
	}
	t.check(s.want.Compiler+" "+s.want.Version, got, s.want.Verdicts)
}

func (s *suiteRun) rep(ctx context.Context) (repResult, error) {
	start := time.Now()
	results, err := s.runSuite(ctx)
	wall := time.Since(start)
	if err != nil {
		return repResult{}, err
	}
	var r repResult
	s.check(&r.tally, results)
	var busy time.Duration
	for _, res := range results {
		for i := range res.Results {
			d := res.Results[i].Duration
			busy += d
			r.testsMs = append(r.testsMs, float64(d)/float64(time.Millisecond))
		}
	}
	r.busy = float64(busy) / float64(wall) / float64(s.env.workers)
	return r, nil
}

// traced runs the real Runner path with an observer (the production
// phase histograms and the compile cache's counters), then replays the
// same tests sequentially through the layer calls. Both verdict sets are
// checked against the expected file.
func (s *suiteRun) traced(ctx context.Context, rec *Recorder, wall float64) (map[string]float64, tally, error) {
	root := rec.Start(0, "bench.suite", 0)
	o := obs.NewObserver()
	cache := accv.NewCompileCache()
	repSpan := rec.Start(root, "bench.rep", 0)
	results, err := s.runSuite(ctx, accv.WithObs(o), accv.WithCompileCache(cache))
	rec.End(repSpan)
	var t tally
	if err != nil {
		return nil, t, err
	}
	s.check(&t, results)

	replay := rec.Start(root, "bench.replay", 0)
	p := newReplayer(rec, s.tc)
	var replayed []*accv.SuiteResult
	for li := range suiteLangs {
		res := &core.SuiteResult{Compiler: s.tc.Name(), Version: s.tc.Version(), Lang: suiteLangs[li]}
		for _, tpl := range s.tpls[li] {
			res.Results = append(res.Results, p.test(replay, tpl))
		}
		var w countingWriter
		rec.Time(replay, "report.write", func() { err = report.Write(&w, res, report.Text) })
		if err != nil {
			return nil, t, err
		}
		p.n.reportBytes += w.n
		replayed = append(replayed, res)
	}
	rec.End(replay)
	rec.End(root)
	s.check(&t, replayed)

	m := p.metrics(replay)
	for k, v := range phaseMetrics(o) {
		m[k] = v
	}
	hits, misses := cache.Stats()
	if hits+misses > 0 {
		m["compiler.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	traceMetrics(m, rec, replay, repSpan, wall)
	return m, t, nil
}

// phaseMetrics reads the core.phase.*_ms metrics from the production
// accv_phase_duration_seconds histograms.
func phaseMetrics(o *obs.Observer) map[string]float64 {
	m := map[string]float64{}
	for _, h := range o.Metrics.Snapshot().Histograms {
		if h.Name == "accv_phase_duration_seconds" {
			m["core.phase."+h.Labels["phase"]+"_ms"] += h.Sum * 1e3
		}
	}
	return m
}

// countingWriter discards what it is given and counts the bytes.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(b []byte) (int, error) {
	w.n += int64(len(b))
	return len(b), nil
}
