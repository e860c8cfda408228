package bench

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"accv"
	"accv/internal/compiler"
	"accv/internal/core"
	"accv/internal/obs"
	"accv/internal/store"
	"accv/internal/sweep"
	"accv/internal/vendors"
)

// sweepRun is a sweep workload: accval sweep -lang both for every vendor
// family, in seed order, into one result store. Each RunSweep call gets a
// fresh memo table and compile cache, as a new accval process would.
type sweepRun struct {
	env     *env
	name    string
	warm    bool
	vendors []string
	want    *Expected
	// wantHits is how many tests a warm sweep must read from the store.
	wantHits int64
	dir      string // the store: filled in set-up (warm) or per repetition (cold)
	n        int
}

func newSweepRun(e *env, warm bool) (*sweepRun, error) {
	want, err := loadExpected("sweep.json")
	if err != nil {
		return nil, err
	}
	if e.family != "" {
		ids := familyIDs(e.family)
		for k, cell := range want.Cells {
			want.Cells[k] = only(cell, ids)
		}
	}
	s := &sweepRun{env: e, name: "sweep-cold", warm: warm, want: want, wantHits: want.StoreHits, vendors: accv.Vendors()}
	if warm {
		s.name = "sweep-warm"
	}
	e.rng().Shuffle(len(s.vendors), func(i, j int) { s.vendors[i], s.vendors[j] = s.vendors[j], s.vendors[i] })
	return s, nil
}

func setupSweepCold(ctx context.Context, e *env) (instance, error) {
	s, err := newSweepRun(e, false)
	if err != nil {
		return nil, err
	}
	return s, warmUp(ctx, s)
}

// setupSweepWarm fills a fresh store with the cold sweeps, checking their
// verdicts; every repetition then reads it through a fresh handle.
func setupSweepWarm(ctx context.Context, e *env) (instance, error) {
	s, err := newSweepRun(e, true)
	if err != nil {
		return nil, err
	}
	s.dir = s.nextDir()
	st, err := accv.OpenStore(s.dir)
	if err != nil {
		return nil, err
	}
	var t tally
	tot, err := s.sweepAll(ctx, &t, accv.WithResultStore(st))
	if err != nil {
		return nil, err
	}
	if t.failed > 0 {
		return nil, &mismatchError{t.why}
	}
	if s.env.family != "" {
		s.wantHits = tot.memoMisses + tot.storeHits
	}
	return s, nil
}

func (s *sweepRun) nextDir() string {
	s.n++
	return filepath.Join(s.env.dir, "store-"+strconv.Itoa(s.n))
}

// prepare gives a cold repetition an empty store directory.
func (s *sweepRun) prepare() error {
	if s.warm {
		return nil
	}
	if s.dir != "" {
		if err := os.RemoveAll(s.dir); err != nil {
			return err
		}
	}
	s.dir = s.nextDir()
	return nil
}

func (s *sweepRun) close() error { return os.RemoveAll(s.dir) }

// sweepTotals are the memo and store counters of one set of sweeps.
type sweepTotals struct{ memoHits, memoMisses, storeHits int64 }

// sweepAll runs every vendor's sweep with the given options and checks
// every cell against the expected verdicts.
func (s *sweepRun) sweepAll(ctx context.Context, t *tally, opts ...accv.Option) (sweepTotals, error) {
	var tot sweepTotals
	opts = append([]accv.Option{
		accv.WithLangs(accv.C, accv.Fortran),
		accv.WithIterations(iterations),
		accv.WithParallelism(s.env.workers),
		accv.WithFamily(s.env.family),
	}, opts...)
	for _, v := range s.vendors {
		res, err := accv.RunSweep(ctx, v, opts...)
		if err != nil {
			return tot, err
		}
		s.checkCells(t, res)
		tot.add(res)
	}
	return tot, nil
}

func (tot *sweepTotals) add(res *sweep.Result) {
	tot.memoHits += res.MemoHits
	tot.memoMisses += res.MemoMisses
	tot.storeHits += res.StoreHits
}

func (s *sweepRun) checkCells(t *tally, res *sweep.Result) {
	for vi, version := range res.Versions {
		for li := range res.Langs {
			cell := res.Cells[vi][li]
			key := cellKey(res.Vendor, version, cell)
			want, ok := s.want.Cells[key]
			if !ok {
				t.attempted++
				t.fail(key + ": cell missing from the expected file")
				continue
			}
			t.check(key, verdicts(cell), want)
		}
	}
}

// checkWarm fails the items a warm sweep executed instead of reading
// from the store, and a store-hit count other than the expected one.
func (s *sweepRun) checkWarm(t *tally, tot sweepTotals) {
	if !s.warm {
		return
	}
	if n := int(tot.memoMisses); n > 0 {
		t.fail(fmt.Sprintf("sweep-warm executed %d tests instead of reading the store", n))
		t.failed += n - 1
	}
	if tot.storeHits != s.wantHits {
		t.attempted++
		t.fail(fmt.Sprintf("sweep-warm: %d store hits, want %d", tot.storeHits, s.wantHits))
	}
}

func (s *sweepRun) rep(ctx context.Context) (repResult, error) {
	var r repResult
	st, err := accv.OpenStore(s.dir)
	if err != nil {
		return r, err
	}
	tot, err := s.sweepAll(ctx, &r.tally, accv.WithResultStore(st))
	if err != nil {
		return r, err
	}
	s.checkWarm(&r.tally, tot)
	return r, nil
}

// traced runs the same sweeps through internal/sweep with an observer
// and a store wrapper that times every Load and Save, then replays the
// fingerprinting of every cell through sweep.Fingerprinter.
func (s *sweepRun) traced(ctx context.Context, rec *Recorder, wall float64) (map[string]float64, tally, error) {
	var t tally
	root := rec.Start(0, "bench."+s.name, 0)
	repSpan := rec.Start(root, "bench.rep", 0)
	var st *store.Store
	var err error
	rec.Time(repSpan, "store.open", func() { st, err = store.Open(s.dir, store.Options{}) })
	if err != nil {
		return nil, t, err
	}
	ts := &timedStore{st: st, rec: rec, lanes: make(chan int, s.env.workers)}
	for i := 1; i <= s.env.workers; i++ {
		ts.lanes <- i
	}
	o := obs.NewObserver()
	var tot sweepTotals
	var cacheHits, cacheMisses int64
	for _, v := range s.vendors {
		cache := compiler.NewCache()
		ts.parent = rec.Start(repSpan, "sweep.run", 0)
		res, err := sweep.Run(ctx, v, sweep.Options{
			Langs:       []accv.Language{accv.C, accv.Fortran},
			Family:      s.env.family,
			Iterations:  iterations,
			Parallelism: s.env.workers,
			Obs:         o,
			Cache:       cache,
			Store:       ts,
		})
		rec.End(ts.parent)
		if err != nil {
			return nil, t, err
		}
		s.checkCells(&t, res)
		tot.add(res)
		h, m := cache.Stats()
		cacheHits, cacheMisses = cacheHits+h, cacheMisses+m
	}
	rec.End(repSpan)
	s.checkWarm(&t, tot)

	fpSpan := rec.Start(root, "sweep.fingerprint", 0)
	fps := 0
	salt := sweep.ConfigSalt(core.Config{Iterations: iterations}.WithDefaults())
	for _, v := range s.vendors {
		f := sweep.NewFingerprinter(salt)
		for _, version := range accv.Versions(v) {
			tc, err := vendors.New(v, version)
			if err != nil {
				return nil, t, err
			}
			fp := f.For(tc)
			for _, lang := range []accv.Language{accv.C, accv.Fortran} {
				for _, tpl := range sweep.TemplatesFor(s.env.family, lang) {
					fp(tpl)
					fps++
				}
			}
		}
	}
	rec.End(fpSpan)
	rec.End(root)

	self := rec.SelfTimes(root)
	ms := func(name string) float64 { return float64(self[name]) / float64(time.Millisecond) }
	m := obsLayers(o)
	m["compiler.compile_ms"] = m["core.phase.compile_ms"]
	m["sweep.fingerprint_ms"] = ms("sweep.fingerprint")
	m["sweep.fingerprints"] = float64(fps)
	m["store.open_ms"] = ms("store.open")
	m["store.load_ms"] = ms("store.load")
	m["store.save_ms"] = ms("store.save")
	m["store.hits"] = float64(tot.storeHits)
	m["store.saves"] = float64(ts.saves.Load())
	m["store.disk_mb"] = float64(diskBytes(s.dir)) / 1e6
	m["core.executions"] = float64(tot.memoMisses)
	if n := tot.memoHits + tot.memoMisses; n > 0 {
		m["core.memo_hit_ratio"] = float64(tot.memoHits) / float64(n)
	}
	if n := cacheHits + cacheMisses; n > 0 {
		m["compiler.cache_hit_ratio"] = float64(cacheHits) / float64(n)
	}
	traceMetrics(m, rec, root, repSpan, wall)
	return m, t, nil
}

// obsLayers reads the layer metrics a sweep's observer recorded: the
// production phase histograms, and the interpreter and device counters
// core adds once per executed run.
func obsLayers(o *obs.Observer) map[string]float64 {
	m := phaseMetrics(o)
	c := map[string]float64{}
	for _, p := range o.Metrics.Snapshot().Counters {
		key := p.Name
		if r := p.Labels["result"]; r != "" {
			key += "/" + r
		}
		c[key] += p.Value
	}
	runMs := m["core.phase.func_runs_ms"] + m["core.phase.cross_runs_ms"]
	m["interp.run_ms"] = runMs
	m["interp.runs"] = c["accv_runs_total"]
	m["interp.ops"] = c["accv_interp_ops_total"]
	if ops := c["accv_interp_ops_total"]; ops > 0 {
		m["interp.ns_per_op"] = runMs * 1e6 / ops
	}
	m["interp.spmd_batched"] = c["accv_spmd_batched_nests_total"]
	m["interp.spmd_fallbacks"] = c["accv_spmd_fallback_nests_total"]
	m["device.kernels"] = c["accv_device_kernels_total"]
	m["device.mb_moved"] = c["accv_device_bytes_total"] / 1e6
	if n := c["accv_present_lookups_total/hit"] + c["accv_present_lookups_total/miss"]; n > 0 {
		m["device.present_hit_ratio"] = c["accv_present_lookups_total/hit"] / n
	}
	m["device.queue_waits"] = c["accv_queue_waits_total"]
	return m
}

// diskBytes sums the sizes of the files under dir.
func diskBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil // a file removed mid-walk only leaves it uncounted
	})
	return n
}

// timedStore is the core.ResultStore handed to the traced sweeps: it
// forwards to the real store and records a span around every call. Calls
// arrive concurrently from the sweep's workers, so each span takes a free
// trace lane.
type timedStore struct {
	st     *store.Store
	rec    *Recorder
	parent int
	lanes  chan int
	saves  atomic.Int64
}

func (t *timedStore) span(name string) (id, lane int) {
	select {
	case lane = <-t.lanes:
	default:
	}
	return t.rec.Start(t.parent, name, lane), lane
}

func (t *timedStore) end(id, lane int) {
	t.rec.End(id)
	if lane != 0 {
		t.lanes <- lane
	}
}

func (t *timedStore) Load(fp string) (core.TestResult, bool) {
	id, lane := t.span("store.load")
	defer t.end(id, lane)
	return t.st.Load(fp)
}

func (t *timedStore) Save(fp string, res core.TestResult) {
	id, lane := t.span("store.save")
	defer t.end(id, lane)
	t.saves.Add(1)
	t.st.Save(fp, res)
}
