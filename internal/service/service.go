// Package service is the long-running validation daemon behind cmd/accvd:
// an HTTP+JSON front end over the accv facade that serves compile, run,
// vet, suite, and sweep requests — plus a streaming (SSE) endpoint for
// live suite progress — to many concurrent clients.
//
// Run, suite and sweep requests share one compiled-program cache, and
// sweep requests one sweep memo table, so the service gets warmer the
// longer it runs: a program a run or suite request already compiled is
// served from the cache, a sweep a client already asked for is served out
// of the single-flight memo, and identical concurrent suite requests
// coalesce into one execution. POST /v1/compile always compiles afresh. Admission control (core.Admission)
// bounds per-client concurrency and the aggregate in-flight op budget;
// refusals are HTTP 429 with Retry-After. Telemetry rides the internal/obs
// registry: /metrics exports the accvd_* request series together with the
// engine's accv_* series in Prometheus text format, and /healthz reports
// liveness and drain state. Graceful drain (Server.Drain) refuses new work
// while in-flight requests finish under a deadline.
//
// The full API reference — endpoints, JSON schemas, the streaming
// protocol, error codes, quota semantics, and drain behavior — is
// docs/SERVICE.md.
package service

import (
	"context"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"accv"
	"accv/internal/core"
	"accv/internal/obs"
)

// Config parameterizes a Server. The zero value serves with the
// documented defaults.
type Config struct {
	// Addr is the listen address of cmd/accvd (the library Server is an
	// http.Handler and does not listen itself). Default ":8080".
	Addr string
	// CacheCap bounds the shared compiled-program cache (0: the
	// compiler.DefaultCacheCap of 4096 entries). Watch
	// accv_compile_cache_evictions_total to size it (docs/SERVICE.md).
	CacheCap int
	// MaxClientInflight is the per-client in-flight request quota
	// (0: default 32; negative: unlimited).
	MaxClientInflight int
	// MaxInflightOps is the aggregate simulated-op budget admitted
	// requests may hold (0: default 2^38; negative: unlimited).
	MaxInflightOps int64
	// DefaultParallelism is the per-suite worker-pool width used when a
	// request does not set one (0: GOMAXPROCS).
	DefaultParallelism int
	// DrainTimeout bounds the graceful drain cmd/accvd performs on
	// SIGTERM/SIGINT. Default 30s.
	DrainTimeout time.Duration
	// StoreDir, when set, backs sweep requests with the persistent
	// result store rooted there (docs/STORE.md): sweeps warm from disk
	// across daemon restarts and write every verdict through. Empty
	// keeps persistence off; the in-memory memo still applies.
	StoreDir string
	// StoreCap bounds the persistent store's entry count (0: the store
	// default of 65536; negative: unbounded). Ignored without StoreDir.
	StoreCap int
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.DefaultParallelism == 0 {
		c.DefaultParallelism = runtime.GOMAXPROCS(0)
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 30 * time.Second
	}
	return c
}

// Server is the validation service: one shared compile cache, sweep memo,
// admission controller, and observer behind an http.Handler. Build with
// New; a Server is safe for concurrent use.
type Server struct {
	cfg   Config
	obs   *accv.Observer
	cache *accv.CompileCache
	memo  *accv.MemoTable
	store *accv.ResultStore // nil without Config.StoreDir
	adm   *core.Admission
	mux   *http.ServeMux

	suiteFlights *flightGroup

	mu       sync.Mutex
	draining bool
	inflight int
	drained  chan struct{} // non-nil while a Drain waits for inflight→0

	evReported atomic.Int64 // evictions already surfaced into the registry
}

// New builds a server over fresh shared state. It fails only when
// Config.StoreDir is set and the persistent result store there cannot be
// opened (unwritable directory, foreign schema stamp).
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		obs:   accv.NewObserver(),
		cache: accv.NewCompileCacheWithCap(cfg.CacheCap),
		memo:  accv.NewMemoTable(),
		adm: core.NewAdmission(core.AdmissionConfig{
			MaxClientInflight: cfg.MaxClientInflight,
			MaxInflightOps:    cfg.MaxInflightOps,
		}),
		suiteFlights: newFlightGroup(),
	}
	if cfg.StoreDir != "" {
		st, err := accv.OpenStore(cfg.StoreDir,
			accv.WithObs(s.obs), accv.WithStoreCap(cfg.StoreCap))
		if err != nil {
			return nil, err
		}
		s.store = st
	}
	s.mux = http.NewServeMux()
	for _, ep := range endpoints {
		h := ep.handler
		s.mux.Handle(ep.pattern, s.instrument(ep.name, func(w http.ResponseWriter, r *http.Request) {
			h(s, w, r)
		}))
	}
	return s, nil
}

// endpoint is one routed handler; the table is the single source of truth
// the docs contract test cross-checks against docs/SERVICE.md.
type endpoint struct {
	name    string // metric label and documentation key
	pattern string // mux pattern (method + path)
	handler func(*Server, http.ResponseWriter, *http.Request)
}

var endpoints = []endpoint{
	{"healthz", "GET /healthz", (*Server).handleHealthz},
	{"metrics", "GET /metrics", (*Server).handleMetrics},
	{"compile", "POST /v1/compile", (*Server).handleCompile},
	{"run", "POST /v1/run", (*Server).handleRun},
	{"vet", "POST /v1/vet", (*Server).handleVet},
	{"suite", "POST /v1/suite", (*Server).handleSuite},
	{"suite_stream", "POST /v1/suite/stream", (*Server).handleSuiteStream},
	{"sweep", "POST /v1/sweep", (*Server).handleSweep},
	{"diff", "POST /v1/diff", (*Server).handleDiff},
}

// Endpoints lists the routed patterns ("METHOD /path"), in registration
// order — the surface docs/SERVICE.md must document.
func Endpoints() []string {
	out := make([]string, len(endpoints))
	for i, ep := range endpoints {
		out[i] = ep.pattern
	}
	return out
}

// Handler returns the service's http.Handler (all routes).
func (s *Server) Handler() http.Handler { return s.mux }

// Observer exposes the shared observer (tests and embedders; cmd/accvd
// only reads it through /metrics).
func (s *Server) Observer() *accv.Observer { return s.obs }

// CacheStats reports the shared compile cache's lifetime hits, misses,
// and evictions.
func (s *Server) CacheStats() (hits, misses, evictions int64) {
	h, m := s.cache.Stats()
	return h, m, s.cache.Evictions()
}

// MemoStats reports the shared sweep memo's lifetime hits and misses.
func (s *Server) MemoStats() (hits, misses int64) { return s.memo.Stats() }

// StoreStats reports the persistent result store's lifetime hits,
// misses, evictions, and corrupt entries — all zero when the server runs
// without Config.StoreDir.
func (s *Server) StoreStats() (hits, misses, evictions, corrupt int64) {
	if s.store == nil {
		return 0, 0, 0, 0
	}
	return s.store.Stats()
}

// instrument wraps a handler with the request telemetry and the drain
// gate: accvd_requests_total{endpoint,code},
// accvd_request_duration_seconds{endpoint}, and
// accvd_inflight_requests{endpoint} (docs/OBSERVABILITY.md). During a
// drain, /healthz and /metrics stay reachable (operators need them to
// watch the drain) while work endpoints are refused with 503.
func (s *Server) instrument(name string, h http.HandlerFunc) http.Handler {
	epLabel := obs.L("endpoint", name)
	probe := name == "healthz" || name == "metrics"
	var inflight atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !probe && !s.enter() {
			s.obs.Add("accvd_admission_rejections_total", 1, obs.L("reason", "draining"))
			writeError(w, http.StatusServiceUnavailable, codeDraining,
				"server is draining; no new requests accepted")
			s.count(epLabel, http.StatusServiceUnavailable)
			return
		}
		start := time.Now()
		s.obs.SetGauge("accvd_inflight_requests", float64(inflight.Add(1)), epLabel)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(rec, r)
		s.obs.SetGauge("accvd_inflight_requests", float64(inflight.Add(-1)), epLabel)
		s.obs.ObserveDuration("accvd_request_duration_seconds", time.Since(start), epLabel)
		s.count(epLabel, rec.status)
		if !probe {
			s.leave()
		}
	})
}

func (s *Server) count(epLabel obs.Label, status int) {
	s.obs.Add("accvd_requests_total", 1, epLabel, obs.L("code", strconv.Itoa(status)))
}

// statusRecorder captures the response status for the request counter and
// forwards Flush so the SSE stream keeps working through the middleware.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// enter admits one request into the drain-tracked in-flight set; false
// means the server is draining and the request must be refused.
func (s *Server) enter() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.inflight++
	return true
}

// leave retires one in-flight request, waking a pending Drain when the
// set empties.
func (s *Server) leave() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inflight--
	if s.inflight == 0 && s.drained != nil {
		close(s.drained)
		s.drained = nil
	}
}

// Draining reports whether the server has begun a drain.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain switches the server into drain mode — new work requests are
// refused with 503 (code "draining"), /healthz flips to 503, /metrics
// stays live — and waits for the in-flight requests to finish. It
// returns nil once the server is idle, or ctx.Err() if the deadline
// expires first (in-flight work keeps running; cmd/accvd then lets
// http.Server.Shutdown cut the connections).
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.obs.SetGauge("accvd_draining", 1)
	if s.inflight == 0 {
		s.mu.Unlock()
		return nil
	}
	if s.drained == nil {
		s.drained = make(chan struct{})
	}
	ch := s.drained
	s.mu.Unlock()
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// clientKey identifies the requesting client for quota accounting: the
// X-Accvd-Client header when present (CI jobs and multi-tenant proxies
// set it), else the remote host.
func clientKey(r *http.Request) string {
	if c := r.Header.Get("X-Accvd-Client"); c != "" {
		return c
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// admit runs the admission controller for a work request and surfaces
// refusals as 429 with Retry-After (docs/SERVICE.md, "Quotas and
// admission"). On success the release function must be called when the
// request finishes; it is additionally armed to fire on request-context
// teardown so canceled clients always give their slot back.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, ops int64) (release func(), ok bool) {
	rel, err := s.adm.Admit(clientKey(r), ops)
	if err == nil {
		// A canceled client releases its admission slot even if the
		// handler is still unwinding the run cooperatively.
		stop := context.AfterFunc(r.Context(), rel)
		return func() { stop(); rel() }, true
	}
	reason := "client_quota"
	if err == core.ErrOpBudget {
		reason = "op_budget"
	}
	s.obs.Add("accvd_admission_rejections_total", 1, obs.L("reason", reason))
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusTooManyRequests, codeQuotaExhausted, err.Error())
	return nil, false
}

// syncCacheMetrics folds the shared cache's eviction count into the
// registry as accv_compile_cache_evictions_total. Hits and misses are
// counted at lookup time by the engine; evictions happen inside the
// cache, so the service surfaces the delta whenever /metrics is scraped.
func (s *Server) syncCacheMetrics() {
	ev := s.cache.Evictions()
	prev := s.evReported.Swap(ev)
	if d := ev - prev; d > 0 {
		s.obs.Add("accv_compile_cache_evictions_total", d)
	}
}
