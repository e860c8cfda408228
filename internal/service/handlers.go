// The endpoint handlers. Heavy endpoints (run, suite, sweep) pass
// through admission control; suite requests additionally coalesce —
// identical concurrent requests share one execution (coalesce.go), and
// sweep requests share test executions through the cross-request memo
// table. docs/SERVICE.md documents every behavior here.
package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"accv"
	"accv/internal/core"
	"accv/internal/interp"
)

// Admission cost estimates, in interpreted operations — the currency of
// core.Config.MaxOps and accv_interp_ops_total. A request is charged its
// worst-case op budget while in flight.
const (
	// defaultRunOps mirrors the engine's default per-run MaxOps budget.
	defaultRunOps = 16_000_000
	// compileOps is the flat charge for parse+compile+vet requests.
	compileOps = 1_000_000
)

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		writeJSONBody(w, HealthResponse{Status: "draining", Draining: true})
		return
	}
	writeJSON(w, HealthResponse{Status: "ok"})
}

// writeJSONBody writes v without touching headers (for handlers that set
// their own status first).
func writeJSONBody(w http.ResponseWriter, v any) {
	var buf bytes.Buffer
	encodeTo(&buf, v)
	w.Write(buf.Bytes())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.syncCacheMetrics()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.obs.WriteMetricsText(w)
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	var req CompileRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.Source == "" {
		writeError(w, http.StatusBadRequest, codeBadRequest, "source must be non-empty")
		return
	}
	lang, err := parseLang(req.Lang)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	tc, err := newToolchain(req.Compiler, req.Version)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeUnknownCompiler, err.Error())
		return
	}
	release, ok := s.admit(w, r, compileOps)
	if !ok {
		return
	}
	defer release()

	prog, err := accv.Parse(req.Source, lang)
	if err != nil {
		writeJSON(w, CompileResponse{OK: false, Diagnostics: []Diagnostic{{
			Severity: "error", Message: "frontend: " + err.Error(),
		}}, Findings: []Finding{}})
		return
	}
	exe, diags, err := tc.Compile(prog)
	resp := CompileResponse{OK: err == nil, Diagnostics: wireDiags(diags), Findings: []Finding{}}
	if err != nil && len(resp.Diagnostics) == 0 {
		resp.Diagnostics = append(resp.Diagnostics, Diagnostic{Severity: "error", Message: err.Error()})
	}
	if exe != nil {
		resp.Findings = wireFindings(exe.Findings)
	}
	writeJSON(w, resp)
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.Source == "" {
		writeError(w, http.StatusBadRequest, codeBadRequest, "source must be non-empty")
		return
	}
	if req.MaxOps < 0 || req.TimeoutMS < 0 {
		writeError(w, http.StatusBadRequest, codeBadRequest, "max_ops and timeout_ms must be non-negative")
		return
	}
	lang, err := parseLang(req.Lang)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	tc, err := newToolchain(req.Compiler, req.Version)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeUnknownCompiler, err.Error())
		return
	}
	engine, err := interp.ParseEngine(req.Engine)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	budget := req.MaxOps
	if budget == 0 {
		budget = defaultRunOps
	}
	release, ok := s.admit(w, r, budget)
	if !ok {
		return
	}
	defer release()

	opts := []accv.Option{
		accv.WithSeed(req.Seed),
		accv.WithEngine(engine),
		accv.WithCompileCache(s.cache),
		accv.WithObs(s.obs),
	}
	if req.MaxOps > 0 {
		opts = append(opts, accv.WithBudget(req.MaxOps))
	}
	if req.TimeoutMS > 0 {
		opts = append(opts, accv.WithTimeout(msDuration(req.TimeoutMS)))
	}
	for k, v := range req.Env {
		opts = append(opts, accv.WithEnv(k, v))
	}
	res, err := accv.CompileAndRunContext(r.Context(), req.Source, lang, tc, opts...)
	if err != nil {
		// Frontend or compile failure: the program never ran.
		writeError(w, http.StatusUnprocessableEntity, codeBadRequest, err.Error())
		return
	}
	resp := RunResponse{
		Exit: res.Exit, Output: res.Output, SimCycles: res.SimCycles,
		Kernels: res.Kernels, ElemsIn: res.ElemsIn, ElemsOut: res.ElemsOut,
	}
	if res.Err != nil {
		resp.Error = res.Err.Error()
		if r.Context().Err() != nil {
			// The client went away; nothing useful to write, but finish
			// the exchange coherently for middlware accounting.
			writeError(w, statusClientClosedRequest, codeCanceled, resp.Error)
			return
		}
	}
	writeJSON(w, resp)
}

// statusClientClosedRequest is nginx's non-standard 499 — the best
// available status for "the client canceled before the response".
const statusClientClosedRequest = 499

func (s *Server) handleVet(w http.ResponseWriter, r *http.Request) {
	var req VetRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.Source == "" {
		writeError(w, http.StatusBadRequest, codeBadRequest, "source must be non-empty")
		return
	}
	lang, err := parseLang(req.Lang)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	release, ok := s.admit(w, r, compileOps)
	if !ok {
		return
	}
	defer release()

	prog, err := accv.Parse(req.Source, lang)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, codeBadRequest, "frontend: "+err.Error())
		return
	}
	writeJSON(w, VetResponse{Findings: wireFindings(accv.AnalyzeProgram(prog))})
}

// suiteCost estimates a suite request's op budget: each of the selected
// templates runs its functional and cross variants Iterations times, each
// run bounded by the engine's default op budget.
func suiteCost(lang accv.Language, family string, iterations int) int64 {
	n := 0
	for _, t := range accv.AllTemplates() {
		if t.Lang == lang && (family == "" || t.Family == family) {
			n++
		}
	}
	return int64(n) * int64(2*orDefault(iterations, 3)) * defaultRunOps
}

func (s *Server) handleSuite(w http.ResponseWriter, r *http.Request) {
	var req SuiteRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	lang, format, opts, err := s.suiteOptions(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	tc, err := newToolchain(req.Compiler, req.Version)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeUnknownCompiler, err.Error())
		return
	}
	release, ok := s.admit(w, r, suiteCost(lang, req.Family, req.Iterations))
	if !ok {
		return
	}
	defer release()

	// Identical concurrent requests coalesce: one execution, one response
	// body, every joiner served a copy. The run proceeds while at least
	// one interested client remains; it is canceled only when every
	// joiner has gone away.
	key := coalesceKey("suite", req, tc.Name(), tc.Version())
	out, coalesced := s.suiteFlights.do(r.Context(), key, func(ctx context.Context) flightResult {
		runner, err := accv.NewRunner(lang, opts...)
		if err != nil {
			return errorResult(http.StatusBadRequest, codeBadRequest, err.Error())
		}
		res, runErr := runner.RunContext(ctx, tc)
		if runErr != nil && ctx.Err() != nil {
			return errorResult(statusClientClosedRequest, codeCanceled,
				"suite run canceled: every requesting client went away")
		}
		var report bytes.Buffer
		if err := accv.WriteReport(&report, res, format); err != nil {
			return errorResult(http.StatusInternalServerError, codeInternal, err.Error())
		}
		return jsonResult(http.StatusOK, SuiteResponse{
			Compiler: res.Compiler, Version: res.Version,
			Lang:  lang.String(),
			Total: res.Total(), Passed: res.Passed(), Failed: res.Failed(),
			PassRate:   res.PassRate(),
			DurationMS: res.Duration.Milliseconds(),
			Report:     report.String(),
		})
	})
	if out == nil {
		// This joiner's client canceled while waiting for the flight.
		writeError(w, statusClientClosedRequest, codeCanceled, "client canceled while awaiting a coalesced run")
		return
	}
	if coalesced {
		s.obs.Add("accvd_coalesced_requests_total", 1)
		w.Header().Set("X-Accvd-Coalesced", "1")
	}
	out.write(w)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.Vendor == "" {
		writeError(w, http.StatusBadRequest, codeBadRequest, "vendor must be set (caps, pgi, or cray)")
		return
	}
	versions := accv.Versions(req.Vendor)
	if len(versions) == 0 {
		writeError(w, http.StatusBadRequest, codeUnknownCompiler,
			"no simulated versions for vendor "+req.Vendor+" (want caps, pgi, or cray)")
		return
	}
	if req.Iterations < 0 || req.Parallelism < 0 || req.TimeoutMS < 0 {
		writeError(w, http.StatusBadRequest, codeBadRequest, "iterations, parallelism, and timeout_ms must be non-negative")
		return
	}
	langs := make([]accv.Language, 0, 2)
	if len(req.Langs) == 0 {
		langs = append(langs, accv.C)
	}
	for _, l := range req.Langs {
		lang, err := parseLang(l)
		if err != nil {
			writeError(w, http.StatusBadRequest, codeBadRequest, err.Error())
			return
		}
		langs = append(langs, lang)
	}
	vet, err := core.ParseVetPolicy(req.Vet)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	engine, err := interp.ParseEngine(req.Engine)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}

	var cost int64
	for _, l := range langs {
		cost += suiteCost(l, req.Family, req.Iterations) * int64(len(versions))
	}
	release, ok := s.admit(w, r, cost)
	if !ok {
		return
	}
	defer release()

	par := req.Parallelism
	if par == 0 {
		par = s.cfg.DefaultParallelism
	}
	opts := []accv.Option{
		accv.WithLangs(langs...),
		accv.WithIterations(orDefault(req.Iterations, 3)),
		accv.WithParallelism(par),
		accv.WithVet(vet),
		accv.WithEngine(engine),
		accv.WithObs(s.obs),
		accv.WithCompileCache(s.cache),
		// The cross-request memo: sweeps repeated across requests (CI
		// jobs re-validating every release) are served from the shared
		// single-flight table, and concurrent identical sweeps coalesce
		// per test execution.
		accv.WithSweepMemo(s.memo),
	}
	if s.store != nil {
		// The persistent store behind the memo: verdicts survive daemon
		// restarts, so a freshly started accvd serves repeat sweeps from
		// disk instead of re-executing (docs/STORE.md).
		opts = append(opts, accv.WithResultStore(s.store))
	}
	if req.Family != "" {
		opts = append(opts, accv.WithFamily(req.Family))
	}
	if req.TimeoutMS > 0 {
		opts = append(opts, accv.WithTimeout(msDuration(req.TimeoutMS)))
	}

	res, runErr := accv.RunSweep(r.Context(), req.Vendor, opts...)
	if runErr != nil {
		if errors.Is(runErr, context.Canceled) || r.Context().Err() != nil {
			writeError(w, statusClientClosedRequest, codeCanceled, runErr.Error())
			return
		}
		writeError(w, http.StatusInternalServerError, codeInternal, runErr.Error())
		return
	}
	resp := SweepResponse{
		Vendor: res.Vendor, Versions: res.Versions,
		MemoHits: res.MemoHits, MemoMisses: res.MemoMisses,
		StoreHits:  res.StoreHits,
		DurationMS: res.Duration.Milliseconds(),
	}
	for _, l := range res.Langs {
		resp.Langs = append(resp.Langs, l.String())
	}
	resp.Cells = make([][]SweepCell, len(res.Versions))
	for vi := range res.Versions {
		resp.Cells[vi] = make([]SweepCell, len(res.Langs))
		for li := range res.Langs {
			cell := res.Cells[vi][li]
			resp.Cells[vi][li] = SweepCell{
				Version: res.Versions[vi], Lang: res.Langs[li].String(),
				Total: cell.Total(), Passed: cell.Passed(), Failed: cell.Failed(),
				PassRate: cell.PassRate(),
			}
		}
	}
	writeJSON(w, resp)
}

// handleDiff classifies the per-template deltas between two inline
// release snapshots — the service form of `accval diff`. Diffing is pure
// computation over the request body (no compilation, no execution), so it
// is charged the flat compile cost.
func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	var req DiffRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.A == nil || req.B == nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "snapshots a and b must both be set")
		return
	}
	for _, snap := range []*accv.Snapshot{req.A, req.B} {
		if snap.Schema != accv.SnapshotSchemaVersion {
			writeError(w, http.StatusBadRequest, codeBadRequest,
				fmt.Sprintf("snapshot schema %d, this server speaks %d", snap.Schema, accv.SnapshotSchemaVersion))
			return
		}
	}
	release, ok := s.admit(w, r, compileOps)
	if !ok {
		return
	}
	defer release()

	var opts []accv.DiffOption
	if len(req.KnownFlaky) > 0 {
		opts = append(opts, accv.WithKnownFlaky(req.KnownFlaky...))
	}
	writeJSON(w, accv.Diff(req.A, req.B, opts...))
}

// coalesceKey canonicalizes a request into a flight key. The resolved
// toolchain identity is appended so "latest version" requests made
// across a release boundary never share a flight with pinned ones.
func coalesceKey(kind string, req SuiteRequest, tcName, tcVersion string) string {
	var b strings.Builder
	b.WriteString(kind)
	encodeTo(&b, req)
	b.WriteString(tcName)
	b.WriteByte(' ')
	b.WriteString(tcVersion)
	return b.String()
}
