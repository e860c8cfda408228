// The wire surface: request/response JSON schemas, the error envelope,
// and the parsers shared by every endpoint. docs/SERVICE.md is the
// normative reference for everything in this file.
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"accv"
	"accv/internal/analysis"
	"accv/internal/compiler"
	"accv/internal/core"
	"accv/internal/interp"
)

// Error codes of the error envelope (docs/SERVICE.md, "Errors").
const (
	codeBadRequest      = "bad_request"
	codeUnknownCompiler = "unknown_compiler"
	codeQuotaExhausted  = "quota_exhausted"
	codeDraining        = "draining"
	codeCanceled        = "canceled"
	codeInternal        = "internal"
)

// ErrorCodes lists every error code the service can return — the set
// docs/SERVICE.md must document (checked by the docs contract test).
func ErrorCodes() []string {
	return []string{codeBadRequest, codeUnknownCompiler, codeQuotaExhausted,
		codeDraining, codeCanceled, codeInternal}
}

// errorEnvelope is the uniform error body: {"error":{"code","message"}}.
type errorEnvelope struct {
	Error errorBody `json:"error"`
}

type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorEnvelope{Error: errorBody{Code: code, Message: msg}})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// maxBodyBytes bounds request bodies (sources are small; suites carry no
// payload beyond options).
const maxBodyBytes = 1 << 20

// decodeJSON strictly decodes the request body into v: malformed JSON,
// unknown fields, and trailing garbage all yield a structured 400.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "invalid request body: "+err.Error())
		return false
	}
	if dec.More() {
		writeError(w, http.StatusBadRequest, codeBadRequest, "invalid request body: trailing data after JSON value")
		return false
	}
	return true
}

// parseLang maps the wire language names onto the facade's.
func parseLang(s string) (accv.Language, error) {
	switch s {
	case "c", "":
		return accv.C, nil
	case "fortran", "f":
		return accv.Fortran, nil
	}
	return accv.C, fmt.Errorf("unknown lang %q (want c or fortran)", s)
}

// parseFormat mirrors accval's -format flag values.
func parseFormat(s string) (accv.ReportFormat, error) {
	switch s {
	case "text", "":
		return accv.Text, nil
	case "csv":
		return accv.CSV, nil
	case "html":
		return accv.HTML, nil
	}
	return accv.Text, fmt.Errorf("unknown format %q (want text, csv, or html)", s)
}

// newToolchain resolves a compiler name/version the way accval does:
// empty version means the newest simulated release.
func newToolchain(name, version string) (accv.Compiler, error) {
	if name == "" {
		name = "reference"
	}
	if version == "" {
		if vs := accv.Versions(name); len(vs) > 0 {
			version = vs[len(vs)-1]
		}
	}
	tc, err := accv.NewCompiler(name, version)
	if err != nil {
		return nil, err
	}
	return tc, nil
}

// Diagnostic is one compiler diagnostic on the wire.
type Diagnostic struct {
	Severity string `json:"severity"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
	BugID    string `json:"bug_id,omitempty"`
}

func wireDiags(diags []compiler.Diagnostic) []Diagnostic {
	out := make([]Diagnostic, 0, len(diags))
	for _, d := range diags {
		sev := "warning"
		if d.Sev == compiler.Error {
			sev = "error"
		}
		out = append(out, Diagnostic{
			Severity: sev, Line: d.Line, Col: d.Col,
			Message: d.Msg, BugID: d.BugID,
		})
	}
	return out
}

// Finding is one accvet static-analysis finding on the wire.
type Finding struct {
	ID       string `json:"id"`
	Severity string `json:"severity"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Func     string `json:"func,omitempty"`
	Var      string `json:"var,omitempty"`
	Message  string `json:"message"`
}

func wireFindings(fs []analysis.Finding) []Finding {
	out := make([]Finding, 0, len(fs))
	for _, f := range fs {
		out = append(out, Finding{
			ID: f.ID, Severity: f.Sev.String(),
			Line: f.Pos.Line, Col: f.Pos.Col,
			Func: f.Func, Var: f.Var, Message: f.Message,
		})
	}
	return out
}

// CompileRequest asks for a compilation only (no execution).
type CompileRequest struct {
	Source   string `json:"source"`
	Lang     string `json:"lang,omitempty"`
	Compiler string `json:"compiler,omitempty"`
	Version  string `json:"version,omitempty"`
}

// CompileResponse reports whether the toolchain accepted the program.
type CompileResponse struct {
	OK          bool         `json:"ok"`
	Diagnostics []Diagnostic `json:"diagnostics"`
	Findings    []Finding    `json:"findings"`
}

// RunRequest compiles and executes one program on the simulated device.
type RunRequest struct {
	Source    string            `json:"source"`
	Lang      string            `json:"lang,omitempty"`
	Compiler  string            `json:"compiler,omitempty"`
	Version   string            `json:"version,omitempty"`
	Seed      int64             `json:"seed,omitempty"`
	MaxOps    int64             `json:"max_ops,omitempty"`
	TimeoutMS int64             `json:"timeout_ms,omitempty"`
	Env       map[string]string `json:"env,omitempty"`
	Engine    string            `json:"engine,omitempty"`
}

// RunResponse mirrors accv.RunResult.
type RunResponse struct {
	Exit      int64  `json:"exit"`
	Output    string `json:"output"`
	SimCycles int64  `json:"sim_cycles"`
	Kernels   int64  `json:"kernels"`
	ElemsIn   int64  `json:"elems_in"`
	ElemsOut  int64  `json:"elems_out"`
	Error     string `json:"error,omitempty"`
}

// VetRequest asks for static analysis only.
type VetRequest struct {
	Source string `json:"source"`
	Lang   string `json:"lang,omitempty"`
}

// VetResponse lists the unsuppressed findings.
type VetResponse struct {
	Findings []Finding `json:"findings"`
}

// SuiteRequest runs the validation suite against one compiler. The
// options mirror accval's flags one-to-one (docs/SERVICE.md).
type SuiteRequest struct {
	Compiler    string `json:"compiler,omitempty"`
	Version     string `json:"version,omitempty"`
	Lang        string `json:"lang,omitempty"`
	Family      string `json:"family,omitempty"`
	Iterations  int    `json:"iterations,omitempty"`
	Parallelism int    `json:"parallelism,omitempty"`
	TimeoutMS   int64  `json:"timeout_ms,omitempty"`
	FailFast    bool   `json:"fail_fast,omitempty"`
	Vet         string `json:"vet,omitempty"`
	Engine      string `json:"engine,omitempty"`
	Format      string `json:"format,omitempty"`
}

// SuiteResponse is a completed suite run; Report is the rendered report,
// byte-identical to accval writing the same run locally.
type SuiteResponse struct {
	Compiler   string  `json:"compiler"`
	Version    string  `json:"version"`
	Lang       string  `json:"lang"`
	Total      int     `json:"total"`
	Passed     int     `json:"passed"`
	Failed     int     `json:"failed"`
	PassRate   float64 `json:"pass_rate"`
	DurationMS int64   `json:"duration_ms"`
	Report     string  `json:"report"`
}

// SweepRequest sweeps every simulated release of a vendor.
type SweepRequest struct {
	Vendor      string   `json:"vendor"`
	Langs       []string `json:"langs,omitempty"`
	Family      string   `json:"family,omitempty"`
	Iterations  int      `json:"iterations,omitempty"`
	Parallelism int      `json:"parallelism,omitempty"`
	TimeoutMS   int64    `json:"timeout_ms,omitempty"`
	Vet         string   `json:"vet,omitempty"`
	Engine      string   `json:"engine,omitempty"`
}

// SweepCell is one (version × lang) suite summary.
type SweepCell struct {
	Version  string  `json:"version"`
	Lang     string  `json:"lang"`
	Total    int     `json:"total"`
	Passed   int     `json:"passed"`
	Failed   int     `json:"failed"`
	PassRate float64 `json:"pass_rate"`
}

// SweepResponse is a completed sweep: cells in (version-major,
// lang-minor) order plus this request's memo and store telemetry.
// StoreHits counts tests served from the persistent result store
// (always 0 when accvd runs without -store); it is disjoint from
// MemoHits and MemoMisses.
type SweepResponse struct {
	Vendor     string        `json:"vendor"`
	Versions   []string      `json:"versions"`
	Langs      []string      `json:"langs"`
	Cells      [][]SweepCell `json:"cells"`
	MemoHits   int64         `json:"memo_hits"`
	MemoMisses int64         `json:"memo_misses"`
	StoreHits  int64         `json:"store_hits"`
	DurationMS int64         `json:"duration_ms"`
}

// DiffRequest compares two release snapshots (POST /v1/diff). The
// snapshots travel inline, in exactly the JSON form `accval run
// -snapshot` writes; known_flaky lists template IDs ("name.lang") whose
// pass/fail flips should classify flaky rather than regression/fix.
type DiffRequest struct {
	A          *accv.Snapshot `json:"a"`
	B          *accv.Snapshot `json:"b"`
	KnownFlaky []string       `json:"known_flaky,omitempty"`
}

// DiffResponse is the classified release diff — the accv.ReleaseDiff
// structure verbatim (entries sorted by template ID; counts per class).
type DiffResponse = accv.ReleaseDiff

// HealthResponse is the /healthz body.
type HealthResponse struct {
	Status   string `json:"status"` // "ok" or "draining"
	Draining bool   `json:"draining"`
}

// suiteOptions maps a SuiteRequest onto facade options shared by the
// blocking and streaming suite endpoints. It returns the parsed language
// and report format alongside.
func (s *Server) suiteOptions(req SuiteRequest) (accv.Language, accv.ReportFormat, []accv.Option, error) {
	lang, err := parseLang(req.Lang)
	if err != nil {
		return 0, 0, nil, err
	}
	format, err := parseFormat(req.Format)
	if err != nil {
		return 0, 0, nil, err
	}
	vet, err := core.ParseVetPolicy(req.Vet)
	if err != nil {
		return 0, 0, nil, err
	}
	engine, err := interp.ParseEngine(req.Engine)
	if err != nil {
		return 0, 0, nil, err
	}
	if req.Iterations < 0 || req.Parallelism < 0 || req.TimeoutMS < 0 {
		return 0, 0, nil, errors.New("iterations, parallelism, and timeout_ms must be non-negative")
	}
	par := req.Parallelism
	if par == 0 {
		par = s.cfg.DefaultParallelism
	}
	opts := []accv.Option{
		accv.WithIterations(orDefault(req.Iterations, 3)),
		accv.WithParallelism(par),
		accv.WithVet(vet),
		accv.WithEngine(engine),
		accv.WithObs(s.obs),
		accv.WithCompileCache(s.cache),
	}
	if req.Family != "" {
		opts = append(opts, accv.WithFamily(req.Family))
	}
	if req.TimeoutMS > 0 {
		opts = append(opts, accv.WithTimeout(time.Duration(req.TimeoutMS)*time.Millisecond))
	}
	if req.FailFast {
		opts = append(opts, accv.WithFailFast())
	}
	return lang, format, opts, nil
}

func orDefault(v, def int) int {
	if v == 0 {
		return def
	}
	return v
}

// encodeTo JSON-encodes v into w (with encoding/json's trailing newline).
func encodeTo(w io.Writer, v any) { json.NewEncoder(w).Encode(v) }

func msDuration(ms int64) time.Duration { return time.Duration(ms) * time.Millisecond }
