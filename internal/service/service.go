// Package service is the HTTP (JSON) face of the engine: atroposd's
// handlers. Five POST endpoints mirror the engine's verbs —
//
//	POST /v1/parse     {source}                      → parsed/formatted program
//	POST /v1/analyze   {source|benchmark, model, …}  → anomaly report
//	POST /v1/repair    {source|benchmark, model, …}  → repair result
//	POST /v1/certify   {source|benchmark, model}     → witness-replay certificate
//	POST /v1/simulate  {benchmark, topology, mode, …} → cluster-simulation point
//	GET  /v1/stats                                   → engine counters
//	GET  /healthz                                    → liveness (always 200)
//	GET  /readyz                                     → readiness (503 while draining)
//
// Request contexts thread into the engine (and down to the detector), so
// a disconnected client or an expired per-request timeout_ms aborts the
// work mid-detection. Engine overload surfaces as 429 with Retry-After; a
// missed deadline as 504. A panicking handler answers 500 and the daemon
// keeps serving — ServeHTTP isolates every request behind a recover.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"atropos/internal/anomaly"
	"atropos/internal/ast"
	"atropos/internal/benchmarks"
	"atropos/internal/cluster"
	"atropos/internal/engine"
	"atropos/internal/repair"
	"atropos/internal/replay"
)

// maxBodyBytes bounds request bodies; programs are small DSL texts.
const maxBodyBytes = 1 << 20

// Server wires the engine's verbs to HTTP routes. Construct with New.
type Server struct {
	eng    *engine.Engine
	mux    *http.ServeMux
	ready  atomic.Bool
	logf   func(format string, args ...any)
	nextID atomic.Int64 // fallback X-Request-ID counter
}

// ridKey carries the request id through the handler context.
type ridKey struct{}

// requestID returns the id ServeHTTP assigned to this request.
func requestID(r *http.Request) string {
	id, _ := r.Context().Value(ridKey{}).(string)
	return id
}

// New builds the HTTP server for an engine. The server starts ready.
func New(eng *engine.Engine) *Server {
	s := &Server{eng: eng, mux: http.NewServeMux(), logf: log.Printf}
	s.ready.Store(true)
	s.mux.HandleFunc("POST /v1/parse", s.handleParse)
	s.mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	s.mux.HandleFunc("POST /v1/repair", s.handleRepair)
	s.mux.HandleFunc("POST /v1/certify", s.handleCertify)
	s.mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	return s
}

// SetReady flips the /readyz answer. The daemon flips it to false on
// SIGTERM before draining, so load balancers stop routing new traffic
// while in-flight requests finish.
func (s *Server) SetReady(ok bool) { s.ready.Store(ok) }

// AdminHandler serves net/http/pprof under /debug/pprof/, for a separate
// admin listener (atroposd -pprof): profiles come from the running daemon,
// and the public listener never exposes them.
func AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ServeHTTP implements http.Handler. Every request runs behind a recover:
// a panicking handler answers 500 (when nothing was written yet) and the
// daemon keeps serving — one poisoned request must not take the process
// down. http.ErrAbortHandler passes through: it is net/http's own
// abort-this-response protocol, not a defect.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// Every request gets an id — the caller's X-Request-ID when present, a
	// generated one otherwise — echoed on the response, threaded through the
	// handler context, and stamped on logs and error bodies, so one request
	// can be traced across client, daemon, and panic stacks.
	rid := r.Header.Get("X-Request-ID")
	if rid == "" {
		rid = "atropos-" + strconv.FormatInt(s.nextID.Add(1), 10)
	}
	w.Header().Set("X-Request-ID", rid)
	r = r.WithContext(context.WithValue(r.Context(), ridKey{}, rid))
	defer func() {
		if v := recover(); v != nil {
			if v == http.ErrAbortHandler {
				panic(v)
			}
			s.logf("service: panic serving %s %s (request %s): %v\n%s", r.Method, r.URL.Path, rid, v, debug.Stack())
			writeJSON(w, http.StatusInternalServerError, errorResponse{Error: "internal error", RequestID: rid})
		}
	}()
	s.mux.ServeHTTP(w, r)
}

// handleHealthz is liveness: the process is up and serving HTTP. Always
// 200 — readiness is the endpoint that goes dark during drain.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is readiness: 200 while accepting work, 503 once the
// daemon is draining for shutdown.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// ProgramRequest is the shared request shape of the program-centric
// endpoints. Exactly one of Source (DSL text) or Benchmark (a Table 1
// name) selects the program. /v1/certify and /v1/parse answer 400 for the
// knobs they do not read (see unread).
type ProgramRequest struct {
	Source    string `json:"source,omitempty"`
	Benchmark string `json:"benchmark,omitempty"`
	// Model is the consistency model ("EC", "CC", "RR", "SC"); default EC.
	Model string `json:"model,omitempty"`
	// Client keys this caller's DetectSession in the engine's LRU; empty
	// disables session reuse across requests. At most 256 bytes.
	Client string `json:"client,omitempty"`
	// TimeoutMs bounds the request server-side; 0 means none, negative is a 400.
	TimeoutMs int `json:"timeout_ms,omitempty"`
	// Certify (repair only) replays every initial anomaly as an executable
	// certificate with negative controls.
	Certify bool `json:"certify,omitempty"`
}

// errorResponse is every non-2xx body.
type errorResponse struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

// PairJSON is one anomalous access pair.
type PairJSON struct {
	Txn     string   `json:"txn"`
	C1      string   `json:"c1"`
	F1      []string `json:"f1,omitempty"`
	C2      string   `json:"c2"`
	F2      []string `json:"f2,omitempty"`
	Kind    string   `json:"kind"`
	Witness string   `json:"witness"`
	D1      string   `json:"d1"`
	D2      string   `json:"d2"`
	Edge1   string   `json:"edge1"`
	Edge2   string   `json:"edge2"`
	Display string   `json:"display"`
}

func pairJSON(p anomaly.AccessPair) PairJSON {
	return PairJSON{
		Txn: p.Txn,
		C1:  p.C1, F1: p.F1,
		C2: p.C2, F2: p.F2,
		Kind:    string(p.Kind),
		Witness: p.Witness.Txn,
		D1:      p.Witness.D1,
		D2:      p.Witness.D2,
		Edge1:   string(p.Witness.Edge1),
		Edge2:   string(p.Witness.Edge2),
		Display: p.String(),
	}
}

func pairsJSON(ps []anomaly.AccessPair) []PairJSON {
	out := make([]PairJSON, len(ps))
	for i, p := range ps {
		out[i] = pairJSON(p)
	}
	return out
}

// ParseResponse echoes the accepted program.
type ParseResponse struct {
	Formatted string `json:"formatted"`
	Txns      int    `json:"txns"`
	Tables    int    `json:"tables"`
}

// AnalyzeResponse is the anomaly report.
type AnalyzeResponse struct {
	Model   string     `json:"model"`
	Count   int        `json:"count"`
	Pairs   []PairJSON `json:"pairs"`
	Queries int        `json:"queries"`
	Solved  int        `json:"solved"`
	// Degraded is never set: a detection either completes or fails with
	// its context. It stays, like RepairResponse's, so that readers that
	// check it keep working.
	Degraded bool `json:"degraded,omitempty"`
	// ElapsedMs is wall clock and therefore non-deterministic; golden
	// tests strip it.
	ElapsedMs float64 `json:"elapsed_ms"`
}

// RepairResponse is the repair pipeline's outcome.
type RepairResponse struct {
	Model            string     `json:"model"`
	Initial          []PairJSON `json:"initial"`
	Remaining        []PairJSON `json:"remaining"`
	Steps            []string   `json:"steps"`
	Corrs            []string   `json:"corrs,omitempty"`
	SerializableTxns []string   `json:"serializable_txns,omitempty"`
	Program          string     `json:"program"`
	Queries          int        `json:"queries"`
	Solved           int        `json:"solved"`
	CacheHitRate     float64    `json:"cache_hit_rate"`
	// Degraded marks a partial result: DegradedStages names the pipeline
	// stages whose deadline expired. The Program is still valid;
	// SerializableTxns stays conservative.
	Degraded       bool      `json:"degraded,omitempty"`
	DegradedStages []string  `json:"degraded_stages,omitempty"`
	Certificate    *CertJSON `json:"certificate,omitempty"`
	ElapsedMs      float64   `json:"elapsed_ms"`
}

// CertJSON summarizes a witness-replay certificate.
type CertJSON struct {
	Model     string  `json:"model"`
	Total     int     `json:"total"`
	Lowered   int     `json:"lowered"`
	Certified int     `json:"certified"`
	Rate      float64 `json:"rate"`
	// Negative controls, present on repair certificates.
	SCRuns             int `json:"sc_runs,omitempty"`
	SCViolations       int `json:"sc_violations,omitempty"`
	RepairedRuns       int `json:"repaired_runs,omitempty"`
	RepairedViolations int `json:"repaired_violations,omitempty"`
}

// CertifyResponse is the standalone certification endpoint's body.
type CertifyResponse struct {
	Model       string     `json:"model"`
	Count       int        `json:"count"`
	Certificate CertJSON   `json:"certificate"`
	Pairs       []PairJSON `json:"pairs"`
	ElapsedMs   float64    `json:"elapsed_ms"`
}

// SimulateRequest drives one cluster-simulator run of a benchmark.
type SimulateRequest struct {
	Benchmark string `json:"benchmark"`
	// Topology: "VA", "US", or "Global" (default VA).
	Topology string `json:"topology,omitempty"`
	// Mode: "EC", "SC", or "AT-SC" (default EC).
	Mode       string `json:"mode,omitempty"`
	Clients    int    `json:"clients,omitempty"`
	DurationMs int    `json:"duration_ms,omitempty"`
	Ops        int64  `json:"ops,omitempty"`
	Records    int    `json:"records,omitempty"`
	Seed       int64  `json:"seed,omitempty"`
	TimeoutMs  int    `json:"timeout_ms,omitempty"`
	// FaultScenario names a deterministic fault schedule from the chaos
	// panel (cluster.ChaosScenarios) to run the simulation under; empty
	// means fault-free.
	FaultScenario string `json:"fault_scenario,omitempty"`
}

// validate rejects numeric fields the simulator cannot run: it needs at
// least one client, and a negative size, horizon or timeout is a malformed
// request (zero records, duration and ops select the simulator's defaults).
func (req *SimulateRequest) validate() error {
	switch {
	case req.Clients < 1:
		return fmt.Errorf("clients must be at least 1, got %d", req.Clients)
	case req.Records < 0:
		return fmt.Errorf("records must not be negative, got %d", req.Records)
	case req.DurationMs < 0:
		return fmt.Errorf("duration_ms must not be negative, got %d", req.DurationMs)
	case req.Ops < 0:
		return fmt.Errorf("ops must not be negative, got %d", req.Ops)
	case req.TimeoutMs < 0:
		return fmt.Errorf("timeout_ms must not be negative, got %d", req.TimeoutMs)
	}
	return nil
}

// SimulateResponse is one measured deployment point.
type SimulateResponse struct {
	Benchmark  string  `json:"benchmark"`
	Topology   string  `json:"topology"`
	Mode       string  `json:"mode"`
	Clients    int     `json:"clients"`
	Committed  int64   `json:"committed"`
	Aborted    int64   `json:"aborted"`
	Throughput float64 `json:"throughput"`
	MeanMs     float64 `json:"mean_ms"`
	P50Ms      float64 `json:"p50_ms"`
	P95Ms      float64 `json:"p95_ms"`
	P99Ms      float64 `json:"p99_ms"`
}

// respBufs recycles response buffers across requests; a buffer that grew
// past maxPooledResp (a whole-benchmark repair, say) is left to the GC so
// one large answer does not pin its memory for the daemon's lifetime.
var respBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledResp = 64 << 10

// writeJSON is every response's one write: the body is encoded compactly
// (one JSON value and a newline; pipe through jq for an indented view) into
// a pooled buffer before any header goes out, so an encode failure can
// still answer 500, and then sent with its Content-Length in a single
// Write — no chunked framing, no second pass.
func writeJSON(w http.ResponseWriter, status int, body any) { writeAnswer(w, status, body, nil) }

// writeAnswer is writeJSON that, given a memoizable miss's Reply, first
// stores the body up to elapsed_ms as the reply to every hit (see
// writeStored).
func writeAnswer(w http.ResponseWriter, status int, body any, reply *engine.Reply) {
	buf, err := encode(body)
	if err != nil {
		putBuf(buf)
		status = http.StatusInternalServerError
		buf, _ = encode(errorResponse{ // two strings always encode
			Error:     "service: encode response: " + err.Error(),
			RequestID: w.Header().Get("X-Request-ID"),
		})
	} else if reply != nil {
		store(reply, buf)
	}
	sendBuf(w, status, buf)
}

// storeReply stores body, a response in the form a hit sends, as a
// memoizable miss's reply.
func storeReply(reply *engine.Reply, body any) {
	buf, err := encode(body)
	if err == nil {
		store(reply, buf)
	}
	putBuf(buf)
}

// store stores a copy of the body encoded in buf, up to elapsed_ms,
// through reply.
func store(reply *engine.Reply, buf *bytes.Buffer) {
	b := buf.Bytes()
	reply.Store(bytes.Clone(b[:bytes.LastIndex(b, elapsedField)+len(elapsedField)]))
}

// encode encodes body, HTML escaping off, into a pooled buffer.
func encode(body any) (*bytes.Buffer, error) {
	buf := respBufs.Get().(*bytes.Buffer)
	buf.Reset()
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	return buf, enc.Encode(body)
}

// elapsedField opens the last field of RepairResponse and CertifyResponse.
var elapsedField = []byte(`"elapsed_ms":`)

// writeStored answers a memo hit from its stored reply, completed with the
// hit's own elapsed_ms, the one part of a hit's body that differs from hit
// to hit.
func writeStored(w http.ResponseWriter, reply *engine.Reply) {
	buf := respBufs.Get().(*bytes.Buffer)
	buf.Reset()
	buf.Write(reply.Bytes)
	buf.Write(appendJSONFloat(buf.AvailableBuffer(), float64(reply.Elapsed)/float64(time.Millisecond)))
	buf.WriteString("}\n")
	sendBuf(w, http.StatusOK, buf)
}

// sendBuf writes buf as the response with its Content-Length and returns buf
// to the pool.
func sendBuf(w http.ResponseWriter, status int, buf *bytes.Buffer) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	w.Write(buf.Bytes()) //nolint:errcheck // client gone: nothing to report to
	putBuf(buf)
}

// putBuf returns buf to the pool unless it grew past maxPooledResp.
func putBuf(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledResp {
		respBufs.Put(buf)
	}
}

// appendJSONFloat appends f as encoding/json encodes a float64: shortest
// form, exponent form below 1e-6 and from 1e21, "1e-7" rather than "1e-07".
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// writeError maps an engine/pipeline error onto its transport status:
// overload / open circuit → 429 + an adaptive Retry-After (queue depth ×
// observed service time, engine.RetryAfter), deadline → 504, cancellation
// (the client hung up) → 499-style silent drop, everything else → the given
// status. Every error body echoes the request id.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, status int, err error) {
	switch {
	case errors.Is(err, engine.ErrOverloaded), errors.Is(err, engine.ErrCircuitOpen):
		w.Header().Set("Retry-After", retryAfterSeconds(s.eng.RetryAfter()))
		status = http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client disconnected; it will never read a body.
		return
	}
	var pe *engine.PanicError
	if errors.As(err, &pe) {
		s.logf("service: engine panic serving %s %s (request %s): %v\n%s", r.Method, r.URL.Path, requestID(r), pe.Value, pe.Stack)
	}
	writeJSON(w, status, errorResponse{Error: err.Error(), RequestID: requestID(r)})
}

// retryAfterSeconds renders a backoff hint as the integral seconds the
// Retry-After header requires, rounding up so the hint never undershoots.
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return fmt.Sprintf("%d", secs)
}

func decodeJSON(w http.ResponseWriter, r *http.Request, into any) error {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	// A body is exactly one JSON value: a second value or trailing garbage
	// is a malformed request, not something to ignore.
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("bad request body: data after the JSON value")
	}
	return nil
}

// requestContext derives the handler context: the client's (so disconnects
// cancel work) plus the optional per-request timeout.
func requestContext(r *http.Request, timeoutMs int) (context.Context, context.CancelFunc) {
	ctx := r.Context()
	if timeoutMs > 0 {
		return context.WithTimeout(ctx, time.Duration(timeoutMs)*time.Millisecond)
	}
	return ctx, func() {}
}

// program resolves the request's program: inline source or a benchmark name.
func (s *Server) program(req *ProgramRequest) (*ast.Program, error) {
	switch {
	case req.Source != "" && req.Benchmark != "":
		return nil, fmt.Errorf("specify source or benchmark, not both")
	case req.Source != "":
		return s.eng.Parse(req.Source)
	case req.Benchmark != "":
		b := benchmarks.ByName(req.Benchmark)
		if b == nil {
			return nil, fmt.Errorf("unknown benchmark %q", req.Benchmark)
		}
		return b.Program()
	default:
		return nil, fmt.Errorf("missing program: specify source or benchmark")
	}
}

// options translates the request's engine knobs into repair options.
func (req *ProgramRequest) options() []repair.Option {
	return []repair.Option{repair.Client(req.Client), repair.Certify(req.Certify)}
}

// unread names the first field set in req that its endpoint would ignore:
// /v1/certify reads only the program and the model, /v1/parse (parse) only
// the source; client and timeout_ms are valid everywhere. Answering 400 for
// such a field keeps a caller from believing a knob it set took effect.
func (req *ProgramRequest) unread(parse bool) string {
	switch {
	case parse && req.Benchmark != "":
		return "benchmark"
	case parse && req.Model != "":
		return "model"
	case req.Certify:
		return "certify"
	}
	return ""
}

// maxClientBytes bounds a client id, which keys an engine session and breaker.
const maxClientBytes = 256

// decodeProgram decodes a ProgramRequest body, answering 400 for a
// malformed body, a negative timeout_ms or a client id past
// maxClientBytes. A field the request type does not have — a retired one
// included — is malformed, and the error names it.
func (s *Server) decodeProgram(w http.ResponseWriter, r *http.Request, req *ProgramRequest) bool {
	err := decodeJSON(w, r, req)
	if err == nil && req.TimeoutMs < 0 {
		err = fmt.Errorf("timeout_ms must not be negative, got %d", req.TimeoutMs)
	}
	if err == nil && len(req.Client) > maxClientBytes {
		err = fmt.Errorf("client must be at most %d bytes, got %d", maxClientBytes, len(req.Client))
	}
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return false
	}
	return true
}

// decodeProgramOnly decodes the body of /v1/parse or /v1/certify,
// answering 400 for a malformed body or a field the endpoint would ignore.
func (s *Server) decodeProgramOnly(w http.ResponseWriter, r *http.Request, req *ProgramRequest) bool {
	if !s.decodeProgram(w, r, req) {
		return false
	}
	if f := req.unread(r.URL.Path == "/v1/parse"); f != "" {
		s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("%s does not apply to %s", f, r.URL.Path))
		return false
	}
	return true
}

func (req *ProgramRequest) model() (anomaly.Model, error) {
	if req.Model == "" {
		return anomaly.EC, nil
	}
	return anomaly.ParseModel(req.Model)
}

func (s *Server) handleParse(w http.ResponseWriter, r *http.Request) {
	var req ProgramRequest
	if !s.decodeProgramOnly(w, r, &req) {
		return
	}
	if req.Source == "" {
		s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("missing source"))
		return
	}
	prog, err := s.eng.Parse(req.Source)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, ParseResponse{
		Formatted: ast.Format(prog),
		Txns:      len(prog.Txns),
		Tables:    len(prog.Schemas),
	})
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req ProgramRequest
	if !s.decodeProgram(w, r, &req) {
		return
	}
	prog, err := s.program(&req)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	model, err := req.model()
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := requestContext(r, req.TimeoutMs)
	defer cancel()
	start := time.Now()
	rep, err := s.eng.Analyze(ctx, prog, model, req.options()...)
	if err != nil {
		s.writeError(w, r, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, AnalyzeResponse{
		Model:     model.String(),
		Count:     rep.Count(),
		Pairs:     pairsJSON(rep.Pairs),
		Queries:   rep.Queries,
		Solved:    rep.Solved,
		ElapsedMs: float64(time.Since(start)) / float64(time.Millisecond),
	})
}

func (s *Server) handleRepair(w http.ResponseWriter, r *http.Request) {
	var req ProgramRequest
	if !s.decodeProgram(w, r, &req) {
		return
	}
	prog, err := s.program(&req)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	model, err := req.model()
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := requestContext(r, req.TimeoutMs)
	defer cancel()
	res, reply, err := s.eng.RepairReply(ctx, prog, model, req.options()...)
	if err != nil {
		s.writeError(w, r, http.StatusInternalServerError, err)
		return
	}
	if reply != nil && reply.Bytes != nil {
		writeStored(w, reply)
		return
	}
	resp := repairResponse(model, res)
	if reply != nil {
		storeReply(reply, repairHit(resp))
	}
	writeJSON(w, http.StatusOK, resp)
}

// repairHit is resp as a memo hit sends it: a hit does no detection work
// of its own, so its stats keep only Queries (cache_hit_rate reads 1).
func repairHit(resp RepairResponse) RepairResponse {
	resp.Solved = 0
	resp.CacheHitRate = anomaly.SessionStats{Queries: resp.Queries}.CacheHitRate()
	return resp
}

// repairResponse renders a repair result.
func repairResponse(model anomaly.Model, res *repair.Result) RepairResponse {
	resp := RepairResponse{
		Model:            model.String(),
		Initial:          pairsJSON(res.Initial),
		Remaining:        pairsJSON(res.Remaining),
		Steps:            res.Steps,
		SerializableTxns: res.SerializableTxns,
		Program:          ast.Format(res.Program),
		Queries:          res.Stats.Queries,
		Solved:           res.Stats.Solved,
		CacheHitRate:     res.Stats.CacheHitRate(),
		Degraded:         res.Degraded,
		DegradedStages:   res.DegradedStages,
		ElapsedMs:        float64(res.Elapsed) / float64(time.Millisecond),
	}
	for _, c := range res.Corrs {
		resp.Corrs = append(resp.Corrs, c.String())
	}
	if c := res.Certificate; c != nil {
		resp.Certificate = &CertJSON{
			Model:              c.Model.String(),
			Total:              c.Total,
			Lowered:            c.Lowered,
			Certified:          c.Certified,
			Rate:               c.Rate(),
			SCRuns:             c.SCRuns,
			SCViolations:       c.SCViolations,
			RepairedRuns:       c.RepairedRuns,
			RepairedViolations: c.RepairedViolations,
		}
	}
	return resp
}

func (s *Server) handleCertify(w http.ResponseWriter, r *http.Request) {
	var req ProgramRequest
	if !s.decodeProgramOnly(w, r, &req) {
		return
	}
	prog, err := s.program(&req)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	model, err := req.model()
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := requestContext(r, req.TimeoutMs)
	defer cancel()
	start := time.Now()
	cert, rep, reply, err := s.eng.CertifyReply(ctx, prog, model)
	if err != nil {
		s.writeError(w, r, http.StatusInternalServerError, err)
		return
	}
	if reply != nil && reply.Bytes != nil {
		writeStored(w, reply)
		return
	}
	elapsed := float64(time.Since(start)) / float64(time.Millisecond)
	writeAnswer(w, http.StatusOK, certifyResponse(model, cert, rep, elapsed), reply)
}

// certifyResponse renders a certificate and the report it certifies.
func certifyResponse(model anomaly.Model, cert *replay.Certificate, rep *anomaly.Report, elapsedMs float64) CertifyResponse {
	return CertifyResponse{
		Model: model.String(),
		Count: rep.Count(),
		Certificate: CertJSON{
			Model:     cert.Model.String(),
			Total:     cert.Total,
			Lowered:   cert.Lowered,
			Certified: cert.Certified,
			Rate:      cert.Rate(),
		},
		Pairs:     pairsJSON(rep.Pairs),
		ElapsedMs: elapsedMs,
	}
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	b := benchmarks.ByName(req.Benchmark)
	if b == nil {
		s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("unknown benchmark %q", req.Benchmark))
		return
	}
	prog, err := b.Program()
	if err != nil {
		s.writeError(w, r, http.StatusInternalServerError, err)
		return
	}
	name := req.Topology
	if name == "" {
		name = "VA"
	}
	topo, ok := cluster.TopologyByName(name)
	if !ok {
		s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("unknown topology %q (want VA, US, or Global)", req.Topology))
		return
	}
	mode := cluster.ModeEC
	switch req.Mode {
	case "", "EC":
	case "SC":
		mode = cluster.ModeSC
	case "AT-SC", "ATSC":
		mode = cluster.ModeATSC
	default:
		s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("unknown mode %q (want EC, SC, or AT-SC)", req.Mode))
		return
	}
	if err := req.validate(); err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	scale := benchmarks.Scale{Records: req.Records} // zero ⇒ DefaultScale
	cfg := cluster.Config{
		Program:  prog,
		Mix:      b.Mix,
		Scale:    scale,
		Rows:     b.Rows(scale),
		Topology: topo,
		Mode:     mode,
		Clients:  req.Clients,
		Duration: time.Duration(req.DurationMs) * time.Millisecond,
		Ops:      req.Ops,
		Seed:     req.Seed,
	}
	if req.FaultScenario != "" {
		// The scenarios are sized to the run's virtual horizon (the
		// simulator's 10s default when the request names no duration).
		dur := cfg.Duration
		if dur == 0 {
			dur = 10 * time.Second
		}
		var names []string
		found := false
		for _, sc := range cluster.ChaosScenarios(dur.Microseconds()) {
			names = append(names, sc.Name)
			if sc.Name == req.FaultScenario {
				cfg.Faults = sc.Plan
				found = true
			}
		}
		if !found {
			s.writeError(w, r, http.StatusBadRequest,
				fmt.Errorf("unknown fault_scenario %q (want one of %v)", req.FaultScenario, names))
			return
		}
	}
	ctx, cancel := requestContext(r, req.TimeoutMs)
	defer cancel()
	res, err := s.eng.Simulate(ctx, cfg)
	if err != nil {
		s.writeError(w, r, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, SimulateResponse{
		Benchmark:  b.Name,
		Topology:   topo.Name,
		Mode:       mode.String(),
		Clients:    res.Point.Clients,
		Committed:  res.Committed,
		Aborted:    res.Aborted,
		Throughput: res.Point.Throughput,
		MeanMs:     res.Point.MeanMs,
		P50Ms:      res.Point.P50Ms,
		P95Ms:      res.Point.P95Ms,
		P99Ms:      res.Point.P99Ms,
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.eng.Stats())
}
