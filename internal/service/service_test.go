package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"atropos/internal/engine"
)

var update = flag.Bool("update", false, "rewrite golden files")

func newTestServer(t *testing.T, cfg engine.Config) (*httptest.Server, *engine.Engine) {
	t.Helper()
	eng := engine.New(cfg)
	ts := httptest.NewServer(New(eng))
	t.Cleanup(ts.Close)
	return ts, eng
}

func post(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

// canonicalize strips the wall-clock field and re-marshals with sorted keys
// so golden comparisons see only deterministic content.
func canonicalize(t *testing.T, data []byte) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("response is not a JSON object: %v\n%s", err, data)
	}
	if _, ok := m["elapsed_ms"]; !ok {
		t.Fatalf("response lacks elapsed_ms:\n%s", data)
	}
	delete(m, "elapsed_ms")
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run go test ./internal/service -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s diverges from golden; run with -update if intentional.\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// TestAnalyzeGolden pins the full /v1/analyze response for SmallBank under
// EC — pairs, witnesses, and SAT-query counts byte for byte.
func TestAnalyzeGolden(t *testing.T) {
	ts, _ := newTestServer(t, engine.Config{Workers: 1})
	resp, body := post(t, ts, "/v1/analyze", ProgramRequest{Benchmark: "SmallBank"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	checkGolden(t, "analyze_smallbank_ec.json", canonicalize(t, body))
}

// TestRepairGolden pins the full /v1/repair response for SmallBank under EC
// — the refactored program, steps, correspondences, and counters.
func TestRepairGolden(t *testing.T) {
	ts, _ := newTestServer(t, engine.Config{Workers: 1})
	resp, body := post(t, ts, "/v1/repair", ProgramRequest{Benchmark: "SmallBank"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	checkGolden(t, "repair_smallbank_ec.json", canonicalize(t, body))
}

func TestParseRoundTrip(t *testing.T) {
	ts, _ := newTestServer(t, engine.Config{Workers: 1})
	src := "table T { id: int key, n: int, }\ntxn get(k: int) { x := select n from T where id = k; return x.n; }\n"
	resp, body := post(t, ts, "/v1/parse", ProgramRequest{Source: src})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var pr ParseResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Txns != 1 || pr.Tables != 1 {
		t.Fatalf("parse response = %+v", pr)
	}
	// The formatted text re-parses to the same shape.
	resp, body = post(t, ts, "/v1/parse", ProgramRequest{Source: pr.Formatted})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-parse status %d: %s", resp.StatusCode, body)
	}
}

// TestBadRequests: malformed requests answer 400 with an error body; where
// want is set, the error must start with it (the field it names).
func TestBadRequests(t *testing.T) {
	ts, _ := newTestServer(t, engine.Config{Workers: 1})
	cases := []struct {
		name string
		path string
		body any
		want string
	}{
		{"syntax error", "/v1/parse", ProgramRequest{Source: "table T {"}, ""},
		{"missing program", "/v1/analyze", ProgramRequest{}, ""},
		{"both source and benchmark", "/v1/analyze", ProgramRequest{Source: "x", Benchmark: "SmallBank"}, ""},
		{"unknown benchmark", "/v1/analyze", ProgramRequest{Benchmark: "nope"}, ""},
		{"unknown model", "/v1/analyze", ProgramRequest{Benchmark: "SmallBank", Model: "XX"}, ""},
		{"unknown field", "/v1/analyze", map[string]any{"benchmark": "SmallBank", "bogus": 1}, ""},
		{"retired field incremental", "/v1/repair", map[string]any{"benchmark": "SmallBank", "incremental": false}, ""},
		{"retired field portfolio", "/v1/analyze", map[string]any{"benchmark": "SmallBank", "portfolio": 3}, ""},
		{"unknown topology", "/v1/simulate", SimulateRequest{Benchmark: "SIBench", Clients: 1, Topology: "Mars"}, "unknown topology"},
		{"unknown mode", "/v1/simulate", SimulateRequest{Benchmark: "SIBench", Clients: 1, Mode: "XY"}, "unknown mode"},
		// The simulator's numeric fields are checked at the door: a negative
		// records count used to panic inside the engine (500), no clients to
		// fail in the engine (500), and a negative horizon to answer an
		// empty 200.
		{"negative records", "/v1/simulate", SimulateRequest{Benchmark: "SIBench", Clients: 2, Records: -5}, "records "},
		{"omitted clients", "/v1/simulate", SimulateRequest{Benchmark: "SIBench"}, "clients "},
		{"negative clients", "/v1/simulate", SimulateRequest{Benchmark: "SIBench", Clients: -1}, "clients "},
		{"negative duration", "/v1/simulate", SimulateRequest{Benchmark: "SIBench", Clients: 2, DurationMs: -1}, "duration_ms "},
		{"negative ops", "/v1/simulate", SimulateRequest{Benchmark: "SIBench", Clients: 2, Ops: -100}, "ops "},
		// No deadline can honour a negative timeout_ms; it used to mean none.
		{"negative timeout", "/v1/repair", ProgramRequest{Benchmark: "SmallBank", TimeoutMs: -7}, "timeout_ms must not be negative, got -7"},
		{"negative simulate timeout", "/v1/simulate", SimulateRequest{Benchmark: "SIBench", Clients: 2, TimeoutMs: -1}, "timeout_ms must not be negative, got -1"},
		// /v1/certify and /v1/parse pass no engine knob on, and a retired
		// field is an unknown one everywhere.
		{"certify with certify", "/v1/certify", ProgramRequest{Benchmark: "SmallBank", Certify: true}, "certify does not apply"},
		{"certify with parallelism", "/v1/certify", map[string]any{"benchmark": "SmallBank", "parallelism": 1}, "bad request body: json: unknown field " + `"parallelism"`},
		{"certify with budget_conflicts", "/v1/certify", map[string]any{"benchmark": "SmallBank", "budget_conflicts": 5}, "bad request body: json: unknown field " + `"budget_conflicts"`},
		{"analyze with budget_propagations", "/v1/analyze", map[string]any{"benchmark": "SmallBank", "budget_propagations": 1}, "bad request body: json: unknown field " + `"budget_propagations"`},
		{"repair with budget_arena_lits", "/v1/repair", map[string]any{"benchmark": "SmallBank", "budget_arena_lits": 0}, "bad request body: json: unknown field " + `"budget_arena_lits"`},
		{"the first retired knob is named", "/v1/certify", map[string]any{"benchmark": "SmallBank", "budget_arena_lits": 9, "parallelism": 2}, "bad request body: json: unknown field " + `"budget_arena_lits"`},
		{"parse with benchmark", "/v1/parse", ProgramRequest{Benchmark: "SmallBank"}, "benchmark "},
		{"parse with model", "/v1/parse", ProgramRequest{Source: "table T { id: int key, }", Model: "EC"}, "model "},
		{"parse with certify", "/v1/parse", ProgramRequest{Source: "table T { id: int key, }", Certify: true}, "certify "},
		{"parse with budget", "/v1/parse", map[string]any{"source": "table T { id: int key, }", "budget_propagations": 1}, "bad request body: json: unknown field " + `"budget_propagations"`},
	}
	for _, tc := range cases {
		resp, body := post(t, ts, tc.path, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, body)
			continue
		}
		var er errorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Errorf("%s: no error body: %s", tc.name, body)
		} else if !strings.HasPrefix(er.Error, tc.want) {
			t.Errorf("%s: error %q, want it to start with %q", tc.name, er.Error, tc.want)
		}
	}
}

// TestErrorStatusMapping pins writeError's transport contract directly:
// overload / open circuit → 429 + Retry-After, deadline → 504,
// cancellation → silent drop.
func TestErrorStatusMapping(t *testing.T) {
	s := New(engine.New(engine.Config{Workers: 1}))
	req := httptest.NewRequest(http.MethodPost, "/v1/analyze", nil)

	rec := httptest.NewRecorder()
	s.writeError(rec, req, http.StatusInternalServerError, engine.ErrOverloaded)
	if rec.Code != http.StatusTooManyRequests {
		t.Errorf("overload status = %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	rec = httptest.NewRecorder()
	s.writeError(rec, req, http.StatusInternalServerError, engine.ErrCircuitOpen)
	if rec.Code != http.StatusTooManyRequests {
		t.Errorf("circuit-open status = %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("circuit-open 429 without Retry-After")
	}

	rec = httptest.NewRecorder()
	s.writeError(rec, req, http.StatusInternalServerError, fmt.Errorf("solve: %w", context.DeadlineExceeded))
	if rec.Code != http.StatusGatewayTimeout {
		t.Errorf("deadline status = %d, want 504", rec.Code)
	}

	rec = httptest.NewRecorder()
	s.writeError(rec, req, http.StatusInternalServerError, context.Canceled)
	if rec.Body.Len() != 0 {
		t.Errorf("cancelled request got a body: %s", rec.Body)
	}

	rec = httptest.NewRecorder()
	s.writeError(rec, req, http.StatusBadRequest, errors.New("boom"))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "boom") {
		t.Errorf("plain error: status %d body %s", rec.Code, rec.Body)
	}
}

// TestTimeoutReturns504: a request whose timeout_ms expires in its worker
// slot comes back as 504, and the engine is healthy for the next request.
// The first request is held in the slot (Exec hook) past its deadline, so
// the outcome does not depend on TPC-C outlasting a 1 ms timer on however
// many cores the detection occupies; a deadline landing inside a solve is
// pinned at the engine layer (TestCancelAbortsMidSolve).
func TestTimeoutReturns504(t *testing.T) {
	var once sync.Once
	ts, eng := newTestServer(t, engine.Config{Workers: 1, Hooks: &engine.Hooks{Exec: func(verb, client string) {
		once.Do(func() { time.Sleep(20 * time.Millisecond) })
	}}})
	resp, body := post(t, ts, "/v1/analyze", ProgramRequest{Benchmark: "TPC-C", TimeoutMs: 1})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%s)", resp.StatusCode, body)
	}
	resp, body = post(t, ts, "/v1/analyze", ProgramRequest{Benchmark: "SIBench"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up status %d: %s", resp.StatusCode, body)
	}
	if st := eng.Stats(); st.Canceled != 1 || st.Completed != 1 || st.InFlight != 0 {
		t.Fatalf("engine stats = %+v", st)
	}
}

// TestCertifyTimeoutReturns504: /v1/certify honours timeout_ms like the
// other endpoints — 504, and the engine counts a cancellation, not a
// completion. The request is held in its slot past the deadline as above;
// a deadline landing inside the replay phase, which is most of a certify's
// work, is pinned in internal/replay (TestCertifyStopsBetweenPairs).
func TestCertifyTimeoutReturns504(t *testing.T) {
	ts, eng := newTestServer(t, engine.Config{Workers: 1, Hooks: &engine.Hooks{Exec: func(verb, client string) {
		time.Sleep(20 * time.Millisecond)
	}}})
	resp, body := post(t, ts, "/v1/certify", ProgramRequest{Benchmark: "TPC-C", TimeoutMs: 1})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%s)", resp.StatusCode, body)
	}
	if st := eng.Stats(); st.Canceled != 1 || st.Completed != 0 || st.InFlight != 0 {
		t.Fatalf("engine stats = %+v", st)
	}
}

// TestDisconnectAbortsSolve: a client that hangs up mid-request frees its
// worker — the engine records a cancellation, not a completion, and the
// slot serves the next request. The worker is parked in its slot (Exec
// hook) until the server has seen the disconnect, so the outcome does not
// depend on how long the analysis would have run; cancellation landing
// inside a solve is pinned at the engine layer (TestCancelAbortsMidSolve).
func TestDisconnectAbortsSolve(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	eng := engine.New(engine.Config{Workers: 1, Hooks: &engine.Hooks{Exec: func(verb, client string) {
		once.Do(func() { close(entered) })
		<-release
	}}})
	svc := New(eng)
	serverCtx := make(chan context.Context, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case serverCtx <- r.Context():
		default:
		}
		svc.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	ctx, cancel := context.WithCancel(context.Background())
	buf, _ := json.Marshal(ProgramRequest{Benchmark: "TPC-C"})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/analyze", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	<-entered
	cancel()
	if err := <-done; err == nil {
		t.Fatal("request succeeded despite disconnect")
	}
	select {
	case <-(<-serverCtx).Done():
	case <-time.After(10 * time.Second):
		t.Fatal("server never observed the disconnect")
	}
	close(release)
	// The handler observes the disconnect asynchronously; wait for the
	// engine to log the cancellation and drain.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := eng.Stats()
		if st.Canceled == 1 && st.InFlight == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("engine never drained: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	resp, body := post(t, ts, "/v1/analyze", ProgramRequest{Benchmark: "SIBench"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up status %d: %s", resp.StatusCode, body)
	}
}

func TestSimulateEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, engine.Config{Workers: 1})
	resp, body := post(t, ts, "/v1/simulate", SimulateRequest{
		Benchmark: "SIBench", Clients: 4, DurationMs: 2000, Records: 10, Seed: 1,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr SimulateResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Committed == 0 {
		t.Fatalf("no commits: %+v", sr)
	}
	if sr.Topology != "VA" || sr.Mode != "EC" {
		t.Fatalf("defaults not applied: %+v", sr)
	}
}

func TestStatsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, engine.Config{Workers: 2, QueueDepth: 5})
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st engine.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Workers != 2 || st.QueueDepth != 5 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestConcurrentMixedHTTP runs 16 concurrent mixed requests through the
// HTTP stack against one engine — the service-level companion to the
// engine's race test.
func TestConcurrentMixedHTTP(t *testing.T) {
	ts, eng := newTestServer(t, engine.Config{Workers: 4, QueueDepth: 64, Sessions: 8})
	const n = 16
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var (
				path string
				body any
			)
			client := []string{"a", "b", "c", "d"}[i%4]
			switch i % 3 {
			case 0:
				path, body = "/v1/analyze", ProgramRequest{Benchmark: "SmallBank", Client: client}
			case 1:
				path, body = "/v1/repair", ProgramRequest{Benchmark: "Courseware", Client: client}
			default:
				path, body = "/v1/simulate", SimulateRequest{
					Benchmark: "SIBench", Clients: 2, DurationMs: 1000, Records: 10, Seed: int64(i),
				}
			}
			buf, err := json.Marshal(body)
			if err != nil {
				errs <- err
				return
			}
			resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
			if err != nil {
				errs <- fmt.Errorf("%s: %w", path, err)
				return
			}
			var respBody bytes.Buffer
			respBody.ReadFrom(resp.Body) //nolint:errcheck // best-effort diagnostic
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, respBody.Bytes())
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := eng.Stats()
	if st.Completed != n || st.InFlight != 0 || st.Queued != 0 {
		t.Fatalf("engine stats after drain = %+v", st)
	}
}

// TestHealthEndpoints pins the probe contract: /healthz answers 200
// always (liveness), /readyz flips to 503 when the server is draining and
// back with readiness.
func TestHealthEndpoints(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 1})
	svc := New(eng)
	ts := httptest.NewServer(svc)
	t.Cleanup(ts.Close)

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Errorf("/healthz = %d, want 200", got)
	}
	if got := get("/readyz"); got != http.StatusOK {
		t.Errorf("/readyz = %d, want 200", got)
	}
	svc.SetReady(false)
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("/readyz while draining = %d, want 503", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Errorf("/healthz while draining = %d, want 200 (liveness is not readiness)", got)
	}
	svc.SetReady(true)
	if got := get("/readyz"); got != http.StatusOK {
		t.Errorf("/readyz after recovery = %d, want 200", got)
	}
}

// TestGracefulDrain reproduces the daemon's SIGTERM sequence against a
// real http.Server: readiness goes dark, the in-flight request runs to a
// 200, and Shutdown returns only after it finished.
func TestGracefulDrain(t *testing.T) {
	// The "drain" client's request waits inside its worker slot until the
	// test releases it, so it is in flight however fast the work is.
	gate := make(chan struct{})
	eng := engine.New(engine.Config{Workers: 1, Hooks: &engine.Hooks{Exec: func(verb, client string) {
		if client == "drain" {
			<-gate
		}
	}}})
	svc := New(eng)
	srv := &http.Server{Handler: svc}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on Shutdown
	base := "http://" + ln.Addr().String()

	type result struct {
		status int
		body   []byte
		err    error
	}
	inflight := make(chan result, 1)
	go func() {
		buf, _ := json.Marshal(ProgramRequest{Benchmark: "TPC-C", Client: "drain"})
		resp, err := http.Post(base+"/v1/analyze", "application/json", bytes.NewReader(buf))
		if err != nil {
			inflight <- result{err: err}
			return
		}
		defer resp.Body.Close()
		var body bytes.Buffer
		body.ReadFrom(resp.Body) //nolint:errcheck // best-effort diagnostic
		inflight <- result{status: resp.StatusCode, body: body.Bytes()}
	}()
	// Wait until the request holds the engine's only worker slot.
	deadline := time.Now().Add(10 * time.Second)
	for eng.Stats().InFlight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never reached the engine")
		}
		time.Sleep(time.Millisecond)
	}

	// The daemon's shutdown sequence: readiness first, then drain.
	svc.SetReady(false)
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz during drain = %d, want 503", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- srv.Shutdown(ctx) }()
	select {
	case err := <-drained:
		t.Fatalf("Shutdown returned (%v) while a request was in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	if err := <-drained; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	r := <-inflight
	if r.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", r.err)
	}
	if r.status != http.StatusOK {
		t.Fatalf("in-flight request = %d during drain, want 200: %s", r.status, r.body)
	}
}

// TestPanicRecovery: a panicking handler answers 500 and the daemon keeps
// serving — the recover middleware isolates the request.
func TestPanicRecovery(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 1})
	svc := New(eng)
	var logged bytes.Buffer
	svc.logf = func(format string, args ...any) { fmt.Fprintf(&logged, format, args...) }
	svc.mux.HandleFunc("GET /boom", func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	})
	ts := httptest.NewServer(svc)
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler = %d, want 500", resp.StatusCode)
	}
	var er errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil || er.Error == "" {
		t.Fatalf("panicking handler returned no error body: %v", err)
	}
	if !strings.Contains(logged.String(), "kaboom") {
		t.Error("panic value not logged")
	}
	// The daemon survived and still serves.
	resp2, body := post(t, ts, "/v1/analyze", ProgramRequest{Benchmark: "SIBench"})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-panic request = %d: %s", resp2.StatusCode, body)
	}
}

// TestSimulateFaultScenario: /v1/simulate accepts a named chaos scenario,
// runs deterministically under it, and rejects unknown names.
func TestSimulateFaultScenario(t *testing.T) {
	ts, _ := newTestServer(t, engine.Config{Workers: 1})
	req := SimulateRequest{
		Benchmark: "SIBench", Clients: 4, DurationMs: 2000, Records: 10, Seed: 1,
		FaultScenario: "rolling-crash",
	}
	run := func() SimulateResponse {
		resp, body := post(t, ts, "/v1/simulate", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var sr SimulateResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		return sr
	}
	first := run()
	if first.Committed == 0 {
		t.Fatalf("no commits under rolling-crash: %+v", first)
	}
	if second := run(); second != first {
		t.Fatalf("faulted simulation not deterministic:\n  first:  %+v\n  second: %+v", first, second)
	}

	req.FaultScenario = "meteor-strike"
	resp, body := post(t, ts, "/v1/simulate", req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown scenario: status %d, want 400 (%s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "rolling-crash") {
		t.Errorf("400 body does not list valid scenarios: %s", body)
	}
}
