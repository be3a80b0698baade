package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"atropos/internal/ast"
	"atropos/internal/engine"
	"atropos/internal/progen"
	"atropos/internal/repair"
)

// wireEngine answers every status the service can produce on demand: the
// "slow" client is held in its slot past a 1 ms timeout (504), the "boom"
// client panics inside the engine (500), and the "starved" client's repairs
// find their detect stage spent, so one degraded result opens its breaker
// (the next request is a 429).
func wireEngine(logf func(string, ...any)) *httptest.Server {
	eng := engine.New(engine.Config{Workers: 1, BreakerTrip: 1, Hooks: &engine.Hooks{
		Exec: func(verb, client string) {
			switch client {
			case "slow":
				time.Sleep(20 * time.Millisecond)
			case "boom":
				panic("wire-test poison")
			}
		},
		Stages: func(client string) (repair.StageDeadlines, bool) {
			return repair.StageDeadlines{Detect: time.Nanosecond}, client == "starved"
		},
	}})
	svc := New(eng)
	if logf != nil {
		svc.logf = logf
	}
	return httptest.NewServer(svc)
}

// checkWire holds one response to the wire format: one compact JSON value
// and a newline, typed application/json, framed by a Content-Length equal
// to the body's length, never chunked.
func checkWire(t *testing.T, name string, resp *http.Response, body []byte) {
	t.Helper()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s: Content-Type %q", name, ct)
	}
	if resp.Header.Get("Content-Length") == "" || resp.ContentLength != int64(len(body)) {
		t.Errorf("%s: Content-Length %q (parsed %d) for a %d-byte body", name, resp.Header.Get("Content-Length"), resp.ContentLength, len(body))
	}
	if len(resp.TransferEncoding) != 0 {
		t.Errorf("%s: Transfer-Encoding %v", name, resp.TransferEncoding)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, body); err != nil {
		t.Errorf("%s: body is not one JSON value: %v\n%s", name, err, body)
		return
	}
	if !bytes.Equal(append(compact.Bytes(), '\n'), body) {
		t.Errorf("%s: body is not compact:\n%s", name, body)
	}
}

func send(t *testing.T, ts *httptest.Server, method, path, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// wireCase is one request and the status wireEngine answers it with.
type wireCase struct {
	name, method, path, body string
	status                   int
}

// wireCases covers every endpoint and every status the service answers;
// FuzzServiceRequest seeds its corpus with their program-endpoint bodies.
func wireCases() []wireCase {
	src, _ := json.Marshal(ast.Format(progen.Program(3)))
	return []wireCase{
		// client and timeout_ms are valid on every program endpoint.
		{"parse", "POST", "/v1/parse", `{"source":` + string(src) + `,"client":"c1","timeout_ms":60000}`, 200},
		{"analyze", "POST", "/v1/analyze", `{"benchmark":"SmallBank"}`, 200},
		{"repair", "POST", "/v1/repair", `{"benchmark":"SmallBank","certify":true}`, 200},
		{"certify", "POST", "/v1/certify", `{"source":` + string(src) + `,"client":"c1","timeout_ms":60000}`, 200},
		{"simulate", "POST", "/v1/simulate", `{"benchmark":"SIBench","clients":2,"duration_ms":500,"records":10}`, 200},
		{"stats", "GET", "/v1/stats", "", 200},
		{"healthz", "GET", "/healthz", "", 200},
		{"readyz", "GET", "/readyz", "", 200},
		{"400", "POST", "/v1/analyze", `{"benchmark":"nope"}`, 400},
		// A negative timeout_ms cannot take effect: 400 on every endpoint that reads it.
		{"parse timeout", "POST", "/v1/parse", `{"source":` + string(src) + `,"timeout_ms":-1}`, 400},
		{"analyze timeout", "POST", "/v1/analyze", `{"benchmark":"SmallBank","timeout_ms":-1}`, 400},
		{"repair timeout", "POST", "/v1/repair", `{"benchmark":"SmallBank","timeout_ms":-5}`, 400},
		{"certify timeout", "POST", "/v1/certify", `{"source":` + string(src) + `,"timeout_ms":-1}`, 400},
		{"simulate timeout", "POST", "/v1/simulate", `{"benchmark":"SIBench","clients":2,"timeout_ms":-1}`, 400},
		{"degraded", "POST", "/v1/repair", `{"benchmark":"SmallBank","client":"starved"}`, 200},
		{"429", "POST", "/v1/analyze", `{"benchmark":"SmallBank","client":"starved"}`, 429},
		{"504", "POST", "/v1/analyze", `{"benchmark":"SmallBank","client":"slow","timeout_ms":1}`, 504},
		{"500", "POST", "/v1/analyze", `{"benchmark":"SmallBank","client":"boom"}`, 500},
	}
}

// TestWireFormat: every endpoint, and every error status the service
// answers, speaks the same wire format.
func TestWireFormat(t *testing.T) {
	ts := wireEngine(func(string, ...any) {})
	t.Cleanup(ts.Close)
	for _, tc := range wireCases() {
		resp, body := send(t, ts, tc.method, tc.path, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, body)
			continue
		}
		checkWire(t, tc.name, resp, body)
	}
}

// TestEnginePanicBody: an engine panic answers 500 with the panic value and
// the request id — the goroutine dump goes to the daemon log under that
// id, never to the client.
func TestEnginePanicBody(t *testing.T) {
	var (
		mu     sync.Mutex
		logged bytes.Buffer
	)
	ts := wireEngine(func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		fmt.Fprintf(&logged, format, args...)
	})
	t.Cleanup(ts.Close)
	req, _ := http.NewRequest("POST", ts.URL+"/v1/analyze", strings.NewReader(`{"benchmark":"SmallBank","client":"boom"}`))
	req.Header.Set("X-Request-ID", "poisoned-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var er errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	if want := (errorResponse{Error: "engine: internal panic: wire-test poison", RequestID: "poisoned-1"}); er != want {
		t.Errorf("500 body = %+v, want %+v", er, want)
	}
	mu.Lock()
	defer mu.Unlock()
	if log := logged.String(); !strings.Contains(log, "poisoned-1") || !strings.Contains(log, "wire-test poison") || !strings.Contains(log, "goroutine ") {
		t.Errorf("daemon log lacks the request id, panic value or stack:\n%s", log)
	}
}

// TestRequestBodyIsOneValue: a second JSON value or trailing garbage after
// the request is a 400; trailing whitespace is not.
func TestRequestBodyIsOneValue(t *testing.T) {
	ts, _ := newTestServer(t, engine.Config{Workers: 1})
	for _, tc := range []struct {
		path, body string
		status     int
	}{
		{"/v1/analyze", `{"benchmark":"SmallBank"}{"benchmark":"TPC-C"}`, 400},
		{"/v1/parse", `{"source":"table T { id: int key, }"} trailing-garbage`, 400},
		{"/v1/simulate", `{"benchmark":"SIBench","clients":1} 7`, 400},
		{"/v1/parse", "{\"source\":\"table T { id: int key, }\"}\n\t ", 200},
	} {
		resp, body := send(t, ts, "POST", tc.path, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s %q: status %d, want %d (%s)", tc.path, tc.body, resp.StatusCode, tc.status, body)
		}
	}
}

// TestAdminHandlerServesPprof: the admin listener's handler serves the
// pprof index and a profile; the public server does not.
func TestAdminHandlerServesPprof(t *testing.T) {
	admin := httptest.NewServer(AdminHandler())
	t.Cleanup(admin.Close)
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/goroutine?debug=1"} {
		resp, body := send(t, admin, "GET", path, "")
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
			t.Errorf("admin %s: status %d\n%.200s", path, resp.StatusCode, body)
		}
	}
	public, _ := newTestServer(t, engine.Config{Workers: 1})
	if resp, _ := send(t, public, "GET", "/debug/pprof/", ""); resp.StatusCode != http.StatusNotFound {
		t.Errorf("public listener serves /debug/pprof/: status %d", resp.StatusCode)
	}
}
