package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"atropos/internal/ast"
	"atropos/internal/engine"
	"atropos/internal/progen"
)

// fuzzEndpoints are the program endpoints FuzzServiceRequest drives;
// /v1/simulate is left out (its runs are bounded by ops and virtual time,
// not by the body's size).
var fuzzEndpoints = []string{"/v1/parse", "/v1/analyze", "/v1/repair", "/v1/certify"}

const (
	fuzzMaxBody = 4 << 10
	fuzzMaxTime = 10 * time.Second
)

// FuzzServiceRequest sends arbitrary bodies of at most 4 KB to the program
// endpoints of a live server and checks the daemon's front-door contract:
// every answer is 200, 400 or 504 (a 500 is a bug, whatever the input),
// within 10 s, and a 200 request sent again answers the same JSON once the
// work counters and wall time are removed — the answer memo and the
// client's session change how an answer is computed, never what it says.
// A third send answers the second's bytes exactly, elapsed_ms aside: for
// repair and certify it is sent from the reply the second stored.
// Requests with a timeout promise a bounded answer, not a repeatable one,
// so they are held to the first two properties only.
//
// The engine's circuit breaker is off: it answers 429 by design once one
// client's requests degrade three times in a row, and that depends on the
// inputs before this one.
func FuzzServiceRequest(f *testing.F) {
	ts := httptest.NewServer(New(engine.New(engine.Config{Workers: 1, BreakerTrip: -1})))
	f.Cleanup(ts.Close)
	for _, tc := range wireCases() {
		if i := slices.Index(fuzzEndpoints, tc.path); i >= 0 {
			f.Add(uint8(i), []byte(tc.body))
		}
	}
	for seed := int64(1); seed <= 8; seed++ {
		body, err := json.Marshal(ProgramRequest{Source: ast.Format(progen.Program(seed))})
		if err != nil {
			f.Fatal(err)
		}
		for i := range fuzzEndpoints {
			f.Add(uint8(i), body)
		}
	}
	f.Fuzz(func(t *testing.T, endpoint uint8, body []byte) {
		if len(body) > fuzzMaxBody {
			return
		}
		path := fuzzEndpoints[int(endpoint)%len(fuzzEndpoints)]
		status, first := fuzzPost(t, ts, path, body)
		if status != http.StatusOK {
			return
		}
		var req ProgramRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("%s answered 200 to a body that does not decode: %v", path, err)
		}
		if req.TimeoutMs > 0 {
			return
		}
		status, again := fuzzPost(t, ts, path, body)
		if status != http.StatusOK {
			t.Fatalf("%s: repeated request answered %d, first 200\n%s", path, status, again)
		}
		if a, b := withoutWork(t, first), withoutWork(t, again); !bytes.Equal(a, b) {
			t.Fatalf("%s: repeated request answered differently\nfirst: %s\nagain: %s", path, a, b)
		}
		status, third := fuzzPost(t, ts, path, body)
		if status != http.StatusOK {
			t.Fatalf("%s: third request answered %d, second 200\n%s", path, status, third)
		}
		if a, b := withoutElapsed(again), withoutElapsed(third); !bytes.Equal(a, b) {
			t.Fatalf("%s: third request answered other bytes than the second\nsecond: %s\nthird:  %s", path, a, b)
		}
	})
}

// withoutElapsed cuts the elapsed_ms number out of a body, if it has one.
func withoutElapsed(body []byte) []byte {
	i := bytes.LastIndex(body, elapsedField)
	if i < 0 {
		return body
	}
	i += len(elapsedField)
	n := bytes.IndexFunc(body[i:], func(r rune) bool { return !strings.ContainsRune("0123456789.eE+-", r) })
	return append(body[:i:i], body[i+n:]...)
}

// fuzzPost sends one request and holds it to the status and time bounds.
func fuzzPost(t *testing.T, ts *httptest.Server, path string, body []byte) (int, []byte) {
	t.Helper()
	start := time.Now()
	resp, reply := send(t, ts, "POST", path, string(body))
	if d := time.Since(start); d > fuzzMaxTime {
		t.Fatalf("%s answered after %s (%d)", path, d, resp.StatusCode)
	}
	switch resp.StatusCode {
	case http.StatusOK, http.StatusBadRequest, http.StatusGatewayTimeout:
	default:
		t.Fatalf("%s: status %d\nbody: %q\nreply: %s", path, resp.StatusCode, body, reply)
	}
	return resp.StatusCode, reply
}

// withoutWork re-marshals a 200 body without the fields that report how
// the answer was computed rather than what it is.
func withoutWork(t *testing.T, reply []byte) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(reply, &m); err != nil {
		t.Fatalf("200 body is not a JSON object: %v\n%s", err, reply)
	}
	for _, k := range []string{"elapsed_ms", "solved", "cache_hit_rate"} {
		delete(m, k)
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
