package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"

	"atropos/internal/engine"
)

// TestRequestIDEcho: a caller-supplied X-Request-ID is echoed on the
// response; without one the daemon mints a unique atropos-N id.
func TestRequestIDEcho(t *testing.T) {
	ts, _ := newTestServer(t, engine.Config{Workers: 1})

	buf, err := json.Marshal(ProgramRequest{Benchmark: "SIBench"})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/analyze", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "caller-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "caller-7" {
		t.Fatalf("supplied request id echoed as %q, want caller-7", got)
	}

	generated := regexp.MustCompile(`^atropos-\d+$`)
	seen := map[string]bool{}
	for i := 0; i < 2; i++ {
		resp, _ := post(t, ts, "/v1/analyze", ProgramRequest{Benchmark: "SIBench"})
		got := resp.Header.Get("X-Request-ID")
		if !generated.MatchString(got) {
			t.Fatalf("generated request id %q does not match atropos-N", got)
		}
		if seen[got] {
			t.Fatalf("request id %q reused", got)
		}
		seen[got] = true
	}
}

// TestRequestIDInErrorBody: error responses carry the request id so a
// failing call can be correlated with the daemon's logs.
func TestRequestIDInErrorBody(t *testing.T) {
	ts, _ := newTestServer(t, engine.Config{Workers: 1})
	buf := []byte(`{"benchmark": "NoSuchBenchmark"}`)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/analyze", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "trace-me")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("unknown benchmark accepted")
	}
	var er errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.RequestID != "trace-me" {
		t.Fatalf("error body request_id = %q, want trace-me", er.RequestID)
	}
}

// TestRetiredFieldsAnswer400: the solver-budget knobs (detection has no
// solver) and the detection width (detection has none) are retired; a
// request carrying one, with any value, on any endpoint answers 400 naming
// it as an unknown field instead of silently dropping it.
func TestRetiredFieldsAnswer400(t *testing.T) {
	ts, _ := newTestServer(t, engine.Config{Workers: 1})
	for _, path := range []string{"/v1/parse", "/v1/analyze", "/v1/repair", "/v1/certify", "/v1/simulate"} {
		for _, field := range []string{"budget_conflicts", "budget_propagations", "budget_arena_lits", "parallelism"} {
			for _, v := range []int{0, 1} {
				body := map[string]any{field: v}
				switch path {
				case "/v1/parse":
					body["source"] = "table T { id: int key, }"
				case "/v1/simulate":
					body["benchmark"], body["clients"] = "SIBench", 1
				default:
					body["benchmark"] = "SmallBank"
				}
				resp, out := post(t, ts, path, body)
				if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(out), field) {
					t.Errorf("%s with %s=%d: %d %s, want 400 naming the field", path, field, v, resp.StatusCode, out)
				}
			}
		}
	}
}

// TestParseDeepNestingFailsFast: a body just under the request limit that
// nests one expression 490 000 levels deep — parentheses, or a `1+1+…`
// chain — is a 400 naming the nesting bound, answered at once instead of
// after seconds of recursion (and hundreds of MB of stack) in the parser
// and the checker.
func TestParseDeepNestingFailsFast(t *testing.T) {
	ts, _ := newTestServer(t, engine.Config{Workers: 1})
	const n = 490_000
	const pre = "table T { id: int key, v: int, }\ntxn a() {\n  update T set v = "
	const post = " where id = 1;\n}\n"
	for name, src := range map[string]string{
		"parentheses": pre + strings.Repeat("(", n) + "1" + strings.Repeat(")", n) + post,
		"chain":       pre + "1" + strings.Repeat("+1", n) + post,
	} {
		buf, err := json.Marshal(ProgramRequest{Source: src})
		if err != nil {
			t.Fatal(err)
		}
		if len(buf) < 975_000 || len(buf) > maxBodyBytes {
			t.Fatalf("%s: body is %d bytes, want just under the %d-byte limit", name, len(buf), maxBodyBytes)
		}
		start := time.Now()
		resp, err := http.Post(ts.URL+"/v1/parse", "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		elapsed := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(body, []byte("nested deeper than 256")) {
			t.Errorf("%s: %d %s, want 400 naming the nesting bound", name, resp.StatusCode, body)
		}
		limit := 100 * time.Millisecond
		if raceEnabled {
			limit *= 10
		}
		if elapsed > limit {
			t.Errorf("%s: answered in %v, want within %v", name, elapsed, limit)
		}
	}
}
