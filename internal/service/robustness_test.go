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

// TestAnalyzeBudgetDegrades: a starvation solve budget on /v1/analyze
// produces 200 with the partial-result fields set — degradation is a soft
// outcome the client can read, not an error.
func TestAnalyzeBudgetDegrades(t *testing.T) {
	ts, _ := newTestServer(t, engine.Config{Workers: 1})
	resp, body := post(t, ts, "/v1/analyze", ProgramRequest{
		Benchmark: "SmallBank", BudgetPropagations: 1,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("budgeted analyze = %d: %s", resp.StatusCode, body)
	}
	var ar AnalyzeResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if !ar.Degraded || ar.Unknown == 0 || ar.Exhausted == 0 {
		t.Fatalf("starved analyze not degraded: %s", body)
	}

	// The same request without a budget is whole.
	resp, body = post(t, ts, "/v1/analyze", ProgramRequest{Benchmark: "SmallBank"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unbudgeted analyze = %d: %s", resp.StatusCode, body)
	}
	var full AnalyzeResponse
	if err := json.Unmarshal(body, &full); err != nil {
		t.Fatal(err)
	}
	if full.Degraded || full.Unknown != 0 || full.Exhausted != 0 {
		t.Fatalf("unbudgeted analyze degraded: %s", body)
	}
	if len(ar.Pairs) > len(full.Pairs) {
		t.Fatalf("starved analyze reported %d pairs, more than the full %d", len(ar.Pairs), len(full.Pairs))
	}
}

// TestRepairBudgetDegrades: the same contract on /v1/repair — 200, a valid
// repaired program, and the degradation fields populated.
func TestRepairBudgetDegrades(t *testing.T) {
	ts, _ := newTestServer(t, engine.Config{Workers: 1})
	resp, body := post(t, ts, "/v1/repair", ProgramRequest{
		Benchmark: "SmallBank", BudgetPropagations: 1,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("budgeted repair = %d: %s", resp.StatusCode, body)
	}
	var rr RepairResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if !rr.Degraded || rr.Exhausted == 0 {
		t.Fatalf("starved repair not degraded: degraded=%v exhausted=%d", rr.Degraded, rr.Exhausted)
	}
	if rr.Program == "" {
		t.Fatal("degraded repair returned no program")
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
