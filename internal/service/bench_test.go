package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"atropos/internal/ast"
	"atropos/internal/engine"
	"atropos/internal/progen"
)

// benchCall is one request of the benchmark round.
type benchCall struct {
	path string
	body []byte
}

// benchRound is one fixed round of the daemon's program verbs:
// /v1/parse, /v1/analyze, /v1/repair and /v1/certify on four generated
// programs, plus a /v1/repair of SmallBank by name. No client ids (no
// session reuse), and the engines detect sequentially, so allocs/op —
// request decoding, the engine, response rendering and encoding, net/http —
// is deterministic enough for cmd/allocgate.
func benchRound(b *testing.B) []benchCall {
	var round []benchCall
	for seed := int64(1); seed <= 4; seed++ {
		body, err := json.Marshal(ProgramRequest{Source: ast.Format(progen.Program(seed))})
		if err != nil {
			b.Fatal(err)
		}
		for _, verb := range []string{"parse", "analyze", "repair", "certify"} {
			round = append(round, benchCall{"/v1/" + verb, body})
		}
	}
	return append(round, benchCall{"/v1/repair", []byte(`{"benchmark":"SmallBank"}`)})
}

// sendRound posts every call of the round and returns the response bytes.
func sendRound(b *testing.B, client *http.Client, url string, round []benchCall) int {
	n := 0
	for _, c := range round {
		resp, err := client.Post(url+c.path, "application/json", bytes.NewReader(c.body))
		if err != nil {
			b.Fatal(err)
		}
		m, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("%s: status %d, %v", c.path, resp.StatusCode, err)
		}
		n += int(m)
	}
	return n
}

var benchConfig = engine.Config{Workers: 1, DetectParallelism: 1}

// BenchmarkService_Mixed measures the round computed: every iteration gets
// a fresh engine, built with the timer stopped, so no answer comes from the
// answer memo and ns/op does not depend on b.N. One listener and one
// connection serve all iterations.
func BenchmarkService_Mixed(b *testing.B) {
	var srv atomic.Pointer[Server]
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		srv.Load().ServeHTTP(w, r)
	}))
	defer ts.Close()
	round := benchRound(b)
	client := ts.Client()
	respBytes := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		srv.Store(New(engine.New(benchConfig)))
		b.StartTimer()
		respBytes = sendRound(b, client, ts.URL, round)
	}
	b.ReportMetric(float64(respBytes), "resp_bytes/op")
}

// BenchmarkService_Answered measures the same round on one engine warmed by
// a round before the timer starts: every repair and certify is answered
// from the answer memo, while parse and the client-less analyze still
// compute.
func BenchmarkService_Answered(b *testing.B) {
	ts := httptest.NewServer(New(engine.New(benchConfig)))
	defer ts.Close()
	round := benchRound(b)
	client := ts.Client()
	sendRound(b, client, ts.URL, round)
	respBytes := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		respBytes = sendRound(b, client, ts.URL, round)
	}
	b.ReportMetric(float64(respBytes), "resp_bytes/op")
}
