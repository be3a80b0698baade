package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"atropos/internal/ast"
	"atropos/internal/engine"
	"atropos/internal/progen"
)

// BenchmarkService_Mixed is one fixed round of the daemon's program verbs
// through HTTP: /v1/parse, /v1/analyze, /v1/repair and /v1/certify on four
// generated programs, plus a /v1/repair of SmallBank by name. No client
// ids (no session reuse) and sequential detection, so every op does the
// same work and allocs/op — request decoding, the engine, response
// rendering and encoding, net/http — is deterministic enough for
// cmd/allocgate.
func BenchmarkService_Mixed(b *testing.B) {
	ts := httptest.NewServer(New(engine.New(engine.Config{Workers: 1, DetectParallelism: 1})))
	defer ts.Close()
	type call struct {
		path string
		body []byte
	}
	var round []call
	for seed := int64(1); seed <= 4; seed++ {
		body, err := json.Marshal(ProgramRequest{Source: ast.Format(progen.Program(seed))})
		if err != nil {
			b.Fatal(err)
		}
		for _, verb := range []string{"parse", "analyze", "repair", "certify"} {
			round = append(round, call{"/v1/" + verb, body})
		}
	}
	round = append(round, call{"/v1/repair", []byte(`{"benchmark":"SmallBank"}`)})
	client := ts.Client()
	respBytes := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		respBytes = 0
		for _, c := range round {
			resp, err := client.Post(ts.URL+c.path, "application/json", bytes.NewReader(c.body))
			if err != nil {
				b.Fatal(err)
			}
			n, err := io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				b.Fatalf("%s: status %d, %v", c.path, resp.StatusCode, err)
			}
			respBytes += int(n)
		}
	}
	b.ReportMetric(float64(respBytes), "resp_bytes/op")
}
