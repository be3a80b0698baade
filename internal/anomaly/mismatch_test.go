package anomaly_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"atropos/internal/anomaly"
	"atropos/internal/engine"
	"atropos/internal/service"
)

// An edit that re-detects incA: setA joins as a witness on A, so incA's
// fingerprint changes and the second detection rebuilds the body of the
// (incA, incA) plan the first one remembered.
const (
	mismatchBefore = `
table A { a_id: int key, a_n: int, }
txn incA(k: int) {
  x := select a_n from A where a_id = k;
  update A set a_n = x.a_n + 1 where a_id = k;
}
`
	mismatchAfter = mismatchBefore + `
txn setA(k: int) {
  update A set a_n = 0 where a_id = k;
}
`
)

// TestPlanMismatchFailsDetection: a body that disagrees with the formula
// hash remembered for its plan fails the detection with ErrPlanMismatch —
// sequentially and on the wavefront's workers — and empties the session,
// whose next detection reports what a fresh one does.
func TestPlanMismatchFailsDetection(t *testing.T) {
	before, after := mustProgT(t, mismatchBefore), mustProgT(t, mismatchAfter)
	for _, width := range []int{1, anomaly.ForcedWidth()} {
		s := anomaly.NewSession(anomaly.EC)
		s.SetParallelism(width)
		restore := anomaly.SkewRememberedFormulas()
		if _, err := s.Detect(before); err != nil {
			restore()
			t.Fatalf("width %d: first detection: %v", width, err)
		}
		_, err := s.Detect(after)
		restore()
		if !errors.Is(err, anomaly.ErrPlanMismatch) {
			t.Fatalf("width %d: detection over a skewed plan = %v, want ErrPlanMismatch", width, err)
		}
		got, err := s.Detect(after)
		if err != nil {
			t.Fatalf("width %d: detection after the mismatch: %v", width, err)
		}
		sameAsFresh(t, "after the mismatch", after, anomaly.EC, got)
		if got.Solved == 0 {
			t.Errorf("width %d: detection after the mismatch solved nothing; the session kept its caches", width)
		}
	}
}

// TestPlanMismatchAnswers500: through the daemon, with detection on the
// wavefront's worker goroutines, the mismatch is a 500 for the request
// that hit it, and the daemon goes on serving the same client correctly.
func TestPlanMismatchAnswers500(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	ts := httptest.NewServer(service.New(engine.New(engine.Config{Workers: 1, DetectParallelism: 4})))
	defer ts.Close()
	analyze := func(src string) (int, []byte) {
		t.Helper()
		body, _ := json.Marshal(service.ProgramRequest{Source: src, Client: "editor"})
		resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out bytes.Buffer
		out.ReadFrom(resp.Body) //nolint:errcheck // a short body fails the checks below
		return resp.StatusCode, out.Bytes()
	}

	restore := anomaly.SkewRememberedFormulas()
	code, body := analyze(mismatchBefore)
	if code != http.StatusOK {
		restore()
		t.Fatalf("first analyze = %d: %s", code, body)
	}
	code, body = analyze(mismatchAfter)
	restore()
	if code != http.StatusInternalServerError || !strings.Contains(string(body), "plan key") {
		t.Fatalf("analyze over a skewed plan = %d: %s, want 500 naming the plan key", code, body)
	}

	code, body = analyze(mismatchAfter)
	if code != http.StatusOK {
		t.Fatalf("analyze after the mismatch = %d: %s", code, body)
	}
	var got service.AnalyzeResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	fresh, err := anomaly.FreshDetect(mustProgT(t, mismatchAfter), anomaly.EC)
	if err != nil {
		t.Fatal(err)
	}
	if got.Count != fresh.Count() || got.Queries != fresh.Queries {
		t.Errorf("analyze after the mismatch: %d pairs / %d queries, fresh %d / %d", got.Count, got.Queries, fresh.Count(), fresh.Queries)
	}
}
