package exp

import "testing"

// TestRunLoadSmoke drives a small in-process service load test end to end:
// every request must be served (429s absorbed by retry, zero drops), the
// anomaly totals must be reported, and the engine must drain cleanly.
func TestRunLoadSmoke(t *testing.T) {
	res, err := RunLoad(LoadConfig{Clients: 8, RequestsPerClient: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 16 || res.Completed != 16 || res.Errors != 0 {
		t.Fatalf("requests/completed/errors = %d/%d/%d, want 16/16/0",
			res.Requests, res.Completed, res.Errors)
	}
	if res.TotalInitial <= 0 {
		t.Fatal("no anomalies reported across the progen corpus")
	}
	if res.TotalRemaining >= res.TotalInitial {
		t.Fatalf("repairs removed nothing: initial %d, remaining %d",
			res.TotalInitial, res.TotalRemaining)
	}
	// Each client's second request reuses its cached session.
	if res.SessionHitRate <= 0 {
		t.Fatalf("session hit rate = %v, want > 0", res.SessionHitRate)
	}
	st := res.Stats
	if st.InFlight != 0 || st.Queued != 0 {
		t.Fatalf("engine did not drain: %+v", st)
	}
	// Admission accounting must balance: each served request completes once
	// on the engine, and every client-side 429 retry matches one rejection.
	if st.Completed != int64(res.Completed) || st.Rejected != int64(res.Retried429) {
		t.Fatalf("admission imbalance: %+v vs %+v", st, res)
	}
	if res.P50Ms <= 0 || res.P99Ms < res.P50Ms {
		t.Fatalf("percentiles: p50 %v p99 %v", res.P50Ms, res.P99Ms)
	}
}

// TestRunLoadDeterministicCounts: the anomaly totals are a pure function of
// the client count (progen seeds 1..N), independent of scheduling — two
// runs must agree. This is the property TestRunLoadFullScaleGolden leans on.
func TestRunLoadDeterministicCounts(t *testing.T) {
	a, err := RunLoad(LoadConfig{Clients: 4, RequestsPerClient: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunLoad(LoadConfig{Clients: 4, RequestsPerClient: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalInitial != b.TotalInitial || a.TotalRemaining != b.TotalRemaining {
		t.Fatalf("totals differ across runs: %d/%d vs %d/%d",
			a.TotalInitial, a.TotalRemaining, b.TotalInitial, b.TotalRemaining)
	}
}

// loadCounts is the deterministic part of a LoadResult.
type loadCounts struct {
	Clients, Requests, Completed, Errors, TotalInitial, TotalRemaining int
}

// TestRunLoadFullScaleGolden pins the default-sized load test (64 clients
// × 4 requests): every request served, and the anomaly totals of progen
// seeds 1..64 analyzed and repaired twice each.
func TestRunLoadFullScaleGolden(t *testing.T) {
	res, err := RunLoad(LoadConfig{})
	if err != nil {
		t.Fatal(err)
	}
	got := loadCounts{res.Clients, res.Requests, res.Completed, res.Errors, res.TotalInitial, res.TotalRemaining}
	checkCounts(t, "service load test", got, loadCounts{64, 256, 256, 0, 1144, 392})
}
