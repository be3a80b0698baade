package exp

import (
	"encoding/json"
	"fmt"
	"os"
)

// This file implements the CI perf-drift gate: a fresh counts-only baseline
// run is compared against the committed BENCH_baseline.json on the count
// columns only — anomaly and SAT-query counts are deterministic and
// machine-independent, wall-clock numbers are not and are never compared.

// LoadBaseline reads a committed baseline snapshot.
func LoadBaseline(path string) (*Baseline, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(buf, &b); err != nil {
		return nil, fmt.Errorf("exp: %s: %w", path, err)
	}
	return &b, nil
}

// CountDrift compares the machine-independent count columns of a fresh
// baseline run (got) against the committed snapshot (want), returning one
// message per divergence; empty means no drift. Wall-clock fields are
// deliberately ignored.
func CountDrift(got, want *Baseline) []string {
	var drift []string
	wantBy := map[string]RepairBaseline{}
	for _, r := range want.Repairs {
		wantBy[r.Benchmark] = r
	}
	seen := map[string]bool{}
	for _, g := range got.Repairs {
		seen[g.Benchmark] = true
		w, ok := wantBy[g.Benchmark]
		if !ok {
			drift = append(drift, fmt.Sprintf("%s: missing from committed baseline", g.Benchmark))
			continue
		}
		check := func(field string, gv, wv int) {
			if gv != wv {
				drift = append(drift, fmt.Sprintf("%s: %s = %d, baseline %d", g.Benchmark, field, gv, wv))
			}
		}
		check("initial_anomalies", g.Initial, w.Initial)
		check("remaining_anomalies", g.Remaining, w.Remaining)
		check("sat_queries", g.SATQueries, w.SATQueries)
		check("sat_solved", g.SATSolved, w.SATSolved)
	}
	for _, w := range want.Repairs {
		if !seen[w.Benchmark] {
			drift = append(drift, fmt.Sprintf("%s: in committed baseline but not measured", w.Benchmark))
		}
	}
	// Certificate counts are deterministic replay outcomes; an absent
	// section marks a pre-certificate baseline, which is not itself drift.
	if len(want.Certificates) != 0 {
		type certKey struct{ bench, model string }
		gotC := map[certKey]CertBaseline{}
		for _, c := range got.Certificates {
			gotC[certKey{c.Benchmark, c.Model}] = c
		}
		for _, w := range want.Certificates {
			g, ok := gotC[certKey{w.Benchmark, w.Model}]
			if !ok {
				drift = append(drift, fmt.Sprintf("%s/%s: certificate in committed baseline but not measured", w.Benchmark, w.Model))
				continue
			}
			if g.Total != w.Total {
				drift = append(drift, fmt.Sprintf("%s/%s: certificate total_pairs = %d, baseline %d", w.Benchmark, w.Model, g.Total, w.Total))
			}
			if g.Certified != w.Certified {
				drift = append(drift, fmt.Sprintf("%s/%s: certified = %d, baseline %d", w.Benchmark, w.Model, g.Certified, w.Certified))
			}
			delete(gotC, certKey{w.Benchmark, w.Model})
		}
		for _, g := range got.Certificates {
			if _, extra := gotC[certKey{g.Benchmark, g.Model}]; extra {
				drift = append(drift, fmt.Sprintf("%s/%s: certificate missing from committed baseline", g.Benchmark, g.Model))
			}
		}
	}
	// Service load-test counts are deterministic: clients retry 429s until
	// served (so Completed == Requests on a healthy run) and each client's
	// program is a fixed progen seed. An absent section marks a pre-service
	// baseline, which is not itself drift. Latency and throughput columns
	// are wall clock and never compared.
	if want.Service != nil && want.Service.Requests != 0 && got.Service != nil {
		check := func(field string, gv, wv int) {
			if gv != wv {
				drift = append(drift, fmt.Sprintf("service: %s = %d, baseline %d", field, gv, wv))
			}
		}
		check("clients", got.Service.Clients, want.Service.Clients)
		check("requests", got.Service.Requests, want.Service.Requests)
		check("completed", got.Service.Completed, want.Service.Completed)
		check("errors", got.Service.Errors, want.Service.Errors)
		check("total_initial", got.Service.TotalInitial, want.Service.TotalInitial)
		check("total_remaining", got.Service.TotalRemaining, want.Service.TotalRemaining)
	}
	// Chaos rows are virtual-time deterministic end to end (fixed workload
	// seeds, fixed fault-plan seeds), so every column is compared. An
	// absent section marks a pre-chaos baseline, which is not itself drift.
	if len(want.Chaos) != 0 {
		type chaosKey struct{ bench, scenario, series string }
		gotC := map[chaosKey]ChaosRow{}
		for _, r := range got.Chaos {
			gotC[chaosKey{r.Benchmark, r.Scenario, r.Series}] = r
		}
		for _, w := range want.Chaos {
			k := chaosKey{w.Benchmark, w.Scenario, w.Series}
			g, ok := gotC[k]
			if !ok {
				drift = append(drift, fmt.Sprintf("chaos %s/%s/%s: in committed baseline but not measured", w.Benchmark, w.Scenario, w.Series))
				continue
			}
			if g.Committed != w.Committed {
				drift = append(drift, fmt.Sprintf("chaos %s/%s/%s: committed = %d, baseline %d", w.Benchmark, w.Scenario, w.Series, g.Committed, w.Committed))
			}
			if g.Violations != w.Violations {
				drift = append(drift, fmt.Sprintf("chaos %s/%s/%s: violations = %d, baseline %d", w.Benchmark, w.Scenario, w.Series, g.Violations, w.Violations))
			}
			if g.Residual != w.Residual {
				drift = append(drift, fmt.Sprintf("chaos %s/%s/%s: residual_violations = %d, baseline %d", w.Benchmark, w.Scenario, w.Series, g.Residual, w.Residual))
			}
			delete(gotC, k)
		}
		for _, g := range got.Chaos {
			if _, extra := gotC[chaosKey{g.Benchmark, g.Scenario, g.Series}]; extra {
				drift = append(drift, fmt.Sprintf("chaos %s/%s/%s: missing from committed baseline", g.Benchmark, g.Scenario, g.Series))
			}
		}
	}
	// Service-chaos counters are scripted-deterministic end to end, so every
	// count column is compared. An absent section marks a pre-service-chaos
	// baseline, which is not itself drift.
	if want.ServiceChaos != nil && got.ServiceChaos != nil {
		check := func(field string, gv, wv int64) {
			if gv != wv {
				drift = append(drift, fmt.Sprintf("service_chaos: %s = %d, baseline %d", field, gv, wv))
			}
		}
		g, w := got.ServiceChaos, want.ServiceChaos
		check("workers", int64(g.Workers), int64(w.Workers))
		check("queue_depth", int64(g.QueueDepth), int64(w.QueueDepth))
		check("stall_completed", int64(g.StallCompleted), int64(w.StallCompleted))
		check("queue_rejected", int64(g.QueueRejected), int64(w.QueueRejected))
		check("queue_shed", int64(g.QueueShed), int64(w.QueueShed))
		check("breaker_degraded", int64(g.BreakerDegraded), int64(w.BreakerDegraded))
		check("breaker_unknown", int64(g.BreakerUnknown), int64(w.BreakerUnknown))
		check("breaker_trips", g.BreakerTrips, w.BreakerTrips)
		check("breaker_fast_fails", int64(g.BreakerFastFails), int64(w.BreakerFastFails))
		check("panics_recovered", int64(g.PanicsRecovered), int64(w.PanicsRecovered))
		check("recovery_completed", int64(g.RecoveryCompleted), int64(w.RecoveryCompleted))
		check("recovery_degraded", int64(g.RecoveryDegraded), int64(w.RecoveryDegraded))
		check("engine_completed", g.EngineCompleted, w.EngineCompleted)
		check("engine_rejected", g.EngineRejected, w.EngineRejected)
		check("engine_shed", g.EngineShed, w.EngineShed)
		check("engine_degraded", g.EngineDegraded, w.EngineDegraded)
		check("engine_exhaustions", g.EngineExhaustions, w.EngineExhaustions)
		check("final_in_flight", int64(g.FinalInFlight), int64(w.FinalInFlight))
		check("final_queued", int64(g.FinalQueued), int64(w.FinalQueued))
		check("breaker_open", int64(g.BreakerOpen), int64(w.BreakerOpen))
	}
	// Corpus anomaly totals are deterministic (fixed progen seeds) and
	// engine-independent; a zero Programs count marks a pre-corpus
	// baseline, which is not itself drift.
	if want.Corpus.Programs != 0 {
		check := func(field string, gv, wv int) {
			if gv != wv {
				drift = append(drift, fmt.Sprintf("corpus: %s = %d, baseline %d", field, gv, wv))
			}
		}
		check("programs", got.Corpus.Programs, want.Corpus.Programs)
		check("total_initial_anomalies", got.Corpus.TotalInitial, want.Corpus.TotalInitial)
		check("total_remaining_anomalies", got.Corpus.TotalRemaining, want.Corpus.TotalRemaining)
	}
	return drift
}
