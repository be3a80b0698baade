package repair

import (
	"testing"

	"atropos/internal/anomaly"
	"atropos/internal/progen"
	"atropos/internal/sema"
)

// TestRepairRandomPrograms drives the full pipeline over randomly
// generated well-formed programs: repair must never error, never produce
// an ill-typed program, and never increase the anomaly count (the
// soundness theorem's "no new behaviours" corollary — sound refactorings
// cannot introduce anomalies).
func TestRepairRandomPrograms(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for seed := int64(0); seed < 60; seed++ {
		p := progen.Program(seed)
		if err := sema.Check(p); err != nil {
			t.Fatalf("seed %d: generator produced ill-typed program: %v", seed, err)
		}
		res, err := repairProg(p, anomaly.EC)
		if err != nil {
			t.Fatalf("seed %d: Repair: %v", seed, err)
		}
		if err := sema.Check(res.Program); err != nil {
			t.Fatalf("seed %d: repaired program ill-typed: %v", seed, err)
		}
		if len(res.Remaining) > len(res.Initial) {
			t.Fatalf("seed %d: repair increased anomalies %d -> %d",
				seed, len(res.Initial), len(res.Remaining))
		}
		// Repair must be idempotent on its own output.
		res2, err := repairProg(res.Program, anomaly.EC)
		if err != nil {
			t.Fatalf("seed %d: second Repair: %v", seed, err)
		}
		if len(res2.Remaining) > len(res.Remaining) {
			t.Fatalf("seed %d: re-repair increased anomalies %d -> %d",
				seed, len(res.Remaining), len(res2.Remaining))
		}
	}
}

// FuzzRepairRandomProgram drives the pipeline over generator-derived
// programs under fuzzed seeds: repair must never error, never produce an
// ill-typed program, never increase the anomaly count, and the incremental
// engine's stats must stay coherent. The nightly CI job runs this target
// for 30s per night (see .github/workflows/nightly.yml).
func FuzzRepairRandomProgram(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		p := progen.Program(seed)
		if err := sema.Check(p); err != nil {
			t.Fatalf("seed %d: generator produced ill-typed program: %v", seed, err)
		}
		res, err := repairProg(p, anomaly.EC)
		if err != nil {
			t.Fatalf("seed %d: Repair: %v", seed, err)
		}
		if err := sema.Check(res.Program); err != nil {
			t.Fatalf("seed %d: repaired program ill-typed: %v", seed, err)
		}
		if len(res.Remaining) > len(res.Initial) {
			t.Fatalf("seed %d: repair increased anomalies %d -> %d",
				seed, len(res.Initial), len(res.Remaining))
		}
		if res.Stats.Solved > res.Stats.Queries {
			t.Fatalf("seed %d: solved %d > issued %d", seed, res.Stats.Solved, res.Stats.Queries)
		}
	})
}
