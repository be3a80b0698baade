package repair

import (
	"reflect"
	"testing"

	"atropos/internal/anomaly"
	"atropos/internal/ast"
	"atropos/internal/benchmarks"
)

// TestIncrementalRepairEquivalence pins that what a detection session
// remembers never changes what repair decides: over the corpus, a repair on
// a private (cold) session and one through an injected session that has
// already repaired the same program produce identical programs, anomaly
// sets, and steps — only the number of solved SAT queries differs.
func TestIncrementalRepairEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus comparison; skipped with -short")
	}
	for _, b := range benchmarks.All() {
		if b.Name == "TPC-C" {
			continue // the heaviest pipeline; covered by TestIncrementalRepairSavings
		}
		prog, err := b.Program()
		if err != nil {
			t.Fatal(err)
		}
		cold, err := repairOpts(prog, anomaly.EC, Options{Parallelism: 1})
		if err != nil {
			t.Fatalf("%s: cold: %v", b.Name, err)
		}
		s := anomaly.NewSession(anomaly.EC)
		if _, err := repairOpts(prog, anomaly.EC, Options{Session: s}); err != nil {
			t.Fatalf("%s: warming: %v", b.Name, err)
		}
		warm, err := repairOpts(prog, anomaly.EC, Options{Session: s})
		if err != nil {
			t.Fatalf("%s: warm: %v", b.Name, err)
		}
		if warm.Stats.Solved != 0 || warm.Stats.Queries != cold.Stats.Queries {
			t.Errorf("%s: warm repair solved %d of %d queries (cold issued %d), want 0 solved and equal issued",
				b.Name, warm.Stats.Solved, warm.Stats.Queries, cold.Stats.Queries)
		}
		if !reflect.DeepEqual(cold.Initial, warm.Initial) {
			t.Errorf("%s: initial pairs diverge", b.Name)
		}
		if !reflect.DeepEqual(cold.Remaining, warm.Remaining) {
			t.Errorf("%s: remaining pairs diverge", b.Name)
		}
		if !reflect.DeepEqual(cold.Steps, warm.Steps) {
			t.Errorf("%s: repair steps diverge:\ncold %v\nwarm %v", b.Name, cold.Steps, warm.Steps)
		}
		if got, want := ast.Format(warm.Program), ast.Format(cold.Program); got != want {
			t.Errorf("%s: repaired programs diverge", b.Name)
		}
	}
}

// TestIncrementalRepairSavings enforces the engine's headline: every
// benchmark's repair must solve at least 30% fewer SAT queries than three
// cold detections would (a cold detector solves nearly everything it
// issues, so the floor is a cache-hit-rate bound).
func TestIncrementalRepairSavings(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus measurement; skipped with -short")
	}
	for _, b := range benchmarks.All() {
		prog, err := b.Program()
		if err != nil {
			t.Fatal(err)
		}
		res, err := repairOpts(prog, anomaly.EC, Options{Parallelism: 1})
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		st := res.Stats
		if st.Solved+st.Replayed > st.Queries {
			t.Errorf("%s: solver ran %d+%d times for %d issued queries",
				b.Name, st.Solved, st.Replayed, st.Queries)
		}
		if rate := st.CacheHitRate(); rate < 0.30 {
			t.Errorf("%s: cache hit rate %.0f%% below the 30%% floor (%d issued, %d solved, %d replayed)",
				b.Name, 100*rate, st.Queries, st.Solved, st.Replayed)
		}
	}
}
