package anomaly_test

import (
	"testing"

	"atropos/internal/anomaly"
	"atropos/internal/corpus"
)

// TestModelMonotonicityOnRandomPrograms is the detector's core semantic
// property, validated over randomly generated programs: stronger
// consistency models admit fewer executions, so anomaly counts must be
// monotone — SC ≤ CC ≤ EC and SC ≤ RR ≤ EC — and SC must always be zero
// (serializable executions have no serializability anomalies).
func TestModelMonotonicityOnRandomPrograms(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, p := range corpus.Progen(0, 40) {
		counts := map[anomaly.Model]int{}
		for _, m := range []anomaly.Model{anomaly.EC, anomaly.CC, anomaly.RR, anomaly.SC} {
			r, err := anomaly.NewSession(m).Detect(p.Prog)
			if err != nil {
				t.Fatalf("%s: Detect(%v): %v", p.Name, m, err)
			}
			counts[m] = r.Count()
		}
		if counts[anomaly.SC] != 0 {
			t.Errorf("%s: SC reports %d anomalies, want 0", p.Name, counts[anomaly.SC])
		}
		if counts[anomaly.CC] > counts[anomaly.EC] {
			t.Errorf("%s: CC (%d) > EC (%d)", p.Name, counts[anomaly.CC], counts[anomaly.EC])
		}
		if counts[anomaly.RR] > counts[anomaly.EC] {
			t.Errorf("%s: RR (%d) > EC (%d)", p.Name, counts[anomaly.RR], counts[anomaly.EC])
		}
	}
}

// TestDetectorGoldenCounts checks the Table 1 anomaly count of every
// benchmark under EC against the pairs column of the golden table
// (internal/corpus/testdata/cells.tsv), so detector or benchmark changes
// surface explicitly (EXPERIMENTS.md records these next to the paper's
// numbers).
func TestDetectorGoldenCounts(t *testing.T) {
	golden, err := corpus.Golden()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range corpus.Benchmarks() {
		r, err := anomaly.NewSession(anomaly.EC).Detect(b.Prog)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if got, want := r.Count(), golden[b.Name+"/EC"].Int("pairs"); got != want {
			t.Errorf("%s: EC anomalies = %d, golden %d", b.Name, got, want)
		}
	}
}
