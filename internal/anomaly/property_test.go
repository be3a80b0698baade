package anomaly_test

import (
	"testing"

	"atropos/internal/anomaly"
	"atropos/internal/benchmarks"
	"atropos/internal/progen"
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
	for seed := int64(0); seed < 40; seed++ {
		p := progen.Program(seed)
		counts := map[anomaly.Model]int{}
		for _, m := range []anomaly.Model{anomaly.EC, anomaly.CC, anomaly.RR, anomaly.SC} {
			r, err := anomaly.NewSession(m).Detect(p)
			if err != nil {
				t.Fatalf("seed %d: Detect(%v): %v", seed, m, err)
			}
			counts[m] = r.Count()
		}
		if counts[anomaly.SC] != 0 {
			t.Errorf("seed %d: SC reports %d anomalies, want 0", seed, counts[anomaly.SC])
		}
		if counts[anomaly.CC] > counts[anomaly.EC] {
			t.Errorf("seed %d: CC (%d) > EC (%d)", seed, counts[anomaly.CC], counts[anomaly.EC])
		}
		if counts[anomaly.RR] > counts[anomaly.EC] {
			t.Errorf("seed %d: RR (%d) > EC (%d)", seed, counts[anomaly.RR], counts[anomaly.EC])
		}
	}
}

// TestDetectorGoldenCounts pins the measured Table 1 anomaly counts of the
// benchmark corpus so detector or benchmark changes surface explicitly
// (EXPERIMENTS.md records these next to the paper's numbers).
func TestDetectorGoldenCounts(t *testing.T) {
	want := map[string]int{
		"TPC-C":      123,
		"SEATS":      38,
		"Courseware": 10,
		"SmallBank":  32,
		"Twitter":    11,
		"FMKe":       23,
		"SIBench":    1,
		"Wikipedia":  29,
		"Killrchat":  13,
	}
	for _, b := range benchmarks.All() {
		if b.Name == "TPC-C" && testing.Short() {
			continue
		}
		prog, err := b.Program()
		if err != nil {
			t.Fatal(err)
		}
		r, err := anomaly.NewSession(anomaly.EC).Detect(prog)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if got := r.Count(); got != want[b.Name] {
			t.Errorf("%s: EC anomalies = %d, want %d (update EXPERIMENTS.md if intentional)", b.Name, got, want[b.Name])
		}
	}
}
