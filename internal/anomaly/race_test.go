package anomaly

import (
	"sync"
	"testing"

	"atropos/internal/benchmarks"
)

// TestDetectConcurrent runs one-shot detections (a new session each) from
// many goroutines over the same shared *ast.Program under every consistency
// model. The parallel experiment engine relies on Detect treating its input
// as read-only; run with -race this test guards that contract (detector
// state — plans, query counters, the small model's scratch, the memo —
// must be per-session).
func TestDetectConcurrent(t *testing.T) {
	prog, err := benchmarks.SmallBank.Program()
	if err != nil {
		t.Fatal(err)
	}
	models := []Model{EC, CC, RR, SC}
	want := make([]int, len(models))
	for i, m := range models {
		r, err := NewSession(m).Detect(prog)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		want[i] = r.Count()
	}

	const rounds = 4
	counts := make([][]int, rounds)
	var wg sync.WaitGroup
	for round := 0; round < rounds; round++ {
		counts[round] = make([]int, len(models))
		for i, m := range models {
			wg.Add(1)
			go func(round, i int, m Model) {
				defer wg.Done()
				r, err := NewSession(m).Detect(prog)
				if err != nil {
					t.Errorf("%v: %v", m, err)
					return
				}
				counts[round][i] = r.Count()
			}(round, i, m)
		}
	}
	wg.Wait()
	for round := range counts {
		for i, m := range models {
			if counts[round][i] != want[i] {
				t.Errorf("round %d %v: count %d, want %d (detection not deterministic under concurrency)",
					round, m, counts[round][i], want[i])
			}
		}
	}
}
