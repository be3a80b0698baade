package replay_test

import (
	"fmt"
	"testing"

	"atropos/internal/anomaly"
	"atropos/internal/corpus"
	"atropos/internal/replay"
)

// TestCorpusCertificationGolden pins what certification concludes over the
// whole corpus — the nine benchmarks and progen 0–999, under EC, CC and RR:
// the pair totals, the attempt that reproduced each certified pair, and the
// reason each other pair was not. The golden table (TestCells) pins outcomes
// per cell for progen 0–96 only; this covers the programs past it, so a
// change to the attempt ladder that loses or moves a reproduction anywhere
// in the corpus shows here.
func TestCorpusCertificationGolden(t *testing.T) {
	var total, lowered, certified int
	methods := map[string]int{}
	misses := map[string]int{}
	for _, p := range corpus.Programs(1000) {
		for _, model := range []anomaly.Model{anomaly.EC, anomaly.CC, anomaly.RR} {
			cert := replay.Certify(p.Prog, witnessed(t, p.Prog, model))
			total += cert.Total
			lowered += cert.Lowered
			certified += cert.Certified
			for _, out := range cert.Outcomes {
				if out.Reproduced {
					methods[out.Method]++
				} else {
					misses[out.Reason]++
				}
			}
		}
	}
	if total != 13929 || lowered != 13929 || certified != 1948 {
		t.Errorf("corpus totals %d pairs, %d lowered, %d certified; golden 13929, 13929, 1948", total, lowered, certified)
	}
	wantMethods := map[string]int{
		"model": 1696, "model@p1": 36, "model@p2": 3,
		"split-hidden": 183, "split-hidden@p1": 21, "split-nonrep": 9,
	}
	if fmt.Sprint(methods) != fmt.Sprint(wantMethods) {
		t.Errorf("corpus methods %v, golden %v", methods, wantMethods)
	}
	wantMisses := map[string]int{"no dependency cycle through the pair": 11981}
	if fmt.Sprint(misses) != fmt.Sprint(wantMisses) {
		t.Errorf("corpus miss reasons %v, golden %v", misses, wantMisses)
	}
}
