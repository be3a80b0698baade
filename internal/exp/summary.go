package exp

import (
	"fmt"
	"strings"
	"time"

	"atropos/internal/benchmarks"
	"atropos/internal/cluster"
)

// Summary reproduces the paper's headline aggregates (§1, §7.2): the
// average fraction of anomalies repaired across the corpus, and the
// throughput/latency advantage of the safe AT-SC deployment over full SC.
type SummaryResult struct {
	AvgRepairedPct float64
	// ThroughputGainPct is the AT-SC throughput improvement over SC
	// (the paper reports 120% on average).
	ThroughputGainPct float64
	// LatencyDropPct is the AT-SC latency reduction versus SC (paper: 45%).
	LatencyDropPct float64
	// ATECOverheadPct is AT-EC throughput overhead versus EC (paper: <3%).
	ATECOverheadPct float64
}

// Summary computes the aggregates from a Table 1 run plus a SmallBank
// performance panel at the given load.
func Summary(t1 []Table1Row, clients int, duration time.Duration, seed int64) (*SummaryResult, error) {
	out := &SummaryResult{}
	var pctSum float64
	n := 0
	for _, r := range t1 {
		if r.EC == 0 {
			continue
		}
		pctSum += 100 * float64(r.EC-r.AT) / float64(r.EC)
		n++
	}
	if n > 0 {
		out.AvgRepairedPct = pctSum / float64(n)
	}
	perf, err := Perf(PerfConfig{
		Benchmark:    benchmarks.SmallBank,
		Topology:     cluster.USCluster,
		ClientCounts: []int{clients},
		Duration:     duration,
		Seed:         seed,
	})
	if err != nil {
		return nil, err
	}
	byLabel := map[string]float64{}
	latByLabel := map[string]float64{}
	for _, s := range perf.Series {
		byLabel[s.Label] = s.Points[0].Throughput
		latByLabel[s.Label] = s.Points[0].MeanMs
	}
	if sc := byLabel["SC"]; sc > 0 {
		out.ThroughputGainPct = 100 * (byLabel["AT-SC"] - sc) / sc
	}
	if scLat := latByLabel["SC"]; scLat > 0 {
		out.LatencyDropPct = 100 * (scLat - latByLabel["AT-SC"]) / scLat
	}
	if ec := byLabel["EC"]; ec > 0 {
		out.ATECOverheadPct = 100 * (ec - byLabel["AT-EC"]) / ec
	}
	return out, nil
}

// Format renders the aggregates next to the paper's claims.
func (s *SummaryResult) Format() string {
	var b strings.Builder
	b.WriteString("=== headline aggregates (paper §1) ===\n")
	fmt.Fprintf(&b, "avg anomalies repaired:      %.0f%%   (paper: 74%%)\n", s.AvgRepairedPct)
	fmt.Fprintf(&b, "AT-SC throughput vs SC:     +%.0f%%   (paper: +120%%)\n", s.ThroughputGainPct)
	fmt.Fprintf(&b, "AT-SC latency vs SC:        -%.0f%%   (paper: -45%%)\n", s.LatencyDropPct)
	fmt.Fprintf(&b, "AT-EC overhead vs EC:        %.1f%%   (paper: <3%%)\n", s.ATECOverheadPct)
	return b.String()
}
