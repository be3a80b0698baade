package exp

import (
	"strings"
	"testing"
	"time"

	"atropos/internal/benchmarks"
	"atropos/internal/cluster"
	"atropos/internal/refactor"
)

func TestTable1SmallCorpus(t *testing.T) {
	rows, err := Table1([]*benchmarks.Benchmark{benchmarks.SIBench, benchmarks.Courseware})
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	si := rows[0]
	if si.Benchmark != "SIBench" || si.EC != 1 || si.AT != 0 {
		t.Errorf("SIBench row = %+v, want EC=1 AT=0", si)
	}
	cw := rows[1]
	if cw.AT != 0 {
		t.Errorf("Courseware AT = %d, want 0 (fully repaired)", cw.AT)
	}
	if cw.EC <= 0 {
		t.Errorf("Courseware EC = %d, want > 0", cw.EC)
	}
	if cw.CC > cw.EC || cw.RR > cw.EC {
		t.Errorf("weaker models exceed EC: %+v", cw)
	}
	text := FormatTable1(rows)
	if !strings.Contains(text, "SIBench") || !strings.Contains(text, "repaired:") {
		t.Errorf("FormatTable1 output malformed:\n%s", text)
	}
}

func TestPerfPanelShape(t *testing.T) {
	res, err := Perf(PerfConfig{
		Benchmark:    benchmarks.SmallBank,
		Topology:     cluster.USCluster,
		ClientCounts: []int{16, 48},
		Duration:     3 * time.Second,
		Warmup:       300 * time.Millisecond,
		Seed:         3,
	})
	if err != nil {
		t.Fatalf("Perf: %v", err)
	}
	if len(res.Series) != 4 {
		t.Fatalf("series = %d, want 4 (EC, AT-EC, SC, AT-SC)", len(res.Series))
	}
	byLabel := map[string][]float64{}
	for _, s := range res.Series {
		if len(s.Points) != 2 {
			t.Fatalf("%s has %d points", s.Label, len(s.Points))
		}
		for _, p := range s.Points {
			byLabel[s.Label] = append(byLabel[s.Label], p.Throughput)
		}
	}
	// The paper's ordering at load: EC ≈ AT-EC > AT-SC > SC.
	last := func(label string) float64 { return byLabel[label][1] }
	if !(last("EC") > last("SC")) {
		t.Errorf("EC (%.0f) not above SC (%.0f)", last("EC"), last("SC"))
	}
	if !(last("AT-EC") > last("SC")) {
		t.Errorf("AT-EC (%.0f) not above SC (%.0f)", last("AT-EC"), last("SC"))
	}
	if !(last("AT-SC") > last("SC")) {
		t.Errorf("AT-SC (%.0f) not above SC (%.0f): repair must buy throughput", last("AT-SC"), last("SC"))
	}
	t.Logf("\n%s", res.Format())
}

func TestMigrateRowsRoundTrip(t *testing.T) {
	// Migrating with no correspondences reproduces the same row set for an
	// unchanged program.
	b := benchmarks.SIBench
	prog, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	rows := b.Rows(benchmarks.Scale{Records: 5})
	out, err := refactor.Migrate(rows, prog, prog, nil)
	if err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	if len(out) != len(rows) {
		t.Fatalf("migrated %d rows, want %d", len(out), len(rows))
	}
}

func TestFig16RandomWorseThanAtropos(t *testing.T) {
	res, err := Fig16(benchmarks.Courseware, 6, 4, 99)
	if err != nil {
		t.Fatalf("Fig16: %v", err)
	}
	if res.Atropos != 0 {
		t.Errorf("Atropos anomalies = %d, want 0 on Courseware", res.Atropos)
	}
	if len(res.Points) != 6 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// The vast majority of random rounds must not beat the oracle-guided
	// repair (App. A.3's finding).
	atOrBelow := 0
	for _, p := range res.Points {
		if p.Anomalies <= res.Atropos {
			atOrBelow++
		}
	}
	if atOrBelow > len(res.Points)/2 {
		t.Errorf("%d/%d random rounds matched Atropos; random search should rarely win", atOrBelow, len(res.Points))
	}
	t.Logf("\n%s", res.Format())
}

func TestInvariantsExperiment(t *testing.T) {
	res, err := Invariants(25, 5)
	if err != nil {
		t.Fatalf("Invariants: %v", err)
	}
	if res.Original.ViolatedCount() != 3 {
		t.Errorf("original violates %d invariants, want 3", res.Original.ViolatedCount())
	}
	if res.Repaired.ViolatedCount() >= res.Original.ViolatedCount() {
		t.Errorf("repair did not reduce invariant violations: %d -> %d",
			res.Original.ViolatedCount(), res.Repaired.ViolatedCount())
	}
	if res.Repaired.Violations[1] != 0 {
		t.Errorf("deposit-history invariant still violated after repair")
	}
	if res.Repaired.Violations[0] == 0 {
		t.Errorf("non-negative invariant clean after repair: transactSavings' overdraft guard is not repairable")
	}
	t.Logf("\n%s", res.Format())
}

func TestSummaryAggregates(t *testing.T) {
	t1, err := Table1([]*benchmarks.Benchmark{benchmarks.SIBench, benchmarks.Courseware, benchmarks.SmallBank})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Summary(t1, 48, 3*time.Second, 17)
	if err != nil {
		t.Fatalf("Summary: %v", err)
	}
	if s.AvgRepairedPct < 50 {
		t.Errorf("avg repaired %.0f%%, want a majority repaired", s.AvgRepairedPct)
	}
	if s.ThroughputGainPct <= 0 {
		t.Errorf("AT-SC throughput gain %.0f%%, want positive", s.ThroughputGainPct)
	}
	if s.LatencyDropPct <= 0 {
		t.Errorf("AT-SC latency drop %.0f%%, want positive", s.LatencyDropPct)
	}
	t.Logf("\n%s", s.Format())
}
