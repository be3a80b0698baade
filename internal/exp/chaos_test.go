package exp

import (
	"testing"
	"time"

	"atropos/internal/benchmarks"
)

// TestChaosSmallBank runs one benchmark through the full scenario panel
// and checks the harness's headline properties: the serializable control
// and the repaired deployment's repaired transactions show zero
// violations, the unrepaired EC deployment shows at least one under some
// fault scenario, and the sweep is deterministic (same config ⇒ same
// rows).
func TestChaosSmallBank(t *testing.T) {
	cfg := ChaosConfig{
		Benchmarks: []*benchmarks.Benchmark{benchmarks.SmallBank},
		Clients:    12,
		Duration:   1200 * time.Millisecond,
	}
	res, err := RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fails := ChaosGate(res.Rows); len(fails) > 0 {
		t.Fatalf("chaos gate failed:\n%s\n%s", res.Format(), fails)
	}
	for _, r := range res.Rows {
		if r.Committed == 0 {
			t.Errorf("%s/%s/%s: no committed transactions (vacuous run)", r.Benchmark, r.Scenario, r.Series)
		}
	}
	res2, err := RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Rows {
		if res.Rows[i] != res2.Rows[i] {
			t.Fatalf("chaos sweep not deterministic: %+v vs %+v", res.Rows[i], res2.Rows[i])
		}
	}
	t.Log("\n" + res.Format())
}

// goldenChaos is the default-sized panel (all nine benchmarks, the full
// scenario panel, 12 clients, 1.2 s virtual per run) at seed 42, the seed
// `make chaos` runs: {benchmark, scenario, series, committed, violations,
// residual} per run, in RunChaos's order.
var goldenChaos = []ChaosRow{
	{"TPC-C", "clean", "EC", 105, 76, 0},
	{"TPC-C", "clean", "SC", 15, 0, 0},
	{"TPC-C", "clean", "AT-SC", 57, 0, 0},
	{"TPC-C", "flaky-link", "EC", 106, 80, 0},
	{"TPC-C", "flaky-link", "SC", 25, 0, 0},
	{"TPC-C", "flaky-link", "AT-SC", 71, 0, 0},
	{"TPC-C", "rolling-crash", "EC", 87, 54, 0},
	{"TPC-C", "rolling-crash", "SC", 21, 0, 0},
	{"TPC-C", "rolling-crash", "AT-SC", 49, 0, 0},
	{"TPC-C", "split-brain-heal", "EC", 104, 99, 0},
	{"TPC-C", "split-brain-heal", "SC", 19, 0, 0},
	{"TPC-C", "split-brain-heal", "AT-SC", 46, 0, 0},
	{"TPC-C", "skewed-clocks", "EC", 102, 80, 0},
	{"TPC-C", "skewed-clocks", "SC", 29, 0, 0},
	{"TPC-C", "skewed-clocks", "AT-SC", 69, 0, 0},
	{"SEATS", "clean", "EC", 308, 162, 0},
	{"SEATS", "clean", "SC", 86, 0, 0},
	{"SEATS", "clean", "AT-SC", 152, 0, 0},
	{"SEATS", "flaky-link", "EC", 291, 214, 0},
	{"SEATS", "flaky-link", "SC", 92, 0, 0},
	{"SEATS", "flaky-link", "AT-SC", 147, 0, 0},
	{"SEATS", "rolling-crash", "EC", 223, 118, 0},
	{"SEATS", "rolling-crash", "SC", 80, 0, 0},
	{"SEATS", "rolling-crash", "AT-SC", 142, 0, 0},
	{"SEATS", "split-brain-heal", "EC", 299, 184, 0},
	{"SEATS", "split-brain-heal", "SC", 82, 0, 0},
	{"SEATS", "split-brain-heal", "AT-SC", 171, 0, 0},
	{"SEATS", "skewed-clocks", "EC", 292, 199, 0},
	{"SEATS", "skewed-clocks", "SC", 106, 0, 0},
	{"SEATS", "skewed-clocks", "AT-SC", 168, 0, 0},
	{"Courseware", "clean", "EC", 355, 172, 0},
	{"Courseware", "clean", "SC", 92, 0, 0},
	{"Courseware", "clean", "AT-SC", 731, 0, 0},
	{"Courseware", "flaky-link", "EC", 356, 305, 0},
	{"Courseware", "flaky-link", "SC", 103, 0, 0},
	{"Courseware", "flaky-link", "AT-SC", 753, 0, 0},
	{"Courseware", "rolling-crash", "EC", 307, 168, 0},
	{"Courseware", "rolling-crash", "SC", 84, 0, 0},
	{"Courseware", "rolling-crash", "AT-SC", 629, 0, 0},
	{"Courseware", "split-brain-heal", "EC", 342, 239, 0},
	{"Courseware", "split-brain-heal", "SC", 96, 0, 0},
	{"Courseware", "split-brain-heal", "AT-SC", 686, 0, 0},
	{"Courseware", "skewed-clocks", "EC", 361, 251, 0},
	{"Courseware", "skewed-clocks", "SC", 102, 0, 0},
	{"Courseware", "skewed-clocks", "AT-SC", 744, 0, 0},
	{"SmallBank", "clean", "EC", 308, 192, 0},
	{"SmallBank", "clean", "SC", 99, 0, 0},
	{"SmallBank", "clean", "AT-SC", 121, 0, 0},
	{"SmallBank", "flaky-link", "EC", 317, 230, 0},
	{"SmallBank", "flaky-link", "SC", 99, 0, 0},
	{"SmallBank", "flaky-link", "AT-SC", 127, 0, 0},
	{"SmallBank", "rolling-crash", "EC", 259, 179, 0},
	{"SmallBank", "rolling-crash", "SC", 82, 0, 0},
	{"SmallBank", "rolling-crash", "AT-SC", 96, 0, 0},
	{"SmallBank", "split-brain-heal", "EC", 298, 239, 0},
	{"SmallBank", "split-brain-heal", "SC", 122, 0, 0},
	{"SmallBank", "split-brain-heal", "AT-SC", 129, 0, 0},
	{"SmallBank", "skewed-clocks", "EC", 317, 228, 0},
	{"SmallBank", "skewed-clocks", "SC", 74, 0, 0},
	{"SmallBank", "skewed-clocks", "AT-SC", 118, 0, 0},
	{"Twitter", "clean", "EC", 500, 118, 0},
	{"Twitter", "clean", "SC", 233, 0, 0},
	{"Twitter", "clean", "AT-SC", 349, 0, 0},
	{"Twitter", "flaky-link", "EC", 488, 137, 0},
	{"Twitter", "flaky-link", "SC", 232, 0, 0},
	{"Twitter", "flaky-link", "AT-SC", 338, 0, 0},
	{"Twitter", "rolling-crash", "EC", 408, 104, 0},
	{"Twitter", "rolling-crash", "SC", 195, 0, 0},
	{"Twitter", "rolling-crash", "AT-SC", 293, 0, 0},
	{"Twitter", "split-brain-heal", "EC", 487, 167, 0},
	{"Twitter", "split-brain-heal", "SC", 247, 0, 0},
	{"Twitter", "split-brain-heal", "AT-SC", 327, 0, 0},
	{"Twitter", "skewed-clocks", "EC", 476, 124, 0},
	{"Twitter", "skewed-clocks", "SC", 208, 0, 0},
	{"Twitter", "skewed-clocks", "AT-SC", 338, 0, 0},
	{"FMKe", "clean", "EC", 381, 86, 0},
	{"FMKe", "clean", "SC", 172, 0, 0},
	{"FMKe", "clean", "AT-SC", 241, 0, 0},
	{"FMKe", "flaky-link", "EC", 404, 79, 0},
	{"FMKe", "flaky-link", "SC", 163, 0, 0},
	{"FMKe", "flaky-link", "AT-SC", 231, 0, 0},
	{"FMKe", "rolling-crash", "EC", 333, 68, 0},
	{"FMKe", "rolling-crash", "SC", 136, 0, 0},
	{"FMKe", "rolling-crash", "AT-SC", 196, 0, 0},
	{"FMKe", "split-brain-heal", "EC", 377, 98, 0},
	{"FMKe", "split-brain-heal", "SC", 165, 0, 0},
	{"FMKe", "split-brain-heal", "AT-SC", 234, 0, 0},
	{"FMKe", "skewed-clocks", "EC", 407, 88, 0},
	{"FMKe", "skewed-clocks", "SC", 166, 0, 0},
	{"FMKe", "skewed-clocks", "AT-SC", 249, 0, 0},
	{"SIBench", "clean", "EC", 677, 369, 0},
	{"SIBench", "clean", "SC", 85, 0, 0},
	{"SIBench", "clean", "AT-SC", 1008, 0, 0},
	{"SIBench", "flaky-link", "EC", 670, 370, 0},
	{"SIBench", "flaky-link", "SC", 80, 0, 0},
	{"SIBench", "flaky-link", "AT-SC", 1008, 0, 0},
	{"SIBench", "rolling-crash", "EC", 589, 286, 0},
	{"SIBench", "rolling-crash", "SC", 77, 0, 0},
	{"SIBench", "rolling-crash", "AT-SC", 846, 0, 0},
	{"SIBench", "split-brain-heal", "EC", 643, 377, 0},
	{"SIBench", "split-brain-heal", "SC", 81, 0, 0},
	{"SIBench", "split-brain-heal", "AT-SC", 957, 0, 0},
	{"SIBench", "skewed-clocks", "EC", 674, 368, 0},
	{"SIBench", "skewed-clocks", "SC", 87, 0, 0},
	{"SIBench", "skewed-clocks", "AT-SC", 1008, 0, 0},
	{"Wikipedia", "clean", "EC", 203, 22, 0},
	{"Wikipedia", "clean", "SC", 66, 0, 0},
	{"Wikipedia", "clean", "AT-SC", 110, 0, 0},
	{"Wikipedia", "flaky-link", "EC", 189, 40, 0},
	{"Wikipedia", "flaky-link", "SC", 65, 0, 0},
	{"Wikipedia", "flaky-link", "AT-SC", 88, 0, 0},
	{"Wikipedia", "rolling-crash", "EC", 178, 6, 0},
	{"Wikipedia", "rolling-crash", "SC", 70, 0, 0},
	{"Wikipedia", "rolling-crash", "AT-SC", 99, 0, 0},
	{"Wikipedia", "split-brain-heal", "EC", 195, 52, 0},
	{"Wikipedia", "split-brain-heal", "SC", 46, 0, 0},
	{"Wikipedia", "split-brain-heal", "AT-SC", 72, 0, 0},
	{"Wikipedia", "skewed-clocks", "EC", 203, 21, 0},
	{"Wikipedia", "skewed-clocks", "SC", 98, 0, 0},
	{"Wikipedia", "skewed-clocks", "AT-SC", 90, 0, 0},
	{"Killrchat", "clean", "EC", 337, 259, 0},
	{"Killrchat", "clean", "SC", 47, 0, 0},
	{"Killrchat", "clean", "AT-SC", 103, 0, 0},
	{"Killrchat", "flaky-link", "EC", 337, 250, 0},
	{"Killrchat", "flaky-link", "SC", 40, 0, 0},
	{"Killrchat", "flaky-link", "AT-SC", 124, 0, 0},
	{"Killrchat", "rolling-crash", "EC", 285, 216, 0},
	{"Killrchat", "rolling-crash", "SC", 33, 0, 0},
	{"Killrchat", "rolling-crash", "AT-SC", 79, 0, 0},
	{"Killrchat", "split-brain-heal", "EC", 317, 245, 0},
	{"Killrchat", "split-brain-heal", "SC", 45, 0, 0},
	{"Killrchat", "split-brain-heal", "AT-SC", 124, 0, 0},
	{"Killrchat", "skewed-clocks", "EC", 331, 263, 0},
	{"Killrchat", "skewed-clocks", "SC", 40, 0, 0},
	{"Killrchat", "skewed-clocks", "AT-SC", 94, 0, 0},
}

// TestChaosPanelGolden runs the default-sized panel once, asserts every
// row's counts, and holds the same run to the chaos gate.
func TestChaosPanelGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full chaos panel; skipped with -short")
	}
	res, err := RunChaos(ChaosConfig{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(goldenChaos) {
		t.Fatalf("rows = %d, golden %d", len(res.Rows), len(goldenChaos))
	}
	for i, want := range goldenChaos {
		checkCounts(t, "chaos "+want.Benchmark+"/"+want.Scenario+"/"+want.Series, res.Rows[i], want)
	}
	for _, f := range ChaosGate(res.Rows) {
		t.Error(f)
	}
}
