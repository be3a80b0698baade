package exp

import (
	"context"
	"reflect"
	"testing"

	"atropos/internal/anomaly"
	"atropos/internal/benchmarks"
	"atropos/internal/corpus"
	"atropos/internal/repair"
)

// checkCounts compares two values of one struct type field by field and
// reports each divergent field as "cell: Field = got, golden want", so a
// failing golden names the row and the column that moved.
func checkCounts(t *testing.T, cell string, got, want any) {
	t.Helper()
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := range g.NumField() {
		if gf, wf := g.Field(i).Interface(), w.Field(i).Interface(); gf != wf {
			t.Errorf("%s: %s = %v, golden %v", cell, g.Type().Field(i).Name, gf, wf)
		}
	}
}

// goldenTable1 pins the Table 1 reproduction: anomalous access pairs per
// consistency model and the repair outcome for every benchmark. These are
// the measured values recorded in EXPERIMENTS.md; a change here is a
// change to the detector, the repair engine, or a benchmark translation
// and must be deliberate.
var goldenTable1 = []Table1Row{
	{Benchmark: "TPC-C", Txns: 5, TablesOrig: 9, TablesRef: 16, EC: 123, AT: 40, CC: 123, RR: 123},
	{Benchmark: "SEATS", Txns: 6, TablesOrig: 8, TablesRef: 10, EC: 38, AT: 4, CC: 38, RR: 38},
	{Benchmark: "Courseware", Txns: 5, TablesOrig: 3, TablesRef: 2, EC: 10, AT: 0, CC: 10, RR: 10},
	{Benchmark: "SmallBank", Txns: 6, TablesOrig: 3, TablesRef: 3, EC: 32, AT: 21, CC: 32, RR: 31},
	{Benchmark: "Twitter", Txns: 5, TablesOrig: 4, TablesRef: 5, EC: 11, AT: 4, CC: 11, RR: 11},
	{Benchmark: "FMKe", Txns: 7, TablesOrig: 7, TablesRef: 8, EC: 23, AT: 13, CC: 23, RR: 23},
	{Benchmark: "SIBench", Txns: 2, TablesOrig: 1, TablesRef: 1, EC: 1, AT: 0, CC: 1, RR: 1},
	{Benchmark: "Wikipedia", Txns: 5, TablesOrig: 12, TablesRef: 13, EC: 29, AT: 9, CC: 29, RR: 29},
	{Benchmark: "Killrchat", Txns: 5, TablesOrig: 3, TablesRef: 4, EC: 13, AT: 3, CC: 13, RR: 13},
}

// TestTable1Golden regenerates the full Table 1 (on the parallel engine)
// and asserts every count column against the golden values.
func TestTable1Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus regression; skipped with -short")
	}
	rows, err := Table1(benchmarks.All())
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	if len(rows) != len(goldenTable1) {
		t.Fatalf("rows = %d, want %d", len(rows), len(goldenTable1))
	}
	totalEC, totalAT := 0, 0
	for i, want := range goldenTable1 {
		got := rows[i]
		got.Time = 0 // timing is machine-dependent
		if got != want {
			t.Errorf("row %d:\n got %+v\nwant %+v", i, got, want)
		}
		if got.AT > got.EC {
			t.Errorf("%s: repair increased anomalies: EC=%d AT=%d", got.Benchmark, got.EC, got.AT)
		}
		if got.CC > got.EC || got.RR > got.EC {
			t.Errorf("%s: stronger model found more pairs than EC: %+v", got.Benchmark, got)
		}
		totalEC += got.EC
		totalAT += got.AT
	}
	// The paper's headline: a substantial majority of pairs repaired.
	if repaired := float64(totalEC-totalAT) / float64(totalEC); repaired < 0.6 {
		t.Errorf("corpus repair rate %.0f%%, want >= 60%%", 100*repaired)
	}
}

// repairCounts is one EC repair's outcome and oracle work: the anomalous
// pairs before and after, the cycle queries the three detection passes
// issued, and the ones they decided.
type repairCounts struct {
	Initial, Remaining, Queries, Solved int
}

// TestRepairGolden repairs every benchmark and progen seeds 0–31 under EC
// and checks each against the pairs, remaining, queries and solved columns
// of the golden table (internal/corpus/testdata/cells.tsv).
func TestRepairGolden(t *testing.T) {
	golden, err := corpus.Golden()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range append(corpus.Benchmarks(), corpus.Progen(0, 32)...) {
		rep, err := repair.Run(context.Background(), p.Prog, anomaly.EC)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		got := repairCounts{len(rep.Initial), len(rep.Remaining), rep.Stats.Queries, rep.Stats.Solved}
		w := golden[p.Name+"/EC"]
		want := repairCounts{w.Int("pairs"), w.Int("remaining"), w.Int("queries"), w.Int("solved")}
		checkCounts(t, p.Name, got, want)
	}
}
