package cluster

import (
	"testing"
	"time"

	"atropos/internal/benchmarks"
)

// scanConfig is an ops-bounded run shaped like the benchmark's sim-panel
// cells (default scale, USCluster, fixed seed), small enough to run for all
// nine benchmarks in every `go test`.
func scanConfig(t testing.TB, b *benchmarks.Benchmark, mode Mode, ops int64) Config {
	t.Helper()
	prog, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Program:  prog,
		Mix:      b.Mix,
		Rows:     b.Rows(benchmarks.Scale{}),
		Topology: USCluster,
		Clients:  25,
		Duration: time.Hour, // unused: the run stops at Ops
		Warmup:   200 * time.Millisecond,
		Seed:     3,
		Mode:     mode,
		Ops:      ops,
	}
	if mode == ModeATSC {
		cfg.SerializableTxns = map[string]bool{}
		for i, txn := range prog.Txns {
			if i%2 == 0 {
				cfg.SerializableTxns[txn.Name] = true
			}
		}
	}
	return cfg
}

// scanPins are Result.Scans of scanConfig(b, mode, 1000) as counted by the
// store before it had equality indexes (PR 15's matching with the three
// counters added, nothing else): calls, rows visited, rows matched. An
// access path may visit fewer rows than that store did; it may not be asked
// a different number of times or answer with a different number of rows.
var scanPins = map[string]Scans{
	"TPC-C/EC":         {8111, 8767, 4769},
	"TPC-C/SC":         {21163, 22693, 14493},
	"TPC-C/AT-SC":      {13182, 16352, 8372},
	"SEATS/EC":         {3735, 92558, 7318},
	"SEATS/SC":         {7337, 180046, 14408},
	"SEATS/AT-SC":      {5337, 85271, 8182},
	"Courseware/EC":    {3036, 3036, 3036},
	"Courseware/SC":    {5753, 5753, 5753},
	"Courseware/AT-SC": {4790, 4790, 4790},
	"SmallBank/EC":     {3629, 3629, 3629},
	"SmallBank/SC":     {7236, 7236, 7236},
	"SmallBank/AT-SC":  {5135, 5135, 5135},
	"Twitter/EC":       {2173, 69093, 3058},
	"Twitter/SC":       {3984, 114387, 5326},
	"Twitter/AT-SC":    {3122, 59850, 3691},
	"FMKe/EC":          {2711, 32799, 9592},
	"FMKe/SC":          {5105, 54510, 17334},
	"FMKe/AT-SC":       {3201, 29857, 9687},
	"SIBench/EC":       {1876, 62860, 62860},
	"SIBench/SC":       {3303, 114183, 114183},
	"SIBench/AT-SC":    {2132, 105884, 105884},
	"Wikipedia/EC":     {4778, 4395, 4395},
	"Wikipedia/SC":     {9627, 8813, 8813},
	"Wikipedia/AT-SC":  {7789, 7361, 7361},
	"Killrchat/EC":     {2914, 14336, 14336},
	"Killrchat/SC":     {5812, 34706, 34706},
	"Killrchat/AT-SC":  {4059, 27219, 27219},
}

// TestScanCounts is the deterministic gate on the store's access paths:
// per benchmark and mode, the same calls and matches as the index-free
// store, never more visits, and on SEATS — whose findOpenSeats and
// findFlights were full scans visiting 12x the rows they matched — at most
// two visits per match.
func TestScanCounts(t *testing.T) {
	for _, b := range benchmarks.All() {
		for _, mode := range []Mode{ModeEC, ModeSC, ModeATSC} {
			name := b.Name + "/" + mode.String()
			res, err := Run(scanConfig(t, b, mode, 1000))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got, pin := res.Scans, scanPins[name]
			if got.Calls != pin.Calls || got.RowsMatched != pin.RowsMatched {
				t.Errorf("%s: %d calls matched %d rows, the index-free store's %d matched %d",
					name, got.Calls, got.RowsMatched, pin.Calls, pin.RowsMatched)
			}
			if got.RowsVisited < got.RowsMatched || got.RowsVisited > pin.RowsVisited {
				t.Errorf("%s: visited %d rows for %d matches, the index-free store %d",
					name, got.RowsVisited, got.RowsMatched, pin.RowsVisited)
			}
			if b == benchmarks.SEATS && got.RowsVisited > 2*got.RowsMatched {
				t.Errorf("%s: visited %d rows for %d matches, want at most two per match",
					name, got.RowsVisited, got.RowsMatched)
			}
		}
	}
}

// TestSimCostFlatInRunLength: SEATS' RESERVATION table gains a row per
// newReservation, so a longer run matches more rows per commit (result sets
// really grow); what the store visits per commit may grow no faster than
// that. With findOpenSeats as a full scan it grew with the table.
func TestSimCostFlatInRunLength(t *testing.T) {
	perCommit := func(ops int64) (visited, matched float64) {
		res, err := Run(scanConfig(t, benchmarks.SEATS, ModeEC, ops))
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.Scans.RowsVisited) / float64(ops), float64(res.Scans.RowsMatched) / float64(ops)
	}
	v1, m1 := perCommit(2000)
	v2, m2 := perCommit(16000)
	if v2/v1 > m2/m1 {
		t.Errorf("8x the commits: visited rows per commit %.1f -> %.1f (%.2fx), matched %.1f -> %.1f (%.2fx)",
			v1, v2, v2/v1, m1, m2, m2/m1)
	}
}
