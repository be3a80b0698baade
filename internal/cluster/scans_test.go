package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
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

// scanPins are Result.Scans of scanConfig(b, mode, 1000): calls, rows
// visited, rows matched as counted by the store before it had equality
// indexes (PR 15's matching with the three counters added, nothing else),
// then the rows the access paths visit today. An access path may visit fewer
// rows than the index-free store did; it may not be asked a different number
// of times or answer with a different number of rows. The visits themselves
// are pinned exactly: the replicas share one key index, and a scan that
// starts visiting rows its replica has not received, or skipping rows it
// has, moves this number while staying under the bound.
var scanPins = map[string]struct {
	indexFree Scans
	visited   int64
}{
	"TPC-C/EC":         {Scans{8111, 8767, 4769}, 8767},
	"TPC-C/SC":         {Scans{21163, 22693, 14493}, 22693},
	"TPC-C/AT-SC":      {Scans{13182, 16352, 8372}, 16352},
	"SEATS/EC":         {Scans{3735, 92558, 7318}, 7622},
	"SEATS/SC":         {Scans{7337, 180046, 14408}, 15016},
	"SEATS/AT-SC":      {Scans{5337, 85271, 8182}, 8806},
	"Courseware/EC":    {Scans{3036, 3036, 3036}, 3036},
	"Courseware/SC":    {Scans{5753, 5753, 5753}, 5753},
	"Courseware/AT-SC": {Scans{4790, 4790, 4790}, 4790},
	"SmallBank/EC":     {Scans{3629, 3629, 3629}, 3629},
	"SmallBank/SC":     {Scans{7236, 7236, 7236}, 7236},
	"SmallBank/AT-SC":  {Scans{5135, 5135, 5135}, 5135},
	"Twitter/EC":       {Scans{2173, 69093, 3058}, 3058},
	"Twitter/SC":       {Scans{3984, 114387, 5326}, 5326},
	"Twitter/AT-SC":    {Scans{3122, 59850, 3691}, 3691},
	"FMKe/EC":          {Scans{2711, 32799, 9592}, 9592},
	"FMKe/SC":          {Scans{5105, 54510, 17334}, 17334},
	"FMKe/AT-SC":       {Scans{3201, 29857, 9687}, 9687},
	"SIBench/EC":       {Scans{1876, 62860, 62860}, 62860},
	"SIBench/SC":       {Scans{3303, 114183, 114183}, 114183},
	"SIBench/AT-SC":    {Scans{2132, 105884, 105884}, 105884},
	"Wikipedia/EC":     {Scans{4778, 4395, 4395}, 4395},
	"Wikipedia/SC":     {Scans{9627, 8813, 8813}, 8813},
	"Wikipedia/AT-SC":  {Scans{7789, 7361, 7361}, 7361},
	"Killrchat/EC":     {Scans{2914, 14336, 14336}, 14336},
	"Killrchat/SC":     {Scans{5812, 34706, 34706}, 34706},
	"Killrchat/AT-SC":  {Scans{4059, 27219, 27219}, 27219},
}

// TestScanCounts is the deterministic gate on the store's access paths:
// per benchmark and mode, the same calls and matches as the index-free
// store, never more visits, exactly the pinned visits, and on SEATS — whose findOpenSeats and
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
			got, pin := res.Scans, scanPins[name].indexFree
			if got.Calls != pin.Calls || got.RowsMatched != pin.RowsMatched {
				t.Errorf("%s: %d calls matched %d rows, the index-free store's %d matched %d",
					name, got.Calls, got.RowsMatched, pin.Calls, pin.RowsMatched)
			}
			if got.RowsVisited < got.RowsMatched || got.RowsVisited > pin.RowsVisited {
				t.Errorf("%s: visited %d rows for %d matches, the index-free store %d",
					name, got.RowsVisited, got.RowsMatched, pin.RowsVisited)
			}
			if want := scanPins[name].visited; got.RowsVisited != want {
				t.Errorf("%s: visited %d rows, pinned %d", name, got.RowsVisited, want)
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

// dumpState renders what a store holds through the oracle's view: every
// table's keys in order, every field (alive included) of every key.
func dumpState(ms *MatStore) string {
	var sb strings.Builder
	for _, s := range ms.cp.prog.Schemas {
		for _, k := range ms.Keys(s.Name) {
			fmt.Fprintf(&sb, "%s/%q alive=%t", s.Name, string(k), ms.Alive(s.Name, k))
			for _, f := range s.Fields {
				fmt.Fprintf(&sb, " %s=%s", f.Name, ms.Read(s.Name, k, f.Name))
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// TestRowOrderInvariance: row slots are handed out in arrival order, so
// loading the initial rows in another order permutes every slot number —
// and must change nothing a run reports or leaves behind. That is the
// contract that lets one slot space serve all three replicas and the lock
// table: a slot is an address, never an observation.
func TestRowOrderInvariance(t *testing.T) {
	for _, b := range []*benchmarks.Benchmark{benchmarks.SmallBank, benchmarks.TPCC, benchmarks.SEATS} {
		for _, mode := range []Mode{ModeEC, ModeSC, ModeATSC} {
			cfg := scanConfig(t, b, mode, 600)
			d, want, err := run(cfg, true)
			if err != nil {
				t.Fatal(err)
			}
			wantState := dumpState(d.replicas[primary].state)
			cfg.Rows = slices.Clone(cfg.Rows)
			rand.New(rand.NewSource(7)).Shuffle(len(cfg.Rows), func(i, j int) {
				cfg.Rows[i], cfg.Rows[j] = cfg.Rows[j], cfg.Rows[i]
			})
			d, got, err := run(cfg, true)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s/%s: shuffled rows gave %+v, want %+v", b.Name, mode, got, want)
			}
			if gotState := dumpState(d.replicas[primary].state); gotState != wantState {
				t.Errorf("%s/%s: shuffled rows left another final state", b.Name, mode)
			}
			if want.Committed != 600 || len(wantState) == 0 {
				t.Errorf("%s/%s: committed %d, %d bytes of state: the run did not run", b.Name, mode, want.Committed, len(wantState))
			}
		}
	}
}
