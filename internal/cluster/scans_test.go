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

// dirPins are, per benchmark and mode, each table's directory after
// scanConfig(b, mode, 1000): keys interned and keys held (by some replica:
// in the key index), as TABLE:interned/held. They are the directory's size,
// recorded before its layout changed: a key interned twice, or a slot
// admitted into the key index that no replica holds, moves them. Where the
// two differ, SC inserts interned a previewed uuid key that another
// transaction took, or aborted.
var dirPins = map[string]string{
	"TPC-C/EC":         "WAREHOUSE:2/2 DISTRICT:20/20 CUSTOMER:100/100 ORDERS:410/410 NEW_ORDER:410/410 ORDER_LINE:410/410 ITEM:100/100 STOCK:100/100 HISTORY:453/453",
	"TPC-C/SC":         "WAREHOUSE:2/2 DISTRICT:20/20 CUSTOMER:100/100 ORDERS:431/431 NEW_ORDER:431/431 ORDER_LINE:431/431 ITEM:100/100 STOCK:100/100 HISTORY:468/468",
	"TPC-C/AT-SC":      "WAREHOUSE:2/2 DISTRICT:20/20 CUSTOMER:100/100 ORDERS:485/485 NEW_ORDER:485/485 ORDER_LINE:485/485 ITEM:100/100 STOCK:100/100 HISTORY:427/427",
	"SEATS/EC":         "COUNTRY:1/1 AIRPORT:5/5 AIRLINE:3/3 CUSTOMER:100/100 FREQUENT_FLYER:100/100 FLIGHT:20/20 RESERVATION:349/349 CONFIG:1/1",
	"SEATS/SC":         "COUNTRY:1/1 AIRPORT:5/5 AIRLINE:3/3 CUSTOMER:100/100 FREQUENT_FLYER:100/100 FLIGHT:20/20 RESERVATION:324/324 CONFIG:1/1",
	"SEATS/AT-SC":      "COUNTRY:1/1 AIRPORT:5/5 AIRLINE:3/3 CUSTOMER:100/100 FREQUENT_FLYER:100/100 FLIGHT:20/20 RESERVATION:325/325 CONFIG:1/1",
	"Courseware/EC":    "COURSE:10/10 EMAIL:100/100 STUDENT:220/220",
	"Courseware/SC":    "COURSE:10/10 EMAIL:100/100 STUDENT:209/209",
	"Courseware/AT-SC": "COURSE:10/10 EMAIL:100/100 STUDENT:211/211",
	"SmallBank/EC":     "ACCOUNTS:100/100 SAVINGS:100/100 CHECKING:100/100",
	"SmallBank/SC":     "ACCOUNTS:100/100 SAVINGS:100/100 CHECKING:100/100",
	"SmallBank/AT-SC":  "ACCOUNTS:100/100 SAVINGS:100/100 CHECKING:100/100",
	"Twitter/EC":       "USERS:100/100 TWEETS:351/351 FOLLOWS:0/0 FOLLOWERS:0/0",
	"Twitter/SC":       "USERS:100/100 TWEETS:333/333 FOLLOWS:0/0 FOLLOWERS:0/0",
	"Twitter/AT-SC":    "USERS:100/100 TWEETS:335/335 FOLLOWS:0/0 FOLLOWERS:0/0",
	"FMKe/EC":          "PATIENT:147/147 PHARMACY:5/5 FACILITY:2/2 STAFF:10/10 PRESCRIPTION:345/345 PATIENT_INDEX:100/100 PHARMACY_INDEX:100/100",
	"FMKe/SC":          "PATIENT:142/142 PHARMACY:5/5 FACILITY:2/2 STAFF:10/10 PRESCRIPTION:327/327 PATIENT_INDEX:100/100 PHARMACY_INDEX:100/100",
	"FMKe/AT-SC":       "PATIENT:143/143 PHARMACY:5/5 FACILITY:2/2 STAFF:10/10 PRESCRIPTION:338/338 PATIENT_INDEX:100/100 PHARMACY_INDEX:100/100",
	"SIBench/EC":       "SITEST:100/100",
	"SIBench/SC":       "SITEST:100/100",
	"SIBench/AT-SC":    "SITEST:100/100",
	"Wikipedia/EC":     "USERACCT:100/100 USER_GROUPS:100/100 PAGE:100/100 PAGE_RESTRICTIONS:100/100 IPBLOCKS:0/0 REVISION:204/204 TEXTTAB:204/204 RECENTCHANGES:104/104 WATCHLIST:0/0 LOGGING:104/104 SITE_STATS:1/1 VALUE_BACKUP:104/104",
	"Wikipedia/SC":     "USERACCT:100/100 USER_GROUPS:100/100 PAGE:100/100 PAGE_RESTRICTIONS:100/100 IPBLOCKS:0/0 REVISION:185/185 TEXTTAB:185/185 RECENTCHANGES:119/85 WATCHLIST:0/0 LOGGING:116/85 SITE_STATS:1/1 VALUE_BACKUP:120/85",
	"Wikipedia/AT-SC":  "USERACCT:100/100 USER_GROUPS:100/100 PAGE:100/100 PAGE_RESTRICTIONS:100/100 IPBLOCKS:0/0 REVISION:206/206 TEXTTAB:206/206 RECENTCHANGES:167/106 WATCHLIST:0/0 LOGGING:154/106 SITE_STATS:1/1 VALUE_BACKUP:148/106",
	"Killrchat/EC":     "USERS:153/153 ROOMS:5/5 MESSAGES:378/378",
	"Killrchat/SC":     "USERS:147/147 ROOMS:5/5 MESSAGES:447/355",
	"Killrchat/AT-SC":  "USERS:144/144 ROOMS:5/5 MESSAGES:368/368",
}

// dirSizes renders each table's directory as dirPins does.
func dirSizes(ms *MatStore) string {
	var sb strings.Builder
	for i := range ms.tabs {
		t := &ms.tabs[i]
		held := 0
		for _, in := range t.dir.inIdx {
			if in {
				held++
			}
		}
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%s:%d/%d", t.ct.name, len(t.dir.end), held)
	}
	return sb.String()
}

// TestDirectorySize pins the directory's size per benchmark, mode and
// table (dirPins).
func TestDirectorySize(t *testing.T) {
	for _, b := range benchmarks.All() {
		for _, mode := range []Mode{ModeEC, ModeSC, ModeATSC} {
			name := b.Name + "/" + mode.String()
			d, _, err := run(scanConfig(t, b, mode, 1000), false)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got, want := dirSizes(d.replicas[primary].state), dirPins[name]; got != want {
				t.Errorf("%s: directory\n%s\nwant\n%s", name, got, want)
			}
		}
	}
}
