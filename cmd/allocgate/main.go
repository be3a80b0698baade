// Command allocgate is the CI allocation-regression gate: it parses a `go
// test -bench` output file (the bench smoke job's bench-smoke.txt) and
// compares each benchmark's allocs/op, and the B/op of the simulator,
// certification and detection, against the checked-in thresholds in
// BENCH_allocs.json, failing on regressions beyond the tolerance.
//
// allocs/op and B/op are the benchmark columns that are deterministic and
// machine-independent enough to gate on: the repair pipeline and the
// compiled simulator allocate identically on every machine at a given Go
// version, while ns/op varies with hardware — wall clock therefore stays
// informational (exact counts are gated by Go goldens; this is the same
// idea applied to memory). B/op sees what allocs/op cannot: a store that
// keeps its allocation count and halves what each allocation holds.
//
// Usage:
//
//	allocgate [-bench bench-smoke.txt] [-thresholds BENCH_allocs.json]
//
// Regenerate the thresholds after an intentional change with:
//
//	make bench && go run ./cmd/allocgate -update
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Thresholds is the BENCH_allocs.json layout.
type Thresholds struct {
	// TolerancePct is the allowed regression before the gate fails; the
	// headroom absorbs Go-runtime version noise (map growth, pool
	// behavior), not real regressions.
	TolerancePct float64 `json:"tolerance_pct"`
	// AllocsPerOp maps benchmark name (no -N GOMAXPROCS suffix) to its
	// recorded allocs/op ceiling.
	AllocsPerOp map[string]uint64 `json:"allocs_per_op"`
	// BytesPerOp does the same for the B/op of the benchmarks bytesGated
	// names, at the same tolerance.
	BytesPerOp map[string]uint64 `json:"bytes_per_op"`
}

var (
	benchPath = flag.String("bench", "bench-smoke.txt", "go test -bench output to check")
	thrPath   = flag.String("thresholds", "BENCH_allocs.json", "checked-in allocs/op thresholds")
	update    = flag.Bool("update", false, "rewrite the thresholds file from the bench output instead of checking")
)

// gated reports whether a benchmark participates in the gate: the repair
// pipeline (Table 1), the compiled cluster simulator, witness
// certification, the invariant study (directed and serial runs on the
// simulator's executor), the daemon's request path (one fixed round of
// program verbs through HTTP), the front end (parse and check of the nine
// sources, from the parser's memo; and parsing them with the memo empty),
// the editing loop (one session across drop/restore edits) and a
// cold detection of TPC-C.
func gated(name string) bool {
	return strings.HasPrefix(name, "BenchmarkTable1_") ||
		strings.HasPrefix(name, "BenchmarkFrontEnd") ||
		strings.HasPrefix(name, "BenchmarkParseCold") ||
		strings.HasPrefix(name, "BenchmarkSessionEdit") ||
		strings.HasPrefix(name, "BenchmarkSim") ||
		strings.HasPrefix(name, "BenchmarkCertify_") ||
		strings.HasPrefix(name, "BenchmarkInvariants_") ||
		strings.HasPrefix(name, "BenchmarkService_") ||
		name == "BenchmarkDetect_TPCC"
}

// bytesGated reports whether a benchmark's B/op is gated too: the simulator
// (its store's pages are most of what it allocates), the sim-panel's cells,
// witness certification (directed runs on the same store), and detection
// (the Table 1 repairs, the edit loop and the cold TPC-C detection, whose
// bytes fell when detection stopped building SAT encodings).
func bytesGated(name string) bool {
	return strings.HasPrefix(name, "BenchmarkSim") ||
		strings.HasPrefix(name, "BenchmarkDeployPanel/") ||
		strings.HasPrefix(name, "BenchmarkCertify_") ||
		strings.HasPrefix(name, "BenchmarkTable1_") ||
		name == "BenchmarkSessionEdit" ||
		name == "BenchmarkDetect_TPCC"
}

// benchLine matches a benchmark's result line: go test prints B/op just
// before allocs/op.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+.*?\s(\d+)\s+B/op\s+(\d+)\s+allocs/op`)

// parseBench extracts name → allocs/op for every gated benchmark in the
// output file, and name → B/op for the bytes-gated ones.
func parseBench(path string) (allocs, bytes map[string]uint64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	allocs, bytes = map[string]uint64{}, map[string]uint64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		b, errB := strconv.ParseUint(m[2], 10, 64)
		n, errN := strconv.ParseUint(m[3], 10, 64)
		if errB != nil || errN != nil {
			return nil, nil, fmt.Errorf("allocgate: %s: bad B/op or allocs/op in %q", path, sc.Text())
		}
		if gated(m[1]) {
			allocs[m[1]] = n
		}
		if bytesGated(m[1]) {
			bytes[m[1]] = b
		}
	}
	return allocs, bytes, sc.Err()
}

func main() {
	flag.Parse()
	got, gotBytes, err := parseBench(*benchPath)
	if err != nil {
		fatal(err)
	}
	if len(got) == 0 {
		fatal(fmt.Errorf("no gated benchmarks (BenchmarkTable1_*/BenchmarkSim*) found in %s", *benchPath))
	}
	if *update {
		writeThresholds(got, gotBytes)
		return
	}

	buf, err := os.ReadFile(*thrPath)
	if err != nil {
		fatal(err)
	}
	var thr Thresholds
	if err := json.Unmarshal(buf, &thr); err != nil {
		fatal(fmt.Errorf("%s: %w", *thrPath, err))
	}
	if thr.TolerancePct <= 0 {
		thr.TolerancePct = 15
	}

	failures := gate("allocs/op", got, thr.AllocsPerOp, thr.TolerancePct)
	failures = append(failures, gate("B/op", gotBytes, thr.BytesPerOp, thr.TolerancePct)...)
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "allocgate: FAIL:", f)
		}
		fmt.Fprintf(os.Stderr, "allocgate: %d allocation regressions vs %s — if intentional, regenerate with `go run ./cmd/allocgate -update` after `make bench`\n",
			len(failures), *thrPath)
		os.Exit(1)
	}
	fmt.Printf("allocgate: %d benchmarks (%d also by B/op) within %.0f%% of %s\n",
		len(got), len(gotBytes), thr.TolerancePct, *thrPath)
}

// gate compares one column's measurements with their thresholds, printing a
// line per benchmark, and returns the failures.
func gate(col string, got, thr map[string]uint64, tolPct float64) []string {
	var failures []string
	for _, name := range sortedKeys(got) {
		want, ok := thr[name]
		if !ok {
			// A gated benchmark without a threshold is a failure, not a
			// note: a newly added benchmark must be recorded before it
			// ships, or the gate silently never protects it.
			failures = append(failures, fmt.Sprintf(
				"%s: no %s threshold recorded — run `go run ./cmd/allocgate -update` after `make bench` to add it", name, col))
			continue
		}
		limit := float64(want) * (1 + tolPct/100)
		switch g := got[name]; {
		case float64(g) > limit:
			failures = append(failures, fmt.Sprintf(
				"%s: %d %s exceeds threshold %d by more than %.0f%% (limit %.0f)",
				name, g, col, want, tolPct, limit))
		case float64(g) < float64(want)*(1-tolPct/100):
			fmt.Printf("allocgate: %s improved: %d %s vs threshold %d — consider ratcheting with -update\n",
				name, g, col, want)
		default:
			fmt.Printf("allocgate: %s ok: %d %s (threshold %d)\n", name, g, col, want)
		}
	}
	for _, name := range sortedKeys(thr) {
		if _, ok := got[name]; !ok {
			fmt.Printf("allocgate: warning: %s has a %s threshold but was not measured\n", name, col)
		}
	}
	return failures
}

func writeThresholds(got, gotBytes map[string]uint64) {
	thr := Thresholds{TolerancePct: 15, AllocsPerOp: got, BytesPerOp: gotBytes}
	buf, err := json.MarshalIndent(&thr, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*thrPath, append(buf, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("allocgate: wrote %d thresholds to %s\n", len(got), *thrPath)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "allocgate:", err)
	os.Exit(1)
}
