// Command allocgate is the CI allocation-regression gate: it parses a `go
// test -bench` output file (the bench smoke job's bench-smoke.txt) and
// compares each benchmark's allocs/op against the checked-in thresholds in
// BENCH_allocs.json, failing on regressions beyond the tolerance.
//
// allocs/op is the one benchmark column that is deterministic and
// machine-independent enough to gate on: the repair pipeline and the
// compiled simulator allocate identically on every machine at a given Go
// version, while ns/op varies with hardware — wall clock therefore stays
// informational (exact counts are gated by Go goldens; this is the same
// idea applied to memory).
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
// program verbs through HTTP), and the parallel fast path (sharded
// interning and wavefront detection, both measured at fixed worker counts
// so allocs/op stays machine-independent).
func gated(name string) bool {
	return strings.HasPrefix(name, "BenchmarkTable1_") ||
		strings.HasPrefix(name, "BenchmarkSim") ||
		strings.HasPrefix(name, "BenchmarkCertify_") ||
		strings.HasPrefix(name, "BenchmarkInvariants_") ||
		strings.HasPrefix(name, "BenchmarkService_") ||
		strings.HasPrefix(name, "BenchmarkInternParallel") ||
		strings.HasPrefix(name, "BenchmarkDetectParallel")
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+.*?\s(\d+)\s+allocs/op`)

// parseBench extracts name → allocs/op for every gated benchmark in the
// output file.
func parseBench(path string) (map[string]uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]uint64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil || !gated(m[1]) {
			continue
		}
		n, err := strconv.ParseUint(m[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("allocgate: %s: bad allocs/op in %q", path, sc.Text())
		}
		out[m[1]] = n
	}
	return out, sc.Err()
}

func main() {
	flag.Parse()
	got, err := parseBench(*benchPath)
	if err != nil {
		fatal(err)
	}
	if len(got) == 0 {
		fatal(fmt.Errorf("no gated benchmarks (BenchmarkTable1_*/BenchmarkSim*) found in %s", *benchPath))
	}
	if *update {
		writeThresholds(got)
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

	var failures []string
	for _, name := range sortedKeys(got) {
		want, ok := thr.AllocsPerOp[name]
		if !ok {
			// A gated benchmark without a threshold is a failure, not a
			// note: a newly added benchmark must be recorded before it
			// ships, or the gate silently never protects it.
			failures = append(failures, fmt.Sprintf(
				"%s: no threshold recorded — run `go run ./cmd/allocgate -update` after `make bench` to add it", name))
			continue
		}
		limit := float64(want) * (1 + thr.TolerancePct/100)
		switch g := got[name]; {
		case float64(g) > limit:
			failures = append(failures, fmt.Sprintf(
				"%s: %d allocs/op exceeds threshold %d by more than %.0f%% (limit %.0f)",
				name, g, want, thr.TolerancePct, limit))
		case float64(g) < float64(want)*(1-thr.TolerancePct/100):
			fmt.Printf("allocgate: %s improved: %d allocs/op vs threshold %d — consider ratcheting with -update\n",
				name, g, want)
		default:
			fmt.Printf("allocgate: %s ok: %d allocs/op (threshold %d)\n", name, got[name], want)
		}
	}
	for _, name := range sortedKeys(thr.AllocsPerOp) {
		if _, ok := got[name]; !ok {
			fmt.Printf("allocgate: warning: %s has a threshold but was not measured\n", name)
		}
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "allocgate: FAIL:", f)
		}
		fmt.Fprintf(os.Stderr, "allocgate: %d allocation regressions vs %s — if intentional, regenerate with `go run ./cmd/allocgate -update` after `make bench`\n",
			len(failures), *thrPath)
		os.Exit(1)
	}
	fmt.Printf("allocgate: %d benchmarks within %.0f%% of %s\n", len(got), thr.TolerancePct, *thrPath)
}

func writeThresholds(got map[string]uint64) {
	thr := Thresholds{TolerancePct: 15, AllocsPerOp: got}
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
