package cluster_test

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"testing"

	"atropos/internal/anomaly"
	"atropos/internal/ast"
	"atropos/internal/benchmarks"
	"atropos/internal/cluster"
	"atropos/internal/progen"
	"atropos/internal/repair"
	"atropos/internal/sema"
)

func program(t *testing.T, b *benchmarks.Benchmark) *ast.Program {
	t.Helper()
	prog, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestBenchmarkAccessPaths keeps the scan-count and sim-panel readings from
// becoming vacuous, the way TestAllBenchmarkTxnsCompile keeps the
// differential test: the commands the equality indexes exist for must
// compile to them, the bypass cells must bypass them, and a command left on
// the full scan must be listed here with the reason.
func TestBenchmarkAccessPaths(t *testing.T) {
	seats := cluster.AccessPaths(program(t, benchmarks.SEATS))
	for _, cmd := range []string{"findOpenSeats.S2", "findFlights.S1"} {
		if seats[cmd] != "eq-index" {
			t.Errorf("SEATS %s compiles to %q, want eq-index", cmd, seats[cmd])
		}
	}

	// SmallBank, original and repaired, pins keys only: its cells measure
	// what the indexes cost a workload that never asks for one.
	sb := program(t, benchmarks.SmallBank)
	res, err := repair.Run(context.Background(), sb, anomaly.EC, repair.Parallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	for which, prog := range map[string]*ast.Program{"original": sb, "repaired": res.Program} {
		paths := cluster.AccessPaths(prog)
		if len(paths) == 0 {
			t.Errorf("SmallBank %s: no commands", which)
		}
		for cmd, p := range paths {
			if p != "exact" && p != "prefix" {
				t.Errorf("SmallBank %s: %s compiles to %q, want exact or prefix", which, cmd, p)
			}
		}
	}

	// Full scans that remain, over all nine benchmarks: clauses that are not
	// conjunctions of equalities, so ast.WhereEqualities — which the
	// interpreter's key-range narrowing shares — does not decompose them.
	remaining := map[string]string{
		"TPC-C stockLevel.S2": "s_w_id = w && s_quantity < threshold: the inequality",
		"SIBench readAll.S1":  "si_id >= lo: a range",
	}
	var scans []string
	for _, b := range benchmarks.All() {
		for cmd, p := range cluster.AccessPaths(program(t, b)) {
			if p == "scan" {
				scans = append(scans, b.Name+" "+cmd)
			}
		}
	}
	slices.Sort(scans)
	if want := slices.Sorted(maps.Keys(remaining)); !slices.Equal(scans, want) {
		t.Errorf("commands on the full scan: %q, want %q", scans, want)
	}
}

// TestAllBenchmarkTxnsCompile: a transaction the compiler refuses fails the
// run that needs it (TestRefusedTxnFailsTheRun), so everything the simulator
// and certification are asked to run must compile: the nine benchmarks,
// their repairs under every weak model (the AT-SC cells run those), the
// service benchmark's 96 generated programs and their EC repairs, and — the
// two shapes sema lets through are easy to generate by accident — the next
// 1 904 generated programs as they are.
func TestAllBenchmarkTxnsCompile(t *testing.T) {
	originals, repaired := 0, 0
	check := func(what string, prog *ast.Program, models ...anomaly.Model) {
		t.Helper()
		for _, miss := range cluster.Uncompiled(prog) {
			t.Errorf("%s: %s", what, miss)
		}
		originals += len(prog.Txns)
		for _, model := range models {
			res, err := repair.Run(context.Background(), prog, model, repair.Parallelism(1))
			if err != nil {
				t.Fatalf("%s under %s: %v", what, model, err)
			}
			for _, miss := range cluster.Uncompiled(res.Program) {
				t.Errorf("%s repaired under %s: %s", what, model, miss)
			}
			repaired += len(res.Program.Txns)
		}
	}
	for _, b := range benchmarks.All() {
		check(b.Name, program(t, b), anomaly.EC, anomaly.CC, anomaly.RR)
	}
	for seed := int64(1); seed <= 96; seed++ {
		prog, err := sema.Load(ast.Format(progen.Program(seed)))
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("progen %d", seed), prog, anomaly.EC)
	}
	for seed := int64(97); seed <= 2000; seed++ {
		prog, err := sema.Load(ast.Format(progen.Program(seed)))
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("progen %d", seed), prog)
	}
	t.Logf("%d original and %d repaired transactions compile", originals, repaired)
}
