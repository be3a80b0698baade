// Benchmarks regenerating each table and figure of the paper (short
// configurations; the full-scale runs are `atropos-exp`, see EXPERIMENTS.md
// and DESIGN.md §5 for the experiment index).
package atropos_test

import (
	"context"
	"testing"
	"time"

	"atropos"
	"atropos/internal/anomaly"
	"atropos/internal/ast"
	"atropos/internal/benchmarks"
	"atropos/internal/cluster"
	"atropos/internal/exp"
	"atropos/internal/parser"
	"atropos/internal/repair"
	"atropos/internal/sema"
)

// --- Table 1: static analysis and repair per benchmark ---

func benchTable1(b *testing.B, name string) {
	bench := benchmarks.ByName(name)
	prog, err := bench.Program()
	if err != nil {
		b.Fatal(err)
	}
	var res *repair.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res, err = repair.Run(context.Background(), prog, anomaly.EC); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Stats.EncodersPlanned), "planned/op")
	b.ReportMetric(float64(res.Stats.Solved), "decided/op")
}

func BenchmarkTable1_TPCC(b *testing.B)       { benchTable1(b, "TPC-C") }
func BenchmarkTable1_SEATS(b *testing.B)      { benchTable1(b, "SEATS") }
func BenchmarkTable1_Courseware(b *testing.B) { benchTable1(b, "Courseware") }
func BenchmarkTable1_SmallBank(b *testing.B)  { benchTable1(b, "SmallBank") }
func BenchmarkTable1_Twitter(b *testing.B)    { benchTable1(b, "Twitter") }
func BenchmarkTable1_FMKe(b *testing.B)       { benchTable1(b, "FMKe") }
func BenchmarkTable1_SIBench(b *testing.B)    { benchTable1(b, "SIBench") }
func BenchmarkTable1_Wikipedia(b *testing.B)  { benchTable1(b, "Wikipedia") }
func BenchmarkTable1_Killrchat(b *testing.B)  { benchTable1(b, "Killrchat") }

// --- Table 1 corpus pipeline on GOMAXPROCS workers ---
//
// Run with -cpu 1,N to compare the sequential pool with an N-worker one.
// internal/exp's TestTable1Golden pins what both compute; on a multi-core
// machine the parallel pool's advantage approaches min(GOMAXPROCS, ~3x)
// for the 9-benchmark x 3-model grid (the TPC-C column dominates the
// critical path). On a single-core machine they coincide.
func BenchmarkTable1Corpus(b *testing.B) {
	all := benchmarks.All()
	for _, bench := range all {
		if _, err := bench.Program(); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Table1(all); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 1's consistency-model columns (EC vs CC vs RR detection) ---

func benchDetect(b *testing.B, model anomaly.Model) {
	prog, err := benchmarks.SmallBank.Program()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := anomaly.NewSession(model).Detect(prog); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDetect_EC(b *testing.B) { benchDetect(b, anomaly.EC) }
func BenchmarkDetect_CC(b *testing.B) { benchDetect(b, anomaly.CC) }
func BenchmarkDetect_RR(b *testing.B) { benchDetect(b, anomaly.RR) }
func BenchmarkDetect_SC(b *testing.B) { benchDetect(b, anomaly.SC) }

// --- The front end and the editing loop (bench/run.sh's session-edits) ---

// BenchmarkFrontEnd parses and checks the nine benchmark sources, each
// parsed once before the timer starts: every source comes whole from the
// parser's memo, unlexed, and every transaction carries its check's stamp,
// as on an editing loop's repeated steps. internal/parser's
// BenchmarkFrontEndReflowed measures new text of known declarations and
// BenchmarkParseCold parsing with the memo empty.
func BenchmarkFrontEnd(b *testing.B) {
	all := benchmarks.All()
	n := 0
	for _, bench := range all {
		n += len(bench.Source)
	}
	frontEnd := func() {
		for _, bench := range all {
			prog, err := parser.Parse(bench.Source)
			if err != nil {
				b.Fatal(err)
			}
			if err := sema.Check(prog); err != nil {
				b.Fatal(err)
			}
		}
	}
	frontEnd()
	b.SetBytes(int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frontEnd()
	}
}

// BenchmarkSessionEdit is the drop/restore editing loop: per
// benchmark program, one session under EC detects the program, then for
// each transaction the program without it and the program restored.
// decided/op counts the queries one loop over the nine programs decides
// (the rest are memo hits).
func BenchmarkSessionEdit(b *testing.B) {
	type edits struct{ orig, without []*ast.Program }
	var progs []edits
	for _, bench := range benchmarks.All() {
		prog, err := bench.Program()
		if err != nil {
			b.Fatal(err)
		}
		e := edits{orig: []*ast.Program{prog}}
		for k := range prog.Txns {
			rest := append(append([]*ast.Txn{}, prog.Txns[:k]...), prog.Txns[k+1:]...)
			e.without = append(e.without, &ast.Program{Schemas: prog.Schemas, Txns: rest})
		}
		progs = append(progs, e)
	}
	decided := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decided = 0
		for _, e := range progs {
			s := anomaly.NewSession(anomaly.EC)
			detect := func(p *ast.Program) {
				if _, err := s.Detect(p); err != nil {
					b.Fatal(err)
				}
			}
			detect(e.orig[0])
			for _, w := range e.without {
				detect(w)
				detect(e.orig[0])
			}
			decided += s.Stats().Solved
		}
	}
	b.ReportMetric(float64(decided), "decided/op")
}

// --- Figures 12-15: one simulated performance point per panel ---

func benchPerfPoint(b *testing.B, benchName string, topo cluster.Topology) {
	bench := benchmarks.ByName(benchName)
	res, err := exp.Perf(exp.PerfConfig{
		Benchmark:    bench,
		Topology:     topo,
		ClientCounts: []int{50},
		Duration:     2 * time.Second,
		Warmup:       200 * time.Millisecond,
		Scale:        benchmarks.Scale{Records: 50},
		Seed:         1,
	})
	if err != nil {
		b.Fatal(err)
	}
	_ = res
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Perf(exp.PerfConfig{
			Benchmark:    bench,
			Topology:     topo,
			ClientCounts: []int{50},
			Duration:     2 * time.Second,
			Warmup:       200 * time.Millisecond,
			Scale:        benchmarks.Scale{Records: 50},
			Seed:         int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12a_SmallBank_US(b *testing.B) { benchPerfPoint(b, "SmallBank", cluster.USCluster) }
func BenchmarkFig12b_SEATS_US(b *testing.B)     { benchPerfPoint(b, "SEATS", cluster.USCluster) }
func BenchmarkFig12c_TPCC_US(b *testing.B)      { benchPerfPoint(b, "TPC-C", cluster.USCluster) }

func BenchmarkFig13_SmallBank_VA(b *testing.B) { benchPerfPoint(b, "SmallBank", cluster.VACluster) }
func BenchmarkFig13_SmallBank_Global(b *testing.B) {
	benchPerfPoint(b, "SmallBank", cluster.GlobalCluster)
}
func BenchmarkFig14_SEATS_VA(b *testing.B)     { benchPerfPoint(b, "SEATS", cluster.VACluster) }
func BenchmarkFig14_SEATS_Global(b *testing.B) { benchPerfPoint(b, "SEATS", cluster.GlobalCluster) }
func BenchmarkFig15_TPCC_VA(b *testing.B)      { benchPerfPoint(b, "TPC-C", cluster.VACluster) }
func BenchmarkFig15_TPCC_Global(b *testing.B)  { benchPerfPoint(b, "TPC-C", cluster.GlobalCluster) }

// --- Figure 16: one round of random refactoring vs Atropos ---

func BenchmarkFig16_SmallBank(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig16(benchmarks.SmallBank, 1, 10, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Appendix A.2: SmallBank invariants ---

func BenchmarkInvariants_SmallBank(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Invariants(10, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Public API end to end (quickstart path) ---

func BenchmarkPublicAPIRepair(b *testing.B) {
	prog, err := benchmarks.Courseware.Program()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := atropos.Repair(context.Background(), prog, atropos.EC); err != nil {
			b.Fatal(err)
		}
	}
}

// --- The benchmark's sim-panel, cell by cell ---

// BenchmarkDeployPanel runs the nine cells of bench/sim.go's sim-panel
// ({SmallBank, TPC-C, SEATS} x {EC original, SC original, AT-SC repaired};
// USCluster, 50 clients, 1 s virtual warm-up) one sub-benchmark each, ops-
// bounded at b.N, so at -benchtime 2500x a cell's ns/op x 2500 is the
// cell's wall time in the panel and visited/op over matched/op the share of
// the store's scan work that was wasted:
//
//	go test -run '^$' -bench BenchmarkDeployPanel -benchtime 2500x -benchmem .
func BenchmarkDeployPanel(b *testing.B) {
	for _, name := range []string{"SmallBank", "TPC-C", "SEATS"} {
		bench := atropos.BenchmarkByName(name)
		prog, err := bench.Program()
		if err != nil {
			b.Fatal(err)
		}
		res, err := atropos.Repair(context.Background(), prog, atropos.EC)
		if err != nil {
			b.Fatal(err)
		}
		rows := bench.Rows(atropos.Scale{})
		atRows, err := atropos.MigrateRows(prog, res.Program, res.Corrs, rows)
		if err != nil {
			b.Fatal(err)
		}
		all, still := map[string]bool{}, map[string]bool{}
		for _, t := range prog.Txns {
			all[t.Name] = true
		}
		for _, t := range res.SerializableTxns {
			still[t] = true
		}
		base := atropos.ClusterConfig{
			Mix: bench.Mix, Topology: atropos.USCluster, Clients: 50,
			Warmup: time.Second, Seed: 3,
		}
		ec, sc, atsc := base, base, base
		ec.Program, ec.Rows, ec.Mode = prog, rows, atropos.ModeEC
		sc.Program, sc.Rows, sc.Mode, sc.SerializableTxns = prog, rows, atropos.ModeSC, all
		atsc.Program, atsc.Rows, atsc.Mode, atsc.SerializableTxns = res.Program, atRows, atropos.ModeATSC, still
		for _, cell := range []atropos.ClusterConfig{ec, sc, atsc} {
			b.Run(name+"/"+cell.Mode.String(), func(b *testing.B) {
				cell.Ops = int64(b.N)
				b.ReportAllocs()
				out, err := atropos.Simulate(cell)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(out.Scans.RowsVisited)/float64(b.N), "visited/op")
				b.ReportMetric(float64(out.Scans.RowsMatched)/float64(b.N), "matched/op")
			})
		}
	}
}
