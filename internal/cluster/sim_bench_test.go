package cluster

import (
	"testing"
	"time"

	"atropos/internal/benchmarks"
)

// BenchmarkSim* measure the simulator itself, per committed transaction:
// the run is ops-bounded at b.N, so ns/op is wall time per simulated
// transaction and allocs/op is the per-transaction allocation count. The
// allocation count is O(1) in run duration and table size (DESIGN.md §9;
// gated by BENCH_allocs.json). Time per transaction is flat wherever the
// rows a transaction matches are: every benchmark command but the two
// TestBenchmarkAccessPaths lists reaches its rows through a key pin or an
// equality index, so ns/op follows result-set size (SEATS' per-flight
// reservations grow with the run: 1.7x from -benchtime 2000x to 32000x,
// 7.4x when findOpenSeats scanned), not table size.
// The *Interp variants run the AST-walking oracle on the identical
// workload; the ratio is the compiled executor's speedup.

func benchSim(b *testing.B, benchName string, mode Mode, interp bool) {
	bench := benchmarks.ByName(benchName)
	prog, err := bench.Program()
	if err != nil {
		b.Fatal(err)
	}
	scale := benchmarks.Scale{Records: 100}
	cfg := Config{
		Program:        prog,
		Mix:            bench.Mix,
		Scale:          scale,
		Rows:           bench.Rows(scale),
		Topology:       USCluster,
		Clients:        25,
		Duration:       time.Hour, // unused: the run stops at Ops
		Warmup:         100 * time.Millisecond,
		Seed:           3,
		Mode:           mode,
		UseInterpreter: interp,
		Ops:            int64(b.N),
	}
	if mode == ModeATSC {
		cfg.SerializableTxns = map[string]bool{}
		for i, txn := range prog.Txns {
			if i%2 == 0 {
				cfg.SerializableTxns[txn.Name] = true
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	res, err := Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if res.Committed != int64(b.N) {
		b.Fatalf("committed %d txns, want %d", res.Committed, b.N)
	}
}

func BenchmarkSimEC_SmallBank(b *testing.B)   { benchSim(b, "SmallBank", ModeEC, false) }
func BenchmarkSimSC_SmallBank(b *testing.B)   { benchSim(b, "SmallBank", ModeSC, false) }
func BenchmarkSimATSC_SmallBank(b *testing.B) { benchSim(b, "SmallBank", ModeATSC, false) }
func BenchmarkSimEC_SEATS(b *testing.B)       { benchSim(b, "SEATS", ModeEC, false) }
func BenchmarkSimSC_SEATS(b *testing.B)       { benchSim(b, "SEATS", ModeSC, false) }
func BenchmarkSimATSC_SEATS(b *testing.B)     { benchSim(b, "SEATS", ModeATSC, false) }
func BenchmarkSimEC_TPCC(b *testing.B)        { benchSim(b, "TPC-C", ModeEC, false) }
func BenchmarkSimSC_TPCC(b *testing.B)        { benchSim(b, "TPC-C", ModeSC, false) }
func BenchmarkSimATSC_TPCC(b *testing.B)      { benchSim(b, "TPC-C", ModeATSC, false) }

// The AST-oracle baselines (the pre-compilation executor).
func BenchmarkSimInterpEC_SmallBank(b *testing.B) { benchSim(b, "SmallBank", ModeEC, true) }
func BenchmarkSimInterpSC_SmallBank(b *testing.B) { benchSim(b, "SmallBank", ModeSC, true) }
func BenchmarkSimInterpEC_TPCC(b *testing.B)      { benchSim(b, "TPC-C", ModeEC, true) }
