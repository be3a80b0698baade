package cluster

import (
	"testing"
	"time"

	"atropos/internal/benchmarks"
	"atropos/internal/parser"
	"atropos/internal/store"
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
		useInterpreter: interp,
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

// The two layers under the panel that a directory and a lock table decide,
// each alone (BENCH_allocs.json gates their allocations with the runs
// above).

const layerSrc = `
table T { id: int key, a: int, b: int, c: int, d: int, e: int, f: int, g: int, h: int, s: string, }
`

// BenchmarkSimApplyInsert: one new 10-field row per op, its key interned
// once and the batch applied at three replicas — what an EC insert and its
// two replication deliveries cost the stores. Keys arrive interleaved, like
// TPC-C's uuid-derived order ids.
func BenchmarkSimApplyInsert(b *testing.B) {
	prog, err := parser.Parse(layerSrc)
	if err != nil {
		b.Fatal(err)
	}
	base := newMatStore(compileLayout(prog))
	replicas := [3]*MatStore{base, base.Clone(), base.Clone()}
	tid, ct := base.cp.table("T")
	ws := make([]cwrite, 0, ct.nf)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := int64(uint32(i) * 2654435761) // a bijection on 32 bits: distinct, unordered
		slot := base.tabs[tid].dir.intern(store.MakeKey(store.IntV(id)))
		ws = ws[:0]
		for fid := int32(0); fid < ct.nf; fid++ {
			v := store.IntV(id)
			switch fid {
			case ct.alive:
				v = store.BoolV(true)
			case ct.fieldID["s"]:
				v = store.StringV("s")
			}
			ws = append(ws, cwrite{tid: tid, fid: fid, slot: slot, val: v})
		}
		for _, ms := range replicas {
			ms.applyC(ws, int64(i+1))
		}
	}
}

// BenchmarkSimLockCycle: one statement's lock traffic per op — acquire a
// 64-record footprint nobody else holds, release it — over a window that
// moves through 1 024 records.
func BenchmarkSimLockCycle(b *testing.B) {
	const records, footprint = 1024, 64
	d := &driver{locks: make([][]lockState, 1)}
	t := &lockCore{d: d}
	want := make([]lockKey, footprint)
	ran := 0
	cont := func() { ran++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range want {
			want[j] = lockKey{0, int32((i*footprint + j) % records)}
		}
		t.acquire(want, cont)
		t.release()
	}
	if ran != b.N {
		b.Fatalf("%d of %d acquisitions ran", ran, b.N)
	}
}
