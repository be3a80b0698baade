package exp

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"atropos/internal/benchmarks"
	"atropos/internal/cluster"
)

// withProcs runs fn under GOMAXPROCS n, which sizes every driver's worker
// pool, and restores the old setting. GOMAXPROCS is process-wide, so its
// callers must not be t.Parallel.
func withProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// TestTable1ParallelMatchesSequential pins the tentpole property: the
// parallel pool produces the same table as the sequential path. Run with
// -race this also exercises the concurrent detector/repair paths.
func TestTable1ParallelMatchesSequential(t *testing.T) {
	corpus := []*benchmarks.Benchmark{benchmarks.SIBench, benchmarks.Courseware, benchmarks.Twitter, benchmarks.Killrchat}
	var seq, par []Table1Row
	var serr, perr error
	withProcs(1, func() { seq, serr = Table1(corpus) })
	withProcs(4, func() { par, perr = Table1(corpus) })
	if serr != nil || perr != nil {
		t.Fatalf("sequential: %v; parallel: %v", serr, perr)
	}
	for i := range seq {
		a, b := seq[i], par[i]
		a.Time, b.Time = 0, 0
		if a != b {
			t.Errorf("row %d differs:\n seq %+v\n par %+v", i, a, b)
		}
	}
}

// TestTable1ErrorPropagation: a benchmark whose program fails to load must
// fail the whole run deterministically, parallel or not.
func TestTable1ErrorPropagation(t *testing.T) {
	bad := &benchmarks.Benchmark{Name: "Broken", Source: "table T {"}
	for _, procs := range []int{1, 4} {
		var err error
		withProcs(procs, func() { _, err = Table1([]*benchmarks.Benchmark{benchmarks.SIBench, bad}) })
		if err == nil {
			t.Errorf("GOMAXPROCS=%d: no error for broken benchmark", procs)
		}
	}
}

// TestPerfParallelMatchesSequential: every deployment simulation owns its
// RNG and metrics, so a parallel panel equals the sequential one exactly.
func TestPerfParallelMatchesSequential(t *testing.T) {
	cfg := PerfConfig{
		Benchmark:    benchmarks.SIBench,
		Topology:     cluster.VACluster,
		ClientCounts: []int{8, 16},
		Duration:     1 * time.Second,
		Warmup:       100 * time.Millisecond,
		Scale:        benchmarks.Scale{Records: 20},
		Seed:         11,
	}
	var seq, par *PerfResult
	var serr, perr error
	withProcs(1, func() { seq, serr = Perf(cfg) })
	withProcs(4, func() { par, perr = Perf(cfg) })
	if serr != nil || perr != nil {
		t.Fatalf("sequential: %v; parallel: %v", serr, perr)
	}
	// SimWall is wall-clock and legitimately differs between runs; every
	// simulated measurement must be identical.
	seq.SimWall, par.SimWall = 0, 0
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("panel differs:\n seq %+v\n par %+v", seq, par)
	}
}
