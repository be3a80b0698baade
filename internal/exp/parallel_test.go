package exp

import (
	"reflect"
	"testing"
	"time"

	"atropos/internal/benchmarks"
	"atropos/internal/cluster"
)

// TestTable1ParallelMatchesSequential pins the tentpole property: the
// parallel engine produces the same table as the sequential path. Run with
// -race this also exercises the concurrent detector/repair paths.
func TestTable1ParallelMatchesSequential(t *testing.T) {
	corpus := []*benchmarks.Benchmark{benchmarks.SIBench, benchmarks.Courseware, benchmarks.Twitter, benchmarks.Killrchat}
	seq, err := Table1(corpus, WithParallelism(1))
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	par, err := Table1(corpus, WithParallelism(4))
	if err != nil {
		t.Fatalf("parallel: %v", err)
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
	for _, par := range []int{1, 4} {
		_, err := Table1([]*benchmarks.Benchmark{benchmarks.SIBench, bad}, WithParallelism(par))
		if err == nil {
			t.Errorf("parallelism %d: no error for broken benchmark", par)
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
	cfg.Parallelism = 1
	seq, err := Perf(cfg)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	cfg.Parallelism = 8
	par, err := Perf(cfg)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	// SimWall is wall-clock and legitimately differs between runs; every
	// simulated measurement must be identical.
	seq.SimWall, par.SimWall = 0, 0
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("panel differs:\n seq %+v\n par %+v", seq, par)
	}
}
