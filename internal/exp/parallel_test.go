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

// TestBaselineSnapshot exercises the regression harness end to end on a
// small simulated duration and sanity-checks the recorded fields.
func TestBaselineSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus harness; skipped with -short")
	}
	b, err := RunBaseline(BaselineConfig{Duration: 300 * time.Millisecond, Clients: 12, Seed: 7})
	if err != nil {
		t.Fatalf("RunBaseline: %v", err)
	}
	if len(b.Repairs) != 9 {
		t.Fatalf("repairs = %d, want 9", len(b.Repairs))
	}
	for _, r := range b.Repairs {
		if r.WallMs <= 0 {
			t.Errorf("%s: wall time %.3fms not recorded", r.Benchmark, r.WallMs)
		}
		if r.Remaining > r.Initial {
			t.Errorf("%s: repair added anomalies: %d -> %d", r.Benchmark, r.Initial, r.Remaining)
		}
	}
	if b.Table1.SequentialMs <= 0 || b.Table1.ParallelMs <= 0 || b.Table1.SpeedupX <= 0 {
		t.Errorf("table1 timings missing: %+v", b.Table1)
	}
	if b.PanelDurationMs != 300 {
		t.Errorf("panel duration = %.0fms, want 300", b.PanelDurationMs)
	}
	if len(b.Panels) != 3 {
		t.Fatalf("panels = %d, want 3", len(b.Panels))
	}
	for _, p := range b.Panels {
		if p.WallMs <= 0 {
			t.Errorf("%s: panel wall time %.3fms not recorded", p.Benchmark, p.WallMs)
		}
		if len(p.Series) != 4 {
			t.Fatalf("%s: series = %d, want 4", p.Benchmark, len(p.Series))
		}
		for _, s := range p.Series {
			if s.Throughput <= 0 {
				t.Errorf("%s/%s: zero throughput", p.Benchmark, s.Series)
			}
		}
	}
	buf, err := b.JSON()
	if err != nil || len(buf) == 0 {
		t.Fatalf("JSON: %v", err)
	}
}
