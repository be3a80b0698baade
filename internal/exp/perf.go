package exp

import (
	"context"
	"fmt"
	"strings"
	"time"

	"atropos/internal/anomaly"
	"atropos/internal/ast"
	"atropos/internal/benchmarks"
	"atropos/internal/cluster"
	"atropos/internal/metrics"
	"atropos/internal/pool"
	"atropos/internal/refactor"
	"atropos/internal/repair"
	"atropos/internal/store"
)

// PerfConfig drives one Fig. 12/13/14/15 panel: one benchmark on one
// topology across a range of client counts, measuring the four deployments
// (EC, AT-EC, SC, AT-SC).
type PerfConfig struct {
	Benchmark    *benchmarks.Benchmark
	Topology     cluster.Topology
	ClientCounts []int
	Duration     time.Duration // per point; the paper uses 90 s
	Warmup       time.Duration
	// Ops, when positive, makes every deployment point ops-bounded: each
	// run stops after Ops measured commits instead of at Duration
	// (machine-independent sizing for benchmarks and CI).
	Ops   int64
	Scale benchmarks.Scale
	Seed  int64
}

// PerfResult bundles the four measured curves of one panel.
type PerfResult struct {
	Benchmark string
	Topology  string
	// Series order: EC, AT-EC, SC, AT-SC (the paper's legend).
	Series []metrics.Series
	// Committed is the total number of transactions simulated across the
	// panel's runs, and SimWall the wall-clock time those simulations took
	// (excluding the repair pipeline and row migration) — their ratio is
	// the simulator's own throughput.
	Committed int64
	SimWall   time.Duration
}

// Perf runs one panel. The AT variants run the repaired program on an
// initial state produced by the schema migration; AT-SC serializes exactly
// the transactions the repair left anomalous.
func Perf(cfg PerfConfig) (*PerfResult, error) {
	b := cfg.Benchmark
	prog, err := b.Program()
	if err != nil {
		return nil, err
	}
	if cfg.Duration == 0 {
		cfg.Duration = 90 * time.Second
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = 2 * time.Second
	}
	if len(cfg.ClientCounts) == 0 {
		cfg.ClientCounts = []int{10, 25, 50, 100, 150, 200, 250}
	}
	rep, err := repair.Run(context.Background(), prog, anomaly.EC)
	if err != nil {
		return nil, err
	}
	rows := b.Rows(cfg.Scale)
	atRows, err := refactor.Migrate(rows, prog, rep.Program, rep.Corrs)
	if err != nil {
		return nil, err
	}
	serializable := map[string]bool{}
	for _, t := range rep.SerializableTxns {
		serializable[t] = true
	}
	allSerializable := map[string]bool{}
	for _, t := range prog.Txns {
		allSerializable[t.Name] = true
	}

	variants := []struct {
		label   string
		prog    *ast.Program
		rows    []store.TableRow
		mode    cluster.Mode
		serTxns map[string]bool
	}{
		{"EC", prog, rows, cluster.ModeEC, nil},
		{"AT-EC", rep.Program, atRows, cluster.ModeEC, nil},
		{"SC", prog, rows, cluster.ModeSC, allSerializable},
		{"AT-SC", rep.Program, atRows, cluster.ModeATSC, serializable},
	}
	// Every (variant, client count) deployment run is independent — each
	// owns its replicas, RNG, and latency reservoir — so the whole panel
	// fans out on one bounded worker pool. Runs are deterministic given
	// their seed, so the points are identical to a sequential sweep.
	nc := len(cfg.ClientCounts)
	points := make([][]metrics.Point, len(variants))
	for i := range points {
		points[i] = make([]metrics.Point, nc)
	}
	committed := make([]int64, len(variants)*nc)
	simStart := time.Now()
	err = pool.ForEach(len(variants)*nc, func(i int) error {
		v, clients := variants[i/nc], cfg.ClientCounts[i%nc]
		run, err := cluster.Run(cluster.Config{
			Program:          v.prog,
			Mix:              b.Mix,
			Scale:            cfg.Scale,
			Rows:             v.rows,
			Topology:         cfg.Topology,
			Clients:          clients,
			Duration:         cfg.Duration,
			Warmup:           cfg.Warmup,
			Ops:              cfg.Ops,
			Seed:             cfg.Seed + int64(clients),
			Mode:             v.mode,
			SerializableTxns: v.serTxns,
		})
		if err != nil {
			return fmt.Errorf("perf: %s %s %d clients: %w", b.Name, v.label, clients, err)
		}
		points[i/nc][i%nc] = run.Point
		committed[i] = run.Committed
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &PerfResult{Benchmark: b.Name, Topology: cfg.Topology.Name, SimWall: time.Since(simStart)}
	for _, c := range committed {
		out.Committed += c
	}
	for i, v := range variants {
		out.Series = append(out.Series, metrics.Series{Label: v.label, Points: points[i]})
	}
	return out, nil
}

// Format renders the panel: throughput and latency per series, matching
// the two stacked plots of each figure.
func (r *PerfResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s on %s cluster ===\n", r.Benchmark, r.Topology)
	for _, s := range r.Series {
		b.WriteString(s.Format())
	}
	return b.String()
}
