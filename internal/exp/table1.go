// Package exp implements the experiment harness: one entry point per table
// and figure of the paper's evaluation (§7, Appendix A), each returning the
// data series the paper plots and a formatter producing the corresponding
// rows. DESIGN.md §5 maps every experiment to these functions.
//
// The drivers are parallel: Table1 fans its benchmark × consistency-model
// grid out on a bounded worker pool, and Perf runs the independent
// deployment simulations of a panel concurrently. Every pool has
// GOMAXPROCS workers; results are identical to the sequential runs
// (GOMAXPROCS=1) because every unit of work owns its state (see
// DESIGN.md §6).
package exp

import (
	"context"
	"fmt"
	"strings"
	"time"

	"atropos/internal/anomaly"
	"atropos/internal/benchmarks"
	"atropos/internal/pool"
	"atropos/internal/repair"
)

// Table1Row is one row of Table 1.
type Table1Row struct {
	Benchmark  string
	Txns       int
	TablesOrig int
	TablesRef  int
	EC         int // anomalous access pairs under eventual consistency
	AT         int // remaining after Atropos repair
	CC         int // under causal consistency
	RR         int // under repeatable read
	Time       time.Duration
}

// table1Parts is the per-benchmark work grid: the EC analyze+repair
// pipeline plus one detector pass per weaker model column.
const table1Parts = 3

// Table1 reproduces Table 1: statically identified anomalous access pairs
// in the original and refactored programs, per consistency model, plus
// analysis+repair time. The benchmark × model grid runs on a worker pool
// of GOMAXPROCS goroutines. Each row's Time column is the total CPU work
// spent on that benchmark — the sum of its parts — so it is comparable
// across GOMAXPROCS settings.
func Table1(benches []*benchmarks.Benchmark) ([]Table1Row, error) {
	rows := make([]Table1Row, len(benches))
	durs := make([][table1Parts]time.Duration, len(benches))
	err := pool.ForEach(len(benches)*table1Parts, func(i int) error {
		bi, part := i/table1Parts, i%table1Parts
		b := benches[bi]
		prog, err := b.Program()
		if err != nil {
			return err
		}
		start := time.Now()
		switch part {
		case 0: // EC detection + repair (EC, AT, and the shape columns)
			res, err := repair.Run(context.Background(), prog, anomaly.EC)
			if err != nil {
				return fmt.Errorf("table1: %s: %w", b.Name, err)
			}
			rows[bi].Benchmark = b.Name
			rows[bi].Txns = len(prog.Txns)
			rows[bi].TablesOrig = len(prog.Schemas)
			rows[bi].TablesRef = len(res.Program.Schemas)
			rows[bi].EC = len(res.Initial)
			rows[bi].AT = len(res.Remaining)
		case 1: // causal consistency column
			cc, err := anomaly.NewSession(anomaly.CC).Detect(prog)
			if err != nil {
				return fmt.Errorf("table1: %s: CC: %w", b.Name, err)
			}
			rows[bi].CC = cc.Count()
		case 2: // repeatable read column
			rr, err := anomaly.NewSession(anomaly.RR).Detect(prog)
			if err != nil {
				return fmt.Errorf("table1: %s: RR: %w", b.Name, err)
			}
			rows[bi].RR = rr.Count()
		}
		durs[bi][part] = time.Since(start)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range rows {
		for _, d := range durs[i] {
			rows[i].Time += d
		}
	}
	return rows, nil
}

// FormatTable1 renders rows in the paper's layout.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %6s %8s %5s %5s %5s %5s %9s\n",
		"Benchmark", "#Txns", "#Tables", "EC", "AT", "CC", "RR", "Time(s)")
	totalEC, totalAT := 0, 0
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %6d %4d,%3d %5d %5d %5d %5d %9.1f\n",
			r.Benchmark, r.Txns, r.TablesOrig, r.TablesRef, r.EC, r.AT, r.CC, r.RR, r.Time.Seconds())
		totalEC += r.EC
		totalAT += r.AT
	}
	if totalEC > 0 {
		fmt.Fprintf(&b, "repaired: %d/%d anomalous access pairs (%.0f%%)\n",
			totalEC-totalAT, totalEC, 100*float64(totalEC-totalAT)/float64(totalEC))
	}
	return b.String()
}
