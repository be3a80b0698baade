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
	"atropos/internal/pool"
	"atropos/internal/repair"
	"atropos/internal/replay"
)

// The chaos harness (ROADMAP item 3): every benchmark runs under a panel
// of named deterministic fault scenarios (cluster.ChaosScenarios) in
// three deployments — EC (the unrepaired program on weak consistency),
// SC (the unrepaired program fully serialized, the control), and AT-SC
// (the repaired program, with only the repair's residual transactions
// serialized). Each run records per-command observations and
// replay.Violations counts the transaction instances sitting on an
// anomalous dependency cycle. The headline the chaos gate asserts:
// unrepaired EC programs exhibit violations under faults, repaired
// deployments exhibit zero on their repaired (EC-running) transactions.
// All counts are virtual-time deterministic, so the baseline's chaos
// section is drift-gated like every other count column.

// ChaosConfig sizes one chaos sweep.
type ChaosConfig struct {
	// Benchmarks to sweep; nil means all nine.
	Benchmarks []*benchmarks.Benchmark
	// Scenarios filters the panel by name; nil means the full panel.
	Scenarios []string
	// Clients is the load of each run (default 12).
	Clients int
	// Duration is measured virtual time per run (default 1.2s); Warmup
	// defaults to Duration/8.
	Duration time.Duration
	Warmup   time.Duration
	// Seed fixes the workloads (fault plans carry their own seeds).
	Seed int64
	// Parallelism bounds concurrent runs; <= 0 selects GOMAXPROCS.
	Parallelism int
}

// ChaosRow is one (benchmark, scenario, deployment) measurement. For the
// AT-SC series Violations counts only instances of repaired transactions
// (the ones the repair moved to EC — the guarantee under test), while
// Residual counts instances of the transactions the repair left
// serialized; for EC and SC every instance counts toward Violations.
type ChaosRow struct {
	Benchmark  string `json:"benchmark"`
	Scenario   string `json:"scenario"`
	Series     string `json:"series"`
	Committed  int64  `json:"committed"`
	Violations int    `json:"violations"`
	Residual   int    `json:"residual_violations,omitempty"`
}

// ChaosResult is one sweep's outcome.
type ChaosResult struct {
	Clients    int           `json:"clients"`
	DurationMs float64       `json:"duration_ms"`
	Rows       []ChaosRow    `json:"rows"`
	Wall       time.Duration `json:"-"`
}

func (c ChaosConfig) orDefault() ChaosConfig {
	if len(c.Benchmarks) == 0 {
		c.Benchmarks = benchmarks.All()
	}
	if c.Clients == 0 {
		c.Clients = 12
	}
	if c.Duration == 0 {
		c.Duration = 1200 * time.Millisecond
	}
	if c.Warmup == 0 {
		c.Warmup = c.Duration / 8
	}
	return c
}

// chaosVariant is one deployment of one benchmark's sweep.
type chaosVariant struct {
	label   string
	prog    *ast.Program
	rows    []benchmarks.TableRow
	mode    cluster.Mode
	serTxns map[string]bool
	// repairedOnly scopes the violation count to instances of
	// transactions outside serTxns (the AT-SC guarantee).
	repairedOnly bool
}

// RunChaos executes the sweep. Every run is independent and deterministic
// (virtual time, fixed seeds), so the grid fans out on a bounded pool and
// the counts are machine-independent.
func RunChaos(cfg ChaosConfig) (*ChaosResult, error) {
	cfg = cfg.orDefault()
	start := time.Now()
	horizon := (cfg.Warmup + cfg.Duration).Microseconds()
	scenarios := cluster.ChaosScenarios(horizon)
	if len(cfg.Scenarios) > 0 {
		keep := map[string]bool{}
		for _, s := range cfg.Scenarios {
			keep[s] = true
		}
		var filtered []cluster.Scenario
		for _, s := range scenarios {
			if keep[s.Name] {
				filtered = append(filtered, s)
			}
		}
		scenarios = filtered
	}
	scale := benchmarks.Scale{Records: 30}

	// Per-benchmark setup: repair once, migrate rows once.
	variants := make([][]chaosVariant, len(cfg.Benchmarks))
	for bi, b := range cfg.Benchmarks {
		prog, err := b.Program()
		if err != nil {
			return nil, err
		}
		rep, err := repair.Run(context.Background(), prog, anomaly.EC)
		if err != nil {
			return nil, err
		}
		rows := b.Rows(scale)
		atRows, err := MigrateRows(prog, rep.Program, rep.Corrs, rows)
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
		variants[bi] = []chaosVariant{
			{label: "EC", prog: prog, rows: rows, mode: cluster.ModeEC},
			{label: "SC", prog: prog, rows: rows, mode: cluster.ModeSC, serTxns: allSerializable},
			{label: "AT-SC", prog: rep.Program, rows: atRows, mode: cluster.ModeATSC,
				serTxns: serializable, repairedOnly: true},
		}
	}

	nv, ns := 3, len(scenarios)
	rows := make([]ChaosRow, len(cfg.Benchmarks)*ns*nv)
	err := pool.ForEach(pool.Workers(cfg.Parallelism), len(rows), func(i int) error {
		bi, rest := i/(ns*nv), i%(ns*nv)
		si, vi := rest/nv, rest%nv
		b, sc, v := cfg.Benchmarks[bi], scenarios[si], variants[bi][vi]
		var obs cluster.Observation
		res, err := cluster.Run(cluster.Config{
			Program:          v.prog,
			Mix:              b.Mix,
			Scale:            scale,
			Rows:             v.rows,
			Topology:         cluster.USCluster,
			Clients:          cfg.Clients,
			Duration:         cfg.Duration,
			Warmup:           cfg.Warmup,
			Seed:             cfg.Seed + int64(bi+1)*1000 + int64(si+1)*10,
			Mode:             v.mode,
			SerializableTxns: v.serTxns,
			Faults:           sc.Plan,
			Observe:          &obs,
		})
		if err != nil {
			return fmt.Errorf("chaos: %s/%s/%s: %w", b.Name, sc.Name, v.label, err)
		}
		row := ChaosRow{Benchmark: b.Name, Scenario: sc.Name, Series: v.label, Committed: res.Committed}
		for _, inst := range replay.Violations(obs.Obs) {
			if v.repairedOnly && v.serTxns[obs.Txns[inst]] {
				row.Residual++
			} else {
				row.Violations++
			}
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &ChaosResult{
		Clients:    cfg.Clients,
		DurationMs: ms(cfg.Duration),
		Rows:       rows,
		Wall:       time.Since(start),
	}, nil
}

// ChaosGate checks the sweep's headline claims, returning one message per
// failure (empty means the gate passes): every AT-SC row shows zero
// violations on repaired transactions, every SC control row shows zero,
// and at least one EC row under an actual fault scenario shows a
// violation (so the panel is not vacuously quiet).
func ChaosGate(rows []ChaosRow) []string {
	var fails []string
	faultedEC := 0
	for _, r := range rows {
		switch r.Series {
		case "AT-SC":
			if r.Violations > 0 {
				fails = append(fails, fmt.Sprintf(
					"%s/%s: repaired program shows %d violation(s) on repaired transactions",
					r.Benchmark, r.Scenario, r.Violations))
			}
		case "SC":
			if r.Violations > 0 {
				fails = append(fails, fmt.Sprintf(
					"%s/%s: serializable control shows %d violation(s)",
					r.Benchmark, r.Scenario, r.Violations))
			}
		case "EC":
			if r.Scenario != "clean" && r.Violations > 0 {
				faultedEC++
			}
		}
	}
	if faultedEC == 0 {
		fails = append(fails, "no unrepaired benchmark showed violations under the fault panel")
	}
	return fails
}

// Format renders the sweep as a violations table, one benchmark block per
// scenario column set (the EXPERIMENTS.md chaos table).
func (r *ChaosResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== chaos panel (%d clients, %.0f ms virtual per run) ===\n", r.Clients, r.DurationMs)
	scenarios := []string{}
	seen := map[string]bool{}
	for _, row := range r.Rows {
		if !seen[row.Scenario] {
			seen[row.Scenario] = true
			scenarios = append(scenarios, row.Scenario)
		}
	}
	byKey := map[string]ChaosRow{}
	benchOrder := []string{}
	seenB := map[string]bool{}
	for _, row := range r.Rows {
		byKey[row.Benchmark+"/"+row.Scenario+"/"+row.Series] = row
		if !seenB[row.Benchmark] {
			seenB[row.Benchmark] = true
			benchOrder = append(benchOrder, row.Benchmark)
		}
	}
	fmt.Fprintf(&b, "%-12s %-8s", "benchmark", "series")
	for _, s := range scenarios {
		fmt.Fprintf(&b, " %16s", s)
	}
	b.WriteString("\n")
	for _, bench := range benchOrder {
		for _, series := range []string{"EC", "SC", "AT-SC"} {
			fmt.Fprintf(&b, "%-12s %-8s", bench, series)
			for _, s := range scenarios {
				row, ok := byKey[bench+"/"+s+"/"+series]
				if !ok {
					fmt.Fprintf(&b, " %16s", "-")
					continue
				}
				cell := fmt.Sprintf("%d", row.Violations)
				if row.Residual > 0 {
					cell += fmt.Sprintf("(+%dr)", row.Residual)
				}
				cell += fmt.Sprintf("/%d", row.Committed)
				fmt.Fprintf(&b, " %16s", cell)
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}
