package repair

import (
	"fmt"
	"math/rand"
	"testing"

	"atropos/internal/anomaly"
	"atropos/internal/ast"
	"atropos/internal/benchmarks"
	"atropos/internal/cluster"
	"atropos/internal/refactor"
	"atropos/internal/store"
)

// TestRefinementUnderSerialWorkloads is the dynamic counterpart of the
// paper's soundness theorem (Theorem 4.2): for every serializable history
// of the original program there is a corresponding history of the
// refactored program whose final state contains the original's (Σ ⊑_V Σ′)
// and whose transactions return the same values. We validate this over
// randomized serial workloads of every benchmark, run on the simulator's
// executor. Two benchmarks are known gaps (ROADMAP item 2), pinned by the
// first failure they produce: the subtest fails if one starts passing or
// fails differently.
func TestRefinementUnderSerialWorkloads(t *testing.T) {
	knownGap := map[string]string{
		"TPC-C":     "seed 0: call 55 (orderStatus): original returned 0, refactored -1020",
		"Wikipedia": "seed 0: containment violated: refactor: containment: USERACCT[i0].ua_touched: θ(r) has no materialized records but the value is 2",
	}
	for _, b := range benchmarks.All() {
		t.Run(b.Name, func(t *testing.T) {
			got := ""
			if err := checkRefinement(b, 3, 60); err != nil {
				got = err.Error()
			}
			if want := knownGap[b.Name]; got != want {
				t.Fatalf("refinement: %q, want %q", got, want)
			}
		})
	}
}

// checkRefinement returns the first refinement failure of b's repair, nil
// when every workload refines.
func checkRefinement(b *benchmarks.Benchmark, seeds int64, callsPerRun int) error {
	prog, err := b.Program()
	if err != nil {
		return err
	}
	res, err := repairProg(prog, anomaly.EC)
	if err != nil {
		return fmt.Errorf("repair: %w", err)
	}
	scale := benchmarks.Scale{Records: 12}
	rows := b.Rows(scale)
	migrated, err := refactor.Migrate(rows, prog, res.Program, res.Corrs)
	if err != nil {
		return fmt.Errorf("migrate: %w", err)
	}
	origPlan, refPlan := cluster.NewDirectedPlan(prog), cluster.NewDirectedPlan(res.Program)
	for seed := int64(0); seed < seeds; seed++ {
		// Draw one serial workload.
		rng := rand.New(rand.NewSource(seed*1000 + 7))
		var calls []cluster.DirectedTxn
		for i := 0; i < callsPerRun; i++ {
			m := b.PickTxn(rng)
			args := m.Args(rng, scale)
			calls = append(calls, cluster.DirectedTxn{Name: m.Txn, Args: args.Map()})
		}

		// Original program on the original data, refactored program on the
		// migrated data, same serial schedule.
		origState, err := origPlan.Seed(rows)
		if err != nil {
			return err
		}
		origResults, err := origPlan.RunSerial(origState, calls)
		if err != nil {
			return fmt.Errorf("seed %d: original run: %w", seed, err)
		}
		refState, err := refPlan.Seed(migrated)
		if err != nil {
			return err
		}
		refResults, err := refPlan.RunSerial(refState, calls)
		if err != nil {
			return fmt.Errorf("seed %d: refactored run: %w", seed, err)
		}

		// R2: same return values, call by call.
		for i := range calls {
			if !origResults[i].Equal(refResults[i]) {
				return fmt.Errorf("seed %d: call %d (%s): original returned %s, refactored %s",
					seed, i, calls[i].Name, origResults[i], refResults[i])
			}
		}

		// Σ ⊑_V Σ′: the original final state is recoverable from the
		// refactored one through the recorded correspondences.
		if err := refactor.Contains(stateRows(origState, prog), stateRows(refState, res.Program), prog, res.Program, res.Corrs); err != nil {
			return fmt.Errorf("seed %d: containment violated: %w", seed, err)
		}
	}
	return nil
}

// stateRows reads the alive records of a simulator state back as rows.
func stateRows(ms *cluster.MatStore, prog *ast.Program) []store.TableRow {
	var out []store.TableRow
	for _, s := range prog.Schemas {
		for _, k := range ms.Keys(s.Name) {
			if !ms.Alive(s.Name, k) {
				continue
			}
			row := store.Row{}
			for _, f := range s.Fields {
				row[f.Name] = ms.Read(s.Name, k, f.Name)
			}
			out = append(out, store.TableRow{Table: s.Name, Row: row})
		}
	}
	return out
}

// TestMigrationAloneIsContained checks the base case: before any
// transaction runs, the migrated state contains the original state.
func TestMigrationAloneIsContained(t *testing.T) {
	for _, b := range benchmarks.All() {
		t.Run(b.Name, func(t *testing.T) {
			prog, err := b.Program()
			if err != nil {
				t.Fatal(err)
			}
			res, err := repairProg(prog, anomaly.EC)
			if err != nil {
				t.Fatal(err)
			}
			rows := b.Rows(benchmarks.Scale{Records: 8})
			refRows, err := refactor.Migrate(rows, prog, res.Program, res.Corrs)
			if err != nil {
				t.Fatalf("Migrate: %v", err)
			}
			if err := refactor.Contains(rows, refRows, prog, res.Program, res.Corrs); err != nil {
				t.Fatalf("containment after migration: %v", err)
			}
		})
	}
}
