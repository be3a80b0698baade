package repair

import (
	"math/rand"
	"testing"

	"atropos/internal/anomaly"
	"atropos/internal/benchmarks"
	"atropos/internal/interp"
	"atropos/internal/refactor"
	"atropos/internal/store"
)

// TestRefinementUnderSerialWorkloads is the dynamic counterpart of the
// paper's soundness theorem (Theorem 4.2): for every serializable history
// of the original program there is a corresponding history of the
// refactored program whose final state contains the original's (Σ ⊑_V Σ′)
// and whose transactions return the same values. We validate this over
// randomized serial workloads on the benchmarks the repair changes most.
func TestRefinementUnderSerialWorkloads(t *testing.T) {
	for _, name := range []string{"Courseware", "SmallBank", "SIBench", "Killrchat", "Twitter"} {
		b := benchmarks.ByName(name)
		t.Run(name, func(t *testing.T) {
			checkRefinement(t, b, 3, 60)
		})
	}
}

func checkRefinement(t *testing.T, b *benchmarks.Benchmark, seeds int64, callsPerRun int) {
	t.Helper()
	prog, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	res, err := repairProg(prog, anomaly.EC)
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	scale := benchmarks.Scale{Records: 12}
	for seed := int64(0); seed < seeds; seed++ {
		// Draw one serial workload.
		rng := rand.New(rand.NewSource(seed*1000 + 7))
		var calls []interp.Call
		for i := 0; i < callsPerRun; i++ {
			m := b.PickTxn(rng)
			calls = append(calls, interp.Call{Txn: m.Txn, Args: m.Args(rng, scale)})
		}

		// Original program, original data.
		origDB := store.NewDB(prog)
		for _, r := range b.Rows(scale) {
			if _, err := origDB.Load(r.Table, r.Row); err != nil {
				t.Fatal(err)
			}
		}
		origResults, err := interp.RunSerial(prog, origDB, calls)
		if err != nil {
			t.Fatalf("seed %d: original run: %v", seed, err)
		}

		// Refactored program, migrated data, same serial schedule.
		freshDB := store.NewDB(prog)
		for _, r := range b.Rows(scale) {
			if _, err := freshDB.Load(r.Table, r.Row); err != nil {
				t.Fatal(err)
			}
		}
		refDB, err := refactor.Migrate(freshDB, prog, res.Program, res.Corrs)
		if err != nil {
			t.Fatalf("seed %d: migrate: %v", seed, err)
		}
		refResults, err := interp.RunSerial(res.Program, refDB, calls)
		if err != nil {
			t.Fatalf("seed %d: refactored run: %v", seed, err)
		}

		// R2: same return values, call by call.
		for i := range calls {
			if !origResults[i].Equal(refResults[i]) {
				t.Fatalf("seed %d: call %d (%s): original returned %s, refactored %s",
					seed, i, calls[i].Txn, origResults[i], refResults[i])
			}
		}

		// Σ ⊑_V Σ′: the original final state is recoverable from the
		// refactored one through the recorded correspondences.
		if err := refactor.Contains(origDB, refDB, prog, res.Program, res.Corrs); err != nil {
			t.Fatalf("seed %d: containment violated: %v", seed, err)
		}
	}
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
			db := store.NewDB(prog)
			for _, r := range b.Rows(benchmarks.Scale{Records: 8}) {
				if _, err := db.Load(r.Table, r.Row); err != nil {
					t.Fatal(err)
				}
			}
			refDB, err := refactor.Migrate(db, prog, res.Program, res.Corrs)
			if err != nil {
				t.Fatalf("Migrate: %v", err)
			}
			if err := refactor.Contains(db, refDB, prog, res.Program, res.Corrs); err != nil {
				t.Fatalf("containment after migration: %v", err)
			}
		})
	}
}
