package benchmarks_test

import (
	"math/rand"
	"testing"

	"atropos/internal/benchmarks"
	"atropos/internal/cluster"
)

// TestWorkloadRunsSerially executes a few hundred mixed transactions of
// each benchmark under serializable semantics, on the simulator's executor
// (an external test: cluster imports this package): every transaction must
// run without errors.
func TestWorkloadRunsSerially(t *testing.T) {
	for _, b := range benchmarks.All() {
		t.Run(b.Name, func(t *testing.T) {
			p, err := b.Program()
			if err != nil {
				t.Fatal(err)
			}
			scale := benchmarks.Scale{Records: 30}
			plan := cluster.NewDirectedPlan(p)
			state, err := plan.Seed(b.Rows(scale))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(42))
			calls := make([]cluster.DirectedTxn, 200)
			for i := range calls {
				m := b.PickTxn(rng)
				calls[i] = cluster.DirectedTxn{Name: m.Txn, Args: m.Args(rng, scale)}
			}
			if _, err := plan.RunSerial(state, calls); err != nil {
				t.Fatal(err)
			}
		})
	}
}
