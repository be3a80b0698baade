package cluster_test

import (
	"testing"

	"atropos/internal/anomaly"
	"atropos/internal/ast"
	"atropos/internal/benchmarks"
	"atropos/internal/cluster"
	"atropos/internal/progen"
	"atropos/internal/replay"
	"atropos/internal/sema"
)

// TestDirectedViewsMatchCloneOracle certifies the whole replay corpus — the
// nine benchmarks under every weak model, the service benchmark's 96 progen
// programs under EC, positive ladders and serial controls alike — with the
// clone-built view oracle on every executed command of every run, and with
// every seeded base checked for writes afterwards.
func TestDirectedViewsMatchCloneOracle(t *testing.T) {
	finish := cluster.OracleDirectedViews(t.Errorf)
	certify := func(prog *ast.Program, model anomaly.Model) {
		rep, err := anomaly.NewSession(model).Detect(prog)
		if err != nil {
			t.Fatal(err)
		}
		replay.CertifyRepair(prog, nil, rep, nil)
	}
	models := []anomaly.Model{anomaly.EC, anomaly.CC, anomaly.RR}
	if testing.Short() {
		models = models[:1]
	}
	for _, b := range benchmarks.All() {
		for _, model := range models {
			certify(program(t, b), model)
		}
	}
	for seed := int64(1); seed <= 96; seed++ {
		prog, err := sema.Load(ast.Format(progen.Program(seed)))
		if err != nil {
			t.Fatal(err)
		}
		certify(prog, anomaly.EC)
	}
	views, bases := finish()
	if views < 10000 || bases < 1000 {
		t.Errorf("oracle saw %d views over %d bases: the corpus did not run", views, bases)
	}
	t.Logf("%d views over %d bases", views, bases)
}
