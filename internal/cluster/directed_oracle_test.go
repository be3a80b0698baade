package cluster_test

import (
	"context"
	"testing"

	"atropos/internal/anomaly"
	"atropos/internal/ast"
	"atropos/internal/cluster"
	"atropos/internal/corpus"
	"atropos/internal/replay"
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
		replay.CertifyRepairContext(context.Background(), prog, nil, rep, nil)
	}
	models := []anomaly.Model{anomaly.EC, anomaly.CC, anomaly.RR}
	if testing.Short() {
		models = models[:1]
	}
	for _, b := range corpus.Benchmarks() {
		for _, model := range models {
			certify(b.Prog, model)
		}
	}
	for _, p := range corpus.Progen(1, 97) {
		certify(p.Prog, anomaly.EC)
	}
	views, bases := finish()
	if views < 10000 || bases < 1000 {
		t.Errorf("oracle saw %d views over %d bases: the corpus did not run", views, bases)
	}
	t.Logf("%d views over %d bases", views, bases)
}
