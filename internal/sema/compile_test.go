package sema_test

import (
	"context"
	"testing"

	"atropos/internal/anomaly"
	"atropos/internal/ast"
	"atropos/internal/cluster"
	"atropos/internal/corpus"
	"atropos/internal/repair"
	"atropos/internal/sema"
)

// TestAcceptedProgramsCompile: the nine benchmarks, progen 0–999 and the
// EC repair of each pass Check, and the simulator's compiler takes every
// one, so a program the front end accepts can be simulated and its
// anomalies replayed.
func TestAcceptedProgramsCompile(t *testing.T) {
	seeds := int64(1000)
	if testing.Short() {
		seeds = 100
	}
	for _, p := range corpus.Programs(seeds) {
		res, err := repair.Run(context.Background(), p.Prog, anomaly.EC)
		if err != nil {
			t.Fatalf("%s: repair: %v", p.Name, err)
		}
		for _, prog := range []*ast.Program{p.Prog, res.Program} {
			if err := sema.Check(prog); err != nil {
				t.Fatalf("%s: %v\n%s", p.Name, err, ast.Format(prog))
			}
			if _, err := cluster.CompileProgram(prog); err != nil {
				t.Fatalf("%s: accepted by Check, refused by the compiler: %v\n%s", p.Name, err, ast.Format(prog))
			}
		}
	}
}
