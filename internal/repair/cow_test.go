package repair

import (
	"testing"

	"atropos/internal/anomaly"
	"atropos/internal/ast"
	"atropos/internal/benchmarks"
)

// TestCOWDoesNotMutateInput pins the sharing contract from the caller's
// side: the input program of a repair prints identically before and after,
// and the repaired program of an untouched transaction shares its node
// with the input (path copying, not deep copying).
func TestCOWDoesNotMutateInput(t *testing.T) {
	prog := benchmarks.SEATS.MustProgram()
	before := ast.Format(prog)
	res, err := repairProg(prog, anomaly.EC)
	if err != nil {
		t.Fatal(err)
	}
	if after := ast.Format(prog); after != before {
		t.Fatalf("repair mutated its input program:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	shared := 0
	for _, rt := range res.Program.Txns {
		for _, ot := range prog.Txns {
			if rt == ot {
				shared++
			}
		}
	}
	if shared == 0 {
		t.Error("no transaction node shared between input and repaired program: COW is deep-copying")
	}
}
