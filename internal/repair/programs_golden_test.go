package repair

import (
	"context"
	"testing"

	"atropos/internal/anomaly"
	"atropos/internal/ast"
	"atropos/internal/corpus"
)

// TestRepairedProgramGolden checks ast.HashProgram of every repaired
// program — the corpus's programs under EC, CC and RR — against the
// program column of the golden table (internal/corpus/testdata/cells.tsv).
// The hash covers every schema and every transaction body, so a
// refactoring step that starts sharing (or copying) the wrong node, or a
// detector change that repairs a pair differently, names its cell here.
func TestRepairedProgramGolden(t *testing.T) {
	golden, err := corpus.Golden()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range corpus.Programs(corpus.Seeds) {
		for _, m := range []anomaly.Model{anomaly.EC, anomaly.CC, anomaly.RR} {
			cell := p.Name + "/" + m.String()
			res, err := Run(context.Background(), p.Prog, m)
			if err != nil {
				t.Fatalf("%s: %v", cell, err)
			}
			if got, want := ast.HashProgram(res.Program), golden[cell].Uint("program"); got != want {
				t.Errorf("%s: repaired program hash %#016x, golden %#016x", cell, got, want)
			}
		}
	}
}
