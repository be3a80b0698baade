package parser_test

import (
	"testing"

	"atropos/internal/ast"
	"atropos/internal/parser"
	"atropos/internal/progen"
	"atropos/internal/sema"
)

// This file property-tests the parser against the printer: randomly
// generated, well-formed programs must survive Format → Parse with their
// structure intact, and must pass the semantic checker.

// TestRandomProgramRoundTrip: Format(p) reparses to a structurally equal
// program that passes the semantic checker.
func TestRandomProgramRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		p := progen.Program(seed)
		text := ast.Format(p)
		p2, err := parser.Parse(text)
		if err != nil {
			t.Fatalf("seed %d: reparse failed: %v\n%s", seed, err, text)
		}
		if err := sema.Check(p2); err != nil {
			t.Fatalf("seed %d: reparsed program ill-typed: %v\n%s", seed, err, text)
		}
		if len(p2.Txns) != len(p.Txns) || len(p2.Schemas) != len(p.Schemas) {
			t.Fatalf("seed %d: shape mismatch", seed)
		}
		for i := range p.Txns {
			if len(p2.Txns[i].Body) != len(p.Txns[i].Body) {
				t.Fatalf("seed %d: txn %d body length %d != %d\n%s",
					seed, i, len(p2.Txns[i].Body), len(p.Txns[i].Body), text)
			}
			for j := range p.Txns[i].Body {
				if !ast.EqualStmt(p.Txns[i].Body[j], p2.Txns[i].Body[j]) {
					t.Fatalf("seed %d: txn %d stmt %d differs:\n  orig: %s\n  got:  %s",
						seed, i, j, ast.StmtString(p.Txns[i].Body[j]), ast.StmtString(p2.Txns[i].Body[j]))
				}
			}
			if !ast.EqualExpr(p.Txns[i].Ret, p2.Txns[i].Ret) {
				t.Fatalf("seed %d: txn %d return differs", seed, i)
			}
		}
		// Format is a fixpoint after one round trip.
		if ast.Format(p2) != text {
			t.Fatalf("seed %d: Format not idempotent", seed)
		}
	}
}
