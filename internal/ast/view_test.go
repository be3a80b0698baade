package ast_test

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"atropos/internal/ast"
	"atropos/internal/parser"
	"atropos/internal/progen"
	"atropos/internal/sema"
)

// viewSeed numbers the programs TestViewsFirstAskConcurrent parses; their
// tables are renamed after it, so that each run (-count) parses
// declarations no earlier one did and every node is new, its views not yet
// built.
var viewSeed atomic.Int64

// askViews asks every view of every node of prog and renders the answers.
func askViews(prog *ast.Program) string {
	out := fmt.Sprint(ast.HashProgram(prog), sema.Check(prog))
	for _, s := range prog.Schemas {
		out += fmt.Sprint(ast.HashSchema(s), len(s.PrimaryKey()), len(s.NonKeyFields()), s.Accepted())
	}
	for _, t := range prog.Txns {
		for _, c := range t.Commands() {
			schema := prog.Schema(c.TableName())
			eqs, ok := ast.CommandEqualities(c)
			pins, wf := ast.CommandWellFormed(c, schema)
			found := true
			if s, isSel := c.(*ast.Select); isSel {
				found = ast.FindSelect(t, s.Var) != nil
			}
			out += fmt.Sprint(ast.FindCommand(t, c.CmdLabel()) == c, found, eqs, ok, pins, wf,
				ast.CommandWhereFields(c), ast.CommandAccess(c, schema))
		}
	}
	return out
}

// TestViewsFirstAskConcurrent: goroutines sharing one newly parsed program
// make the first ask of every view at once and all get the same answers.
// Run with -race, it guards that a view is published atomically.
func TestViewsFirstAskConcurrent(t *testing.T) {
	for range 8 {
		seed := 1_000_000_000 + viewSeed.Add(1)
		src := strings.ReplaceAll(ast.Format(progen.Program(seed)), "TBL", fmt.Sprintf("T%d_", seed))
		prog, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		const asks = 4
		got := make([]string, asks)
		var wg sync.WaitGroup
		for i := range asks {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = askViews(prog)
			}()
		}
		wg.Wait()
		for i := 1; i < asks; i++ {
			if got[i] != got[0] {
				t.Fatalf("seed %d: goroutine %d saw\n%s\nwhere goroutine 0 saw\n%s", seed, i, got[i], got[0])
			}
		}
	}
}
