package refactor

import (
	"fmt"
	"slices"
	"testing"

	"atropos/internal/ast"
	"atropos/internal/corpus"
)

// These tests pin the rewrites that touch only what they rewrite: ApplyCorr
// shares every transaction with no command on the source table without
// walking it, and DeadSelects collects read variables in one walk. Each is
// checked against the unscoped computation it replaces.

// nestedSource has its only commands on A inside an if, so a scope test
// that looked at top-level statements alone would skip them.
const nestedSource = `
table A { id: int key, n: int, }
table B { id: int key, m: int, }
txn nested(k: int) {
  x := select m from B where id = k;
  if (x.m > 0) {
    y := select n from A where id = k;
    update A set n = y.n + 1 where id = k;
  }
  return x.m;
}
txn flat(k: int) {
  z := select m from B where id = k;
  return z.m;
}
`

// scopeCorpus calls fn on the nine benchmarks, progen 0–95 and
// nestedSource.
func scopeCorpus(t *testing.T, fn func(name string, p *ast.Program)) {
	t.Helper()
	for _, c := range corpus.Programs(96) {
		fn(c.Name, c.Prog)
	}
	fn("nested", mustProg(t, nestedSource))
}

// corrProbes calls fn with every correspondence the repair loop could try
// on p, each on the program that introduces its destination: the logger
// rule for every int field, and the redirect rule for every non-key field
// into every other table whose fields can carry the source's key.
func corrProbes(p *ast.Program, fn func(p *ast.Program, v ValueCorr)) {
	for _, src := range p.Schemas {
		for _, f := range src.NonKeyFields() {
			if lp, v, err := BuildLoggerSchema(p, src.Name, f.Name); err == nil {
				fn(lp, v)
			}
			for _, dst := range p.Schemas {
				if dst == src {
					continue
				}
				theta := map[string]string{}
				for _, pk := range src.PrimaryKey() {
					for _, g := range dst.Fields {
						if g.Type == pk.Type {
							theta[pk.Name] = g.Name
							break
						}
					}
				}
				if len(theta) != len(src.PrimaryKey()) {
					continue
				}
				name := DstFieldName(dst, f.Name)
				rp, err := IntroField(p, dst.Name, ast.Field{Name: name, Type: f.Type})
				if err != nil {
					continue
				}
				fn(rp, ValueCorr{SrcTable: src.Name, SrcField: f.Name, DstTable: dst.Name, DstField: name, Theta: theta, Agg: ast.AggAny})
			}
		}
	}
}

// applyCorrEveryTxn is ApplyCorr without its scope: all three passes on
// every transaction, one transaction after the other.
func applyCorrEveryTxn(p *ast.Program, v ValueCorr) (*ast.Program, error) {
	src := p.Schema(v.SrcTable)
	out := &ast.Program{Schemas: p.Schemas, Txns: make([]*ast.Txn, len(p.Txns))}
	for i, t := range p.Txns {
		redirected, _, err := validateRewriteTxn(t, src, v)
		if err != nil {
			return nil, err
		}
		nt, err := rewriteCommands(t, src, v)
		if err != nil {
			return nil, err
		}
		if nt, err = rewriteRedirectedAccesses(nt, v, redirected); err != nil {
			return nil, err
		}
		out.Txns[i] = nt
	}
	return out, nil
}

// TestApplyCorrScopedToSourceTable: over the corpus and every logger and
// redirect correspondence it admits, ApplyCorr returns what rewriting every
// transaction returns — the same program or the same error — and the very
// *ast.Txn it was given for each transaction with no command on the source
// table.
func TestApplyCorrScopedToSourceTable(t *testing.T) {
	probes, applied := 0, 0
	scopeCorpus(t, func(name string, prog *ast.Program) {
		corrProbes(prog, func(p *ast.Program, v ValueCorr) {
			probes++
			what := fmt.Sprintf("%s %s", name, v)
			got, err := ApplyCorr(p, v)
			want, werr := applyCorrEveryTxn(p, v)
			if fmt.Sprint(err) != fmt.Sprint(werr) {
				t.Fatalf("%s: error %v, unscoped %v", what, err, werr)
			}
			if err != nil {
				return
			}
			applied++
			if g, w := ast.Format(got), ast.Format(want); g != w {
				t.Fatalf("%s: scoped rewrite differs from the unscoped one:\n%s\nwant\n%s", what, g, w)
			}
			for i, tx := range p.Txns {
				onSrc := slices.ContainsFunc(ast.Commands(tx.Body), func(c ast.DBCommand) bool { return c.TableName() == v.SrcTable })
				if !onSrc && got.Txns[i] != tx {
					t.Fatalf("%s: %s has no command on %s but was copied", what, tx.Name, v.SrcTable)
				}
			}
		})
	})
	if applied == 0 || applied == probes {
		t.Fatalf("%d of %d probes applied; the corpus should exercise both outcomes", applied, probes)
	}
}

// deadSelectsOracle is DeadSelects as a set of read variables per
// expression (ast.VarsRead), merged into one map.
func deadSelectsOracle(t *ast.Txn) []string {
	used := map[string]bool{}
	mark := func(e ast.Expr) {
		for v := range ast.VarsRead(e) {
			used[v] = true
		}
	}
	ast.WalkStmts(t.Body, func(s ast.Stmt) bool {
		for _, e := range ast.StmtExprs(s) {
			mark(e)
		}
		return true
	})
	if t.Ret != nil {
		mark(t.Ret)
	}
	var dead []string
	ast.WalkStmts(t.Body, func(s ast.Stmt) bool {
		if sel, ok := s.(*ast.Select); ok && !used[sel.Var] {
			dead = append(dead, sel.Label)
		}
		return true
	})
	return dead
}

// TestDeadSelectsMatchesOracle: on every transaction of the corpus, and of
// every program the logger rule makes of it (where selects die), the
// one-walk DeadSelects reports what the per-expression oracle does.
func TestDeadSelectsMatchesOracle(t *testing.T) {
	dead := 0
	check := func(what string, p *ast.Program) {
		for _, tx := range p.Txns {
			got, want := DeadSelects(tx), deadSelectsOracle(tx)
			if !slices.Equal(got, want) {
				t.Fatalf("%s %s: dead selects %v, oracle %v", what, tx.Name, got, want)
			}
			dead += len(got)
		}
	}
	scopeCorpus(t, func(name string, prog *ast.Program) {
		check(name, prog)
		corrProbes(prog, func(p *ast.Program, v ValueCorr) {
			if v.Logging {
				if np, err := ApplyCorr(p, v); err == nil {
					check(fmt.Sprintf("%s %s", name, v), np)
				}
			}
		})
	})
	if dead == 0 {
		t.Fatal("no dead select anywhere; the corpus does not exercise DeadSelects")
	}
}
