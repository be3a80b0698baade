// Package progen generates random, well-formed database programs for
// property-based testing: every generated program parses, passes the
// semantic checker, and exercises selects, single- and multi-field
// updates, conditionals, aggregations, and return expressions.
package progen

import (
	"fmt"
	"math/rand"

	"atropos/internal/ast"
	"atropos/internal/parser"
)

type gen struct {
	rng *rand.Rand
	p   *ast.Program
}

// Program generates a random well-formed program from the seed.
func Program(seed int64) *ast.Program {
	g := &gen{rng: rand.New(rand.NewSource(seed)), p: &ast.Program{}}
	nSchemas := 1 + g.rng.Intn(3)
	for i := 0; i < nSchemas; i++ {
		g.p.Schemas = append(g.p.Schemas, g.schema(i))
	}
	nTxns := 1 + g.rng.Intn(3)
	for i := 0; i < nTxns; i++ {
		g.p.Txns = append(g.p.Txns, g.txn(i, 1+g.rng.Intn(3)))
	}
	parser.AssignLabels(g.p)
	return g.p
}

func (g *gen) schema(idx int) *ast.Schema {
	s := &ast.Schema{Name: fmt.Sprintf("TBL%d", idx)}
	nFields := 2 + g.rng.Intn(4)
	for f := 0; f < nFields; f++ {
		ty := []ast.Type{ast.TInt, ast.TBool, ast.TString}[g.rng.Intn(3)]
		if f == 0 {
			ty = ast.TInt
		}
		s.Fields = append(s.Fields, &ast.Field{
			Name: fmt.Sprintf("t%d_f%d", idx, f),
			Type: ty,
			PK:   f == 0,
		})
	}
	return s
}

// expr produces a well-typed expression over int parameters p0..p(n-1) and
// previously bound select variables.
func (g *gen) expr(want ast.Type, params int, vars []*ast.Select, depth int) ast.Expr {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		switch want {
		case ast.TInt:
			if params > 0 && g.rng.Intn(2) == 0 {
				return &ast.Arg{Name: fmt.Sprintf("p%d", g.rng.Intn(params))}
			}
			return &ast.IntLit{Val: int64(g.rng.Intn(100))}
		case ast.TBool:
			return &ast.BoolLit{Val: g.rng.Intn(2) == 0}
		default:
			return &ast.StringLit{Val: fmt.Sprintf("s%d", g.rng.Intn(10))}
		}
	}
	switch want {
	case ast.TInt:
		if len(vars) > 0 && g.rng.Intn(3) == 0 {
			v := vars[g.rng.Intn(len(vars))]
			schema := g.p.Schema(v.Table)
			var intFields []string
			for _, fn := range v.Fields {
				if schema.Field(fn).Type == ast.TInt {
					intFields = append(intFields, fn)
				}
			}
			if len(intFields) > 0 {
				f := intFields[g.rng.Intn(len(intFields))]
				if g.rng.Intn(2) == 0 {
					return &ast.Agg{Fn: ast.AggSum, Var: v.Var, Field: f}
				}
				return &ast.FieldAt{Var: v.Var, Field: f}
			}
		}
		op := []ast.BinOp{ast.OpAdd, ast.OpSub, ast.OpMul}[g.rng.Intn(3)]
		return &ast.Binary{Op: op,
			L: g.expr(ast.TInt, params, vars, depth-1),
			R: g.expr(ast.TInt, params, vars, depth-1)}
	case ast.TBool:
		op := []ast.BinOp{ast.OpLt, ast.OpLe, ast.OpEq, ast.OpNe, ast.OpGt, ast.OpGe}[g.rng.Intn(6)]
		return &ast.Binary{Op: op,
			L: g.expr(ast.TInt, params, vars, depth-1),
			R: g.expr(ast.TInt, params, vars, depth-1)}
	default:
		return &ast.StringLit{Val: fmt.Sprintf("s%d", g.rng.Intn(10))}
	}
}

func (g *gen) where(schema *ast.Schema, params int, vars []*ast.Select) ast.Expr {
	pk := schema.PrimaryKey()[0]
	return &ast.Binary{Op: ast.OpEq,
		L: &ast.ThisField{Field: pk.Name},
		R: g.expr(ast.TInt, params, vars, 1)}
}

func (g *gen) txn(idx, params int) *ast.Txn {
	t := &ast.Txn{Name: fmt.Sprintf("txn%d", idx)}
	for i := 0; i < params; i++ {
		t.Params = append(t.Params, &ast.Param{Name: fmt.Sprintf("p%d", i), Type: ast.TInt})
	}
	var vars []*ast.Select
	nStmts := 1 + g.rng.Intn(4)
	for s := 0; s < nStmts; s++ {
		schema := g.p.Schemas[g.rng.Intn(len(g.p.Schemas))]
		switch g.rng.Intn(3) {
		case 0:
			sel := &ast.Select{
				Var:   fmt.Sprintf("v%d_%d", idx, s),
				Table: schema.Name,
				Where: g.where(schema, params, vars),
			}
			for _, f := range schema.Fields {
				sel.Fields = append(sel.Fields, f.Name)
			}
			t.Body = append(t.Body, sel)
			vars = append(vars, sel)
		case 1:
			nk := schema.NonKeyFields()
			if len(nk) == 0 {
				t.Body = append(t.Body, &ast.Skip{})
				continue
			}
			f := nk[g.rng.Intn(len(nk))]
			t.Body = append(t.Body, &ast.Update{
				Table: schema.Name,
				Sets:  []ast.Assign{{Field: f.Name, Expr: g.expr(f.Type, params, vars, 2)}},
				Where: g.where(schema, params, vars),
			})
		default:
			nk := schema.NonKeyFields()
			if len(nk) == 0 {
				t.Body = append(t.Body, &ast.Skip{})
				continue
			}
			f := nk[0]
			t.Body = append(t.Body, &ast.If{
				Cond: g.expr(ast.TBool, params, vars, 2),
				Then: []ast.Stmt{&ast.Update{
					Table: schema.Name,
					Sets:  []ast.Assign{{Field: f.Name, Expr: g.expr(f.Type, params, vars, 1)}},
					Where: g.where(schema, params, vars),
				}},
			})
		}
	}
	if g.rng.Intn(2) == 0 {
		t.Ret = g.expr(ast.TInt, params, vars, 2)
	}
	return t
}
