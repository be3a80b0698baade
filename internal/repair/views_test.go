package repair

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"atropos/internal/anomaly"
	"atropos/internal/ast"
	"atropos/internal/corpus"
	"atropos/internal/sema"
)

// The fresh computations the ast package's derived views (DESIGN.md §10)
// are checked against, written here apart from the code that builds the
// views.

// freshEqualities decomposes a where clause into its equality conjuncts
// this.f = e, in clause order; ok is false for any other shape.
func freshEqualities(w ast.Expr) (ast.Pins, bool) {
	var eqs ast.Pins
	var conj func(ast.Expr) bool
	conj = func(x ast.Expr) bool {
		b, ok := x.(*ast.Binary)
		if !ok {
			return false
		}
		switch b.Op {
		case ast.OpAnd:
			return conj(b.L) && conj(b.R)
		case ast.OpEq:
			tf, ok := b.L.(*ast.ThisField)
			if !ok || len(freshWhereFields(b.R)) > 0 || slices.ContainsFunc(eqs, func(q ast.WhereEquality) bool { return q.Field == tf.Field }) {
				return false
			}
			eqs = append(eqs, ast.WhereEquality{Field: tf.Field, Expr: b.R})
			return true
		}
		return false
	}
	if w == nil || !conj(w) {
		return nil, false
	}
	return eqs, true
}

// freshWhereFields lists the fields e references as this.f, first
// occurrence first.
func freshWhereFields(e ast.Expr) []string {
	var out []string
	ast.WalkExpr(e, func(x ast.Expr) bool {
		if tf, ok := x.(*ast.ThisField); ok && !slices.Contains(out, tf.Field) {
			out = append(out, tf.Field)
		}
		return true
	})
	return out
}

// freshAccess is the fields c reads and writes, a select * resolved
// against schema.
func freshAccess(c ast.DBCommand, schema *ast.Schema) ast.Access {
	add := func(xs []string, x string) []string {
		if slices.Contains(xs, x) {
			return xs
		}
		return append(xs, x)
	}
	a := ast.Access{Table: c.TableName(), Reads: freshWhereFields(ast.WhereOf(c))}
	switch x := c.(type) {
	case *ast.Select:
		if !x.Star {
			for _, f := range x.Fields {
				a.Reads = add(a.Reads, f)
			}
		} else if schema != nil {
			for _, f := range schema.Fields {
				a.Reads = add(a.Reads, f.Name)
			}
		}
	case *ast.Update:
		for _, s := range x.Sets {
			a.Writes = add(a.Writes, s.Field)
		}
	case *ast.Insert:
		for _, s := range x.Values {
			a.Writes = add(a.Writes, s.Field)
		}
		a.Writes = add(a.Writes, ast.AliveField)
	}
	return a
}

// freshCommands lists the database commands of body in program order,
// nested ones included.
func freshCommands(body []ast.Stmt) []ast.DBCommand {
	var out []ast.DBCommand
	for _, s := range body {
		switch x := s.(type) {
		case ast.DBCommand:
			out = append(out, x)
		case *ast.If:
			out = append(out, freshCommands(x.Then)...)
		case *ast.Iterate:
			out = append(out, freshCommands(x.Body)...)
		}
	}
	return out
}

// The ast package's node tags for a schema and a field (hash.go).
const tagSchema, tagField = 0x9e37 + 18, 0x9e37 + 19

// freshSchemaHash folds a schema's name and each field's name, type and
// key flag, as ast.HashSchema does.
func freshSchemaHash(s *ast.Schema) uint64 {
	h := ast.NewHasher().Uint(tagSchema).Str(s.Name)
	for _, f := range s.Fields {
		pk := uint64(0)
		if f.PK {
			pk = 1
		}
		h = h.Uint(tagField).Str(f.Name).Uint(uint64(f.Type)).Uint(pk)
	}
	return h.Sum()
}

// viewMismatch returns how one view of prog differs from its fresh
// computation, "" if none does.
func viewMismatch(prog *ast.Program) string {
	for _, s := range prog.Schemas {
		if got, want := ast.HashSchema(s), freshSchemaHash(s); got != want {
			return fmt.Sprintf("table %s: hash %#x, fresh %#x", s.Name, got, want)
		}
		var key, nonKey []*ast.Field
		for _, f := range s.Fields {
			if f.PK {
				key = append(key, f)
			} else {
				nonKey = append(nonKey, f)
			}
		}
		if !slices.Equal(s.PrimaryKey(), key) || !slices.Equal(s.NonKeyFields(), nonKey) {
			return fmt.Sprintf("table %s: key fields differ from the fresh split", s.Name)
		}
		if s.Accepted() {
			if err := sema.Check(&ast.Program{Schemas: []*ast.Schema{{Name: s.Name, Fields: s.Fields}}}); err != nil {
				return fmt.Sprintf("table %s: accepted, but a fresh check says %v", s.Name, err)
			}
		}
	}
	for _, t := range prog.Txns {
		cmds := freshCommands(t.Body)
		if !slices.Equal(t.Commands(), cmds) {
			return fmt.Sprintf("txn %s: command list differs from the fresh walk", t.Name)
		}
		for _, c := range cmds {
			where := t.Name + "." + c.CmdLabel()
			if ast.FindCommand(t, c.CmdLabel()) != c {
				return where + ": FindCommand finds another command"
			}
			if sel, ok := c.(*ast.Select); ok {
				first := cmds[slices.IndexFunc(cmds, func(d ast.DBCommand) bool { s, ok := d.(*ast.Select); return ok && s.Var == sel.Var })]
				if ast.FindSelect(t, sel.Var) != first {
					return where + ": FindSelect finds another select"
				}
			}
			eqs, ok := ast.CommandEqualities(c)
			feqs, fok := freshEqualities(ast.WhereOf(c))
			if ok != fok || !slices.Equal(eqs, feqs) {
				return fmt.Sprintf("%s: equalities %v/%v, fresh %v/%v", where, eqs, ok, feqs, fok)
			}
			if got, want := ast.CommandWhereFields(c), freshWhereFields(ast.WhereOf(c)); !slices.Equal(got, want) {
				return fmt.Sprintf("%s: where fields %v, fresh %v", where, got, want)
			}
			schema := prog.Schema(c.TableName())
			got, want := ast.CommandAccess(c, schema), freshAccess(c, schema)
			if got.Table != want.Table || !slices.Equal(got.Reads, want.Reads) || !slices.Equal(got.Writes, want.Writes) {
				return fmt.Sprintf("%s: access %+v, fresh %+v", where, got, want)
			}
			if schema != nil {
				pins, ok := ast.CommandWellFormed(c, schema)
				covers := fok && !slices.ContainsFunc(keyNames(schema), func(k string) bool { return feqs.Of(k) == nil })
				if ok != covers || (ok && !slices.Equal(pins, feqs)) {
					return fmt.Sprintf("%s: well-formed %v, fresh %v", where, ok, covers)
				}
			}
		}
	}
	return ""
}

// keyNames lists the names of schema's primary-key fields.
func keyNames(schema *ast.Schema) []string {
	var names []string
	for _, f := range schema.Fields {
		if f.PK {
			names = append(names, f.Name)
		}
	}
	return names
}

// repairSteps is RunWith's pipeline without its deadlines, calling check
// on the program after preprocessing, after each step of the pair loop
// and after post-processing. It returns the repaired program.
func repairSteps(prog *ast.Program, model anomaly.Model, check func(step string, p *ast.Program)) (*ast.Program, error) {
	session := anomaly.NewSession(model)
	initial, err := session.Detect(prog)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	p := preprocess(prog, initial.Pairs, res)
	check("preprocessed", p)
	rep, err := session.Detect(p)
	if err != nil {
		return nil, err
	}
	var logs loggingMemo
	for i, pair := range rep.Pairs {
		res.beginPairStep(pair)
		p2, ok := tryRepair(p, pair, res, &logs)
		if ok {
			p = p2
		}
		res.endPairStep(ok)
		check(fmt.Sprintf("pair %d", i), p)
	}
	moved := map[string]map[string]bool{}
	for _, c := range res.Corrs {
		if moved[c.SrcTable] == nil {
			moved[c.SrcTable] = map[string]bool{}
		}
		moved[c.SrcTable][c.SrcField] = true
	}
	p = postprocess(p, res, moved)
	check("postprocessed", p)
	return p, nil
}

// rebuilt is prog with every expression rebuilt by ast.MapTxnExprsCOW,
// leaves copied: every command with an expression is a new node.
func rebuilt(prog *ast.Program) *ast.Program {
	out := &ast.Program{Schemas: prog.Schemas}
	for _, t := range prog.Txns {
		nt, _ := ast.MapTxnExprsCOW(t, func(x ast.Expr) ast.Expr {
			switch l := x.(type) {
			case *ast.Arg:
				return &ast.Arg{Name: l.Name}
			case *ast.FieldAt:
				return &ast.FieldAt{Var: l.Var, Field: l.Field, Index: l.Index}
			case *ast.IntLit:
				return &ast.IntLit{Val: l.Val}
			}
			return x
		})
		out.Txns = append(out.Txns, nt)
	}
	return out
}

// TestNodeViewsMatchFresh: on every corpus program, on its copy with every
// expression rebuilt, and on every program the EC, CC and RR repairs of it
// pass through, each node's views equal their fresh computation. Views are
// built on a node's first ask, so a stale one shows when a node that was
// asked before is reused: a rewritten command carrying its original's
// view, a command relabelled after its transaction's list was read.
func TestNodeViewsMatchFresh(t *testing.T) {
	progs := corpus.Programs(96)
	if testing.Short() {
		progs = corpus.Programs(12)
	}
	for _, c := range progs {
		if m := viewMismatch(c.Prog); m != "" {
			t.Fatalf("%s: %s", c.Name, m)
		}
		if m := viewMismatch(rebuilt(c.Prog)); m != "" {
			t.Fatalf("%s, rebuilt: %s", c.Name, m)
		}
		for _, model := range []anomaly.Model{anomaly.EC, anomaly.CC, anomaly.RR} {
			cell := c.Name + "/" + model.String()
			got, err := repairSteps(c.Prog, model, func(step string, p *ast.Program) {
				if m := viewMismatch(p); m != "" {
					t.Fatalf("%s, %s: %s", cell, step, m)
				}
			})
			if err != nil {
				t.Fatalf("%s: %v", cell, err)
			}
			want, err := Run(context.Background(), c.Prog, model)
			if err != nil {
				t.Fatalf("%s: %v", cell, err)
			}
			if ast.HashProgram(got) != ast.HashProgram(want.Program) {
				t.Fatalf("%s: the stepwise pipeline repaired to another program than Run", cell)
			}
		}
	}
}
