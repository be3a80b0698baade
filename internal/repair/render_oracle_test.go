package repair

import (
	"fmt"
	"strings"
	"testing"

	"atropos/internal/anomaly"
	"atropos/internal/ast"
	"atropos/internal/corpus"
)

// The renderers behind every service answer and every repair step —
// anomaly.AccessPair.String/AppendTo, Result.pairStep and ast.Format — write
// into one buffer instead of calling fmt per node. Their output is part of
// the product's contract (the service's display/program fields, Table 1,
// the goldens), so these tests hold them byte for byte to the fmt-built
// renderers they replaced, kept below as the oracle.

func fmtPairString(a anomaly.AccessPair) string {
	return fmt.Sprintf("%s: (%s, %v, %s, %v) [%s via %s(%s,%s)]",
		a.Txn, a.C1, a.F1, a.C2, a.F2, a.Kind, a.Witness.Txn, a.Witness.D1, a.Witness.D2)
}

func fmtFormat(p *ast.Program) string {
	var b strings.Builder
	for i, s := range p.Schemas {
		if i > 0 {
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "table %s {\n", s.Name)
		for _, f := range s.Fields {
			fmt.Fprintf(&b, "  %s: %s", f.Name, f.Type)
			if f.PK {
				b.WriteString(" key")
			}
			b.WriteString(",\n")
		}
		b.WriteString("}\n")
	}
	for _, t := range p.Txns {
		b.WriteString("\n")
		fmt.Fprintf(&b, "txn %s(", t.Name)
		for i, p := range t.Params {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s: %s", p.Name, p.Type)
		}
		b.WriteString(") {\n")
		fmtStmts(&b, t.Body, 1)
		if t.Ret != nil {
			fmt.Fprintf(&b, "  return %s;\n", fmtExpr(t.Ret))
		}
		b.WriteString("}\n")
	}
	return b.String()
}

func fmtStmts(b *strings.Builder, body []ast.Stmt, depth int) {
	ind := strings.Repeat("  ", depth)
	label := func(l string) string {
		if l == "" {
			return ""
		}
		return " // " + l
	}
	assigns := func(as []ast.Assign) string {
		parts := make([]string, len(as))
		for i, a := range as {
			parts[i] = fmt.Sprintf("%s = %s", a.Field, fmtExpr(a.Expr))
		}
		return strings.Join(parts, ", ")
	}
	for _, s := range body {
		switch x := s.(type) {
		case *ast.Select:
			cols := "*"
			if !x.Star {
				cols = strings.Join(x.Fields, ", ")
			}
			fmt.Fprintf(b, "%s%s := select %s from %s where %s;%s\n",
				ind, x.Var, cols, x.Table, fmtExpr(x.Where), label(x.Label))
		case *ast.Update:
			if len(x.Sets) == 1 && x.Sets[0].Field == ast.AliveField {
				if bl, ok := x.Sets[0].Expr.(*ast.BoolLit); ok && !bl.Val {
					fmt.Fprintf(b, "%sdelete from %s where %s;%s\n",
						ind, x.Table, fmtExpr(x.Where), label(x.Label))
					continue
				}
			}
			fmt.Fprintf(b, "%supdate %s set %s where %s;%s\n",
				ind, x.Table, assigns(x.Sets), fmtExpr(x.Where), label(x.Label))
		case *ast.Insert:
			fmt.Fprintf(b, "%sinsert into %s values (%s);%s\n",
				ind, x.Table, assigns(x.Values), label(x.Label))
		case *ast.If:
			fmt.Fprintf(b, "%sif (%s) {\n", ind, fmtExpr(x.Cond))
			fmtStmts(b, x.Then, depth+1)
			fmt.Fprintf(b, "%s}\n", ind)
		case *ast.Iterate:
			fmt.Fprintf(b, "%siterate (%s) {\n", ind, fmtExpr(x.Count))
			fmtStmts(b, x.Body, depth+1)
			fmt.Fprintf(b, "%s}\n", ind)
		case *ast.Skip:
			fmt.Fprintf(b, "%sskip;\n", ind)
		}
	}
}

func fmtExpr(e ast.Expr) string {
	switch x := e.(type) {
	case nil:
		return ""
	case *ast.IntLit:
		return fmt.Sprintf("%d", x.Val)
	case *ast.BoolLit:
		return fmt.Sprintf("%t", x.Val)
	case *ast.StringLit:
		// The DSL's four escapes, every other byte raw: the lexer reads
		// no other escape.
		return `"` + strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`, "\t", `\t`).Replace(x.Val) + `"`
	case *ast.Arg:
		return x.Name
	case *ast.Binary:
		return fmt.Sprintf("(%s %s %s)", fmtExpr(x.L), x.Op, fmtExpr(x.R))
	case *ast.IterVar:
		return "iter"
	case *ast.ThisField:
		return x.Field
	case *ast.FieldAt:
		if x.Index == nil {
			return fmt.Sprintf("%s.%s", x.Var, x.Field)
		}
		return fmt.Sprintf("%s.%s[%s]", x.Var, x.Field, fmtExpr(x.Index))
	case *ast.Agg:
		return fmt.Sprintf("%s(%s.%s)", x.Fn, x.Var, x.Field)
	case *ast.UUID:
		return "uuid()"
	default:
		return fmt.Sprintf("<%T>", e)
	}
}

// renderOracle holds one program and its repair to the fmt renderers: the
// input and repaired programs' text, every initial and remaining pair's
// String, and the per-pair step line pairStep builds from each of them.
func renderOracle(t *testing.T, name string, prog *ast.Program, model anomaly.Model) (pairs int) {
	t.Helper()
	if got, want := ast.Format(prog), fmtFormat(prog); got != want {
		t.Fatalf("%s: Format diverges from the fmt renderer\ngot:\n%s\nwant:\n%s", name, got, want)
	}
	res, err := repairProg(prog, model)
	if err != nil {
		t.Fatalf("%s %v: %v", name, model, err)
	}
	if got, want := ast.Format(res.Program), fmtFormat(res.Program); got != want {
		t.Fatalf("%s %v: repaired Format diverges\ngot:\n%s\nwant:\n%s", name, model, got, want)
	}
	for _, ps := range [][]anomaly.AccessPair{res.Initial, res.Remaining} {
		for _, p := range ps {
			want := fmtPairString(p)
			if got := p.String(); got != want {
				t.Fatalf("%s %v: pair String\ngot  %s\nwant %s", name, model, got, want)
			}
			var r Result
			r.beginPairStep(p)
			r.stepBuf = append(r.stepBuf, "no rule applies"...)
			r.endPairStep(false)
			if step, want := r.Steps[0], fmt.Sprintf("unrepaired %s: %s", want, "no rule applies"); step != want {
				t.Fatalf("%s %v: pair step\ngot  %s\nwant %s", name, model, step, want)
			}
		}
	}
	return len(res.Initial) + len(res.Remaining)
}

// TestRenderersMatchFmtOracle: 9 benchmarks × EC/CC/RR and their repairs,
// and progen seeds 0–31 under EC.
func TestRenderersMatchFmtOracle(t *testing.T) {
	pairs := 0
	for _, b := range corpus.Benchmarks() {
		for _, m := range []anomaly.Model{anomaly.EC, anomaly.CC, anomaly.RR} {
			pairs += renderOracle(t, b.Name, b.Prog, m)
		}
	}
	for _, p := range corpus.Progen(0, 32) {
		pairs += renderOracle(t, p.Name, p.Prog, anomaly.EC)
	}
	if pairs == 0 {
		t.Fatal("the corpus rendered no pairs")
	}
}

// TestFormatEveryNodeMatchesFmtOracle covers the node kinds and literal
// spellings the corpus may not reach: string escapes, negative integers,
// delete, iterate, skip, indexed field access, every aggregator, empty
// field lists and unlabeled commands.
func TestFormatEveryNodeMatchesFmtOracle(t *testing.T) {
	eq := func(f string, e ast.Expr) ast.Expr {
		return &ast.Binary{Op: ast.OpEq, L: &ast.ThisField{Field: f}, R: e}
	}
	var aggs []ast.Assign
	for fn := ast.AggSum; fn <= ast.AggAny; fn++ {
		aggs = append(aggs, ast.Assign{Field: "n", Expr: &ast.Agg{Fn: fn, Var: "x", Field: "n"}})
	}
	prog := &ast.Program{
		Schemas: []*ast.Schema{
			{Name: "T", Fields: []*ast.Field{{Name: "id", Type: ast.TInt, PK: true}, {Name: "s", Type: ast.TString}, {Name: "b", Type: ast.TBool}}},
			{Name: "U"},
		},
		Txns: []*ast.Txn{{
			Name:   "all",
			Params: []*ast.Param{{Name: "k", Type: ast.TInt}, {Name: "s", Type: ast.TString}},
			Body: []ast.Stmt{
				&ast.Select{Label: "S1", Var: "x", Star: true, Table: "T", Where: eq("id", &ast.Arg{Name: "k"})},
				&ast.Select{Var: "y", Table: "T", Where: eq("s", &ast.StringLit{Val: "tab\there \"q\" \\ é \x00"})},
				&ast.Select{Label: "S3", Var: "z", Fields: []string{"s", "b"}, Table: "T", Where: &ast.Binary{Op: ast.OpAnd,
					L: eq("b", &ast.BoolLit{Val: true}), R: &ast.Binary{Op: ast.OpGe, L: &ast.ThisField{Field: "id"}, R: &ast.IntLit{Val: -9223372036854775808}}}},
				&ast.Update{Label: "D1", Table: "T", Sets: []ast.Assign{{Field: ast.AliveField, Expr: &ast.BoolLit{Val: false}}}, Where: eq("id", &ast.IntLit{Val: 7})},
				&ast.Update{Label: "U1", Table: "T", Sets: []ast.Assign{{Field: ast.AliveField, Expr: &ast.BoolLit{Val: true}}, {Field: "s", Expr: &ast.Arg{Name: "s"}}}, Where: eq("id", &ast.FieldAt{Var: "x", Field: "id", Index: &ast.IterVar{}})},
				&ast.Iterate{Count: &ast.Agg{Fn: ast.AggCount, Var: "x", Field: "id"}, Body: []ast.Stmt{
					&ast.If{Cond: &ast.Binary{Op: ast.OpNe, L: &ast.FieldAt{Var: "x", Field: "s"}, R: &ast.StringLit{}}, Then: []ast.Stmt{
						&ast.Insert{Label: "I1", Table: "U", Values: []ast.Assign{{Field: "id", Expr: &ast.UUID{}}}},
						&ast.Skip{},
					}},
				}},
				&ast.Insert{Table: "T", Values: aggs},
				&ast.Update{Label: "U2", Table: "T", Where: nil},
			},
			Ret: &ast.Binary{Op: ast.OpMul, L: &ast.Binary{Op: ast.OpSub, L: &ast.IntLit{Val: 3}, R: &ast.FieldAt{Var: "z", Field: "id"}}, R: &ast.IntLit{Val: 0}},
		}},
	}
	if got, want := ast.Format(prog), fmtFormat(prog); got != want {
		t.Fatalf("Format diverges from the fmt renderer\ngot:\n%s\nwant:\n%s", got, want)
	}
	for _, s := range prog.Txns[0].Body {
		var b strings.Builder
		fmtStmts(&b, []ast.Stmt{s}, 0)
		if got, want := ast.StmtString(s), strings.TrimRight(b.String(), "\n"); got != want {
			t.Errorf("StmtString\ngot  %s\nwant %s", got, want)
		}
	}
	for _, p := range []anomaly.AccessPair{
		{},
		{Txn: "t", C1: "S1", C2: "U1", F1: []string{"a"}, F2: []string{"b", "c"}, Kind: anomaly.KindWriteSkew,
			Witness: anomaly.Witness{Txn: "w", D1: "U2", D2: "S9"}},
		{Txn: "t", C1: "S1", C2: "S1", F1: []string{}, Kind: anomaly.KindDirtyRead},
	} {
		if got, want := p.String(), fmtPairString(p); got != want {
			t.Errorf("pair String\ngot  %s\nwant %s", got, want)
		}
	}
}
