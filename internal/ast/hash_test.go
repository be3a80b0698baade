package ast

import (
	"testing"
)

func TestHashStructuralIdentity(t *testing.T) {
	a, b := sampleTxn(), sampleTxn()
	if HashTxn(a) != HashTxn(b) {
		t.Fatal("structurally equal transactions hash differently")
	}
	// Memoized second call returns the same value.
	if HashTxn(a) != HashTxn(b) {
		t.Fatal("memoized hash diverges from first computation")
	}
	c := sampleTxn()
	c.Body[0].(*Select).Label = "S2"
	if HashTxn(a) == HashTxn(c) {
		t.Fatal("label change did not change the transaction hash")
	}
	d := sampleTxn()
	d.Ret = &FieldAt{Var: "x", Field: "b"}
	if HashTxn(a) == HashTxn(d) {
		t.Fatal("return-expression change did not change the transaction hash")
	}
}

func TestHashDistinguishesShapes(t *testing.T) {
	pairs := [][2]Expr{
		{&IntLit{Val: 1}, &IntLit{Val: 2}},
		{&IntLit{Val: 1}, &BoolLit{Val: true}},
		{&StringLit{Val: "ab"}, &StringLit{Val: "a"}},
		{&Arg{Name: "x"}, &ThisField{Field: "x"}},
		{
			&Binary{Op: OpAdd, L: &IntLit{Val: 1}, R: &IntLit{Val: 2}},
			&Binary{Op: OpAdd, L: &IntLit{Val: 2}, R: &IntLit{Val: 1}},
		},
		{&FieldAt{Var: "x", Field: "f"}, &Agg{Fn: AggAny, Var: "x", Field: "f"}},
	}
	for i, p := range pairs {
		if HashExpr(p[0]) == HashExpr(p[1]) {
			t.Errorf("pair %d: distinct expressions %v / %v hash equal", i, ExprString(p[0]), ExprString(p[1]))
		}
	}
}

func TestHashUUIDBit(t *testing.T) {
	u := HashExpr(&UUID{})
	if u&hashUUID == 0 {
		t.Fatal("uuid() hash lacks the uuid bit")
	}
	wrapped := HashExpr(&Binary{Op: OpAdd, L: &IntLit{Val: 1}, R: &UUID{}})
	if wrapped&hashUUID == 0 {
		t.Fatal("uuid bit not propagated to enclosing expression")
	}
	plain := HashExpr(&Binary{Op: OpAdd, L: &IntLit{Val: 1}, R: &IntLit{Val: 2}})
	if plain&hashUUID != 0 {
		t.Fatal("uuid bit set on a uuid-free expression")
	}
}

func TestSchemaHash(t *testing.T) {
	a := &Schema{Name: "T", Fields: []*Field{{Name: "id", Type: TInt, PK: true}, {Name: "v", Type: TInt}}}
	b := &Schema{Name: "T", Fields: []*Field{{Name: "id", Type: TInt, PK: true}, {Name: "v", Type: TInt}}}
	if HashSchema(a) != HashSchema(b) {
		t.Fatal("equal schemas hash differently")
	}
	// A hashed schema is immutable: the changed schema is a new node.
	c := &Schema{Name: "T", Fields: []*Field{{Name: "id", Type: TInt, PK: true}, {Name: "v", Type: TInt, PK: true}}}
	if HashSchema(a) == HashSchema(c) {
		t.Fatal("primary-key change did not change the schema hash")
	}
}

func TestMapExprCOWShares(t *testing.T) {
	e := &Binary{Op: OpAnd,
		L: &Binary{Op: OpEq, L: &ThisField{Field: "a"}, R: &IntLit{Val: 1}},
		R: &Binary{Op: OpEq, L: &ThisField{Field: "b"}, R: &IntLit{Val: 2}},
	}
	// Identity rewrite: pointer-identical result.
	same := MapExprCOW(e, func(x Expr) Expr { return x })
	if same != Expr(e) {
		t.Fatal("identity rewrite did not share the input")
	}
	// Rewrite one leaf: the untouched sibling subtree is shared.
	out := MapExprCOW(e, func(x Expr) Expr {
		if tf, ok := x.(*ThisField); ok && tf.Field == "a" {
			return &ThisField{Field: "z"}
		}
		return x
	})
	nb, ok := out.(*Binary)
	if !ok || nb == e {
		t.Fatalf("rewrite did not rebuild the spine: %v", ExprString(out))
	}
	if nb.R != e.R {
		t.Error("untouched right subtree was copied, not shared")
	}
	if ExprString(e) != "((a = 1) && (b = 2))" {
		t.Errorf("input mutated: %s", ExprString(e))
	}
	if ExprString(out) != "((z = 1) && (b = 2))" {
		t.Errorf("rewrite produced %s", ExprString(out))
	}
}

func TestMapStmtsCOWShares(t *testing.T) {
	body := []Stmt{
		&Skip{},
		&If{Cond: &BoolLit{Val: true}, Then: []Stmt{&Skip{}}},
		&Update{Label: "U1", Table: "T", Sets: []Assign{{Field: "a", Expr: &IntLit{Val: 1}}}},
	}
	same, changed := MapStmtsCOW(body, func(Stmt) ([]Stmt, bool) { return nil, true })
	if changed || &same[0] != &body[0] {
		t.Fatal("identity map did not share the input slice")
	}
	out, changed := MapStmtsCOW(body, func(s Stmt) ([]Stmt, bool) {
		if u, ok := s.(*Update); ok && u.Label == "U1" {
			return nil, false // delete
		}
		return nil, true
	})
	if !changed || len(out) != 2 {
		t.Fatalf("deletion produced %d stmts (changed=%t)", len(out), changed)
	}
	if out[0] != body[0] || out[1] != body[1] {
		t.Error("untouched statements were copied, not shared")
	}
	// Nested deletion rebuilds the control wrapper but shares its Cond.
	out2, changed := MapStmtsCOW(body, func(s Stmt) ([]Stmt, bool) {
		if _, ok := s.(*Skip); ok {
			return nil, false
		}
		return nil, true
	})
	if !changed || len(out2) != 2 {
		t.Fatalf("nested deletion produced %d stmts", len(out2))
	}
	nif, ok := out2[0].(*If)
	if !ok || len(nif.Then) != 0 {
		t.Fatalf("nested deletion did not rewrite the if body: %v", out2[0])
	}
	if nif == body[1] {
		t.Error("if wrapper shared despite changed body")
	}
	if nif.Cond != body[1].(*If).Cond {
		t.Error("if condition copied, not shared")
	}
}

func TestWithTxnShares(t *testing.T) {
	p := &Program{
		Schemas: []*Schema{{Name: "T"}},
		Txns:    []*Txn{sampleTxn(), {Name: "u"}},
	}
	nt := &Txn{Name: "t2"}
	np := WithTxn(p, 0, nt)
	if np.Txns[0] != nt || np.Txns[1] != p.Txns[1] {
		t.Fatal("WithTxn did not replace/share as expected")
	}
	if &np.Schemas[0] != &p.Schemas[0] {
		t.Fatal("WithTxn copied the schema list")
	}
	if p.Txns[0] == nt {
		t.Fatal("WithTxn mutated its input")
	}
	if TxnIndex(p, "u") != 1 || TxnIndex(p, "nope") != -1 {
		t.Fatal("TxnIndex wrong")
	}
}

// TestMapStmtsCOWKeepAllocatesNothing: a callback that keeps every
// statement, nested ones included, costs no allocation.
func TestMapStmtsCOWKeepAllocatesNothing(t *testing.T) {
	body := sampleTxn().Body
	keep := func(Stmt) ([]Stmt, bool) { return nil, true }
	if n := testing.AllocsPerRun(100, func() { MapStmtsCOW(body, keep) }); n != 0 {
		t.Errorf("all-keep MapStmtsCOW allocates %.0f times, want 0", n)
	}
}
