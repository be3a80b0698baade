package ast

import "testing"

func sampleTxn() *Txn {
	// x := select a, b from T where id = k;
	// if (x.a > 0) { update T set b = x.b + 1 where id = k; }
	// return x.a;
	return &Txn{
		Name:   "t",
		Params: []*Param{{Name: "k", Type: TInt}},
		Body: []Stmt{
			&Select{Label: "S1", Var: "x", Fields: []string{"a", "b"}, Table: "T",
				Where: &Binary{Op: OpEq, L: &ThisField{Field: "id"}, R: &Arg{Name: "k"}}},
			&If{
				Cond: &Binary{Op: OpGt, L: &FieldAt{Var: "x", Field: "a"}, R: &IntLit{Val: 0}},
				Then: []Stmt{
					&Update{Label: "U1", Table: "T",
						Sets:  []Assign{{Field: "b", Expr: &Binary{Op: OpAdd, L: &FieldAt{Var: "x", Field: "b"}, R: &IntLit{Val: 1}}}},
						Where: &Binary{Op: OpEq, L: &ThisField{Field: "id"}, R: &Arg{Name: "k"}}},
				},
			},
		},
		Ret: &FieldAt{Var: "x", Field: "a"},
	}
}

func TestCommandsFlattening(t *testing.T) {
	cmds := Commands(sampleTxn().Body)
	if len(cmds) != 2 {
		t.Fatalf("commands = %d, want 2 (one nested in if)", len(cmds))
	}
	if cmds[0].CmdLabel() != "S1" || cmds[1].CmdLabel() != "U1" {
		t.Fatalf("labels = %q, %q", cmds[0].CmdLabel(), cmds[1].CmdLabel())
	}
}

func TestEqualExpr(t *testing.T) {
	a := &Binary{Op: OpAdd, L: &FieldAt{Var: "x", Field: "b"}, R: &IntLit{Val: 1}}
	b := &Binary{Op: OpAdd, L: &FieldAt{Var: "x", Field: "b"}, R: &IntLit{Val: 1}}
	if !EqualExpr(a, b) {
		t.Error("separately built equal expressions compare unequal")
	}
	c := &Binary{Op: OpAdd, L: &FieldAt{Var: "x", Field: "b"}, R: &IntLit{Val: 2}}
	if EqualExpr(a, c) {
		t.Error("different constants compare equal")
	}
	if !EqualExpr(nil, nil) {
		t.Error("nil != nil")
	}
	if EqualExpr(a, nil) {
		t.Error("expr == nil")
	}
	// uuid() is never equal, even to itself (fresh per evaluation).
	u := &UUID{}
	if EqualExpr(u, u) {
		t.Error("uuid() compared equal")
	}
	// The pointer fast path holds only for a hashed, uuid-free node.
	HashExpr(a)
	if !EqualExpr(a, a) {
		t.Error("hashed expression unequal to itself")
	}
	w := &Binary{Op: OpAdd, L: &IntLit{Val: 1}, R: &UUID{}}
	HashExpr(w)
	if EqualExpr(w, w) {
		t.Error("hashed uuid-containing expression compared equal to itself")
	}
}

func TestEqualStmt(t *testing.T) {
	t1, t2 := sampleTxn(), sampleTxn()
	for i := range t1.Body {
		if !EqualStmt(t1.Body[i], t2.Body[i]) {
			t.Errorf("stmt %d not equal to its rebuilt copy", i)
		}
	}
	if EqualStmt(t1.Body[0], t1.Body[1]) {
		t.Error("select equals if")
	}
}

func TestWhereEqualities(t *testing.T) {
	// this.a = k && this.b = 2 — well formed.
	w := &Binary{Op: OpAnd,
		L: &Binary{Op: OpEq, L: &ThisField{Field: "a"}, R: &Arg{Name: "k"}},
		R: &Binary{Op: OpEq, L: &ThisField{Field: "b"}, R: &IntLit{Val: 2}},
	}
	eqs, ok := WhereEqualities(w)
	if !ok || len(eqs) != 2 {
		t.Fatalf("eqs=%v ok=%v", eqs, ok)
	}
	// Disjunction is not well formed.
	bad := &Binary{Op: OpOr, L: w.L, R: w.R}
	if _, ok := WhereEqualities(bad); ok {
		t.Error("disjunction accepted as equality conjunction")
	}
	// Inequality is not well formed.
	bad2 := &Binary{Op: OpLt, L: &ThisField{Field: "a"}, R: &IntLit{Val: 3}}
	if _, ok := WhereEqualities(bad2); ok {
		t.Error("inequality accepted")
	}
	// Repeated field is not well formed.
	bad3 := &Binary{Op: OpAnd, L: w.L, R: w.L}
	if _, ok := WhereEqualities(bad3); ok {
		t.Error("repeated field accepted")
	}
	// this on the right-hand side is not well formed.
	bad4 := &Binary{Op: OpEq, L: &ThisField{Field: "a"}, R: &ThisField{Field: "b"}}
	if _, ok := WhereEqualities(bad4); ok {
		t.Error("field-to-field equality accepted")
	}
}

func TestWellFormedWhere(t *testing.T) {
	schema := &Schema{Name: "T", Fields: []*Field{
		{Name: "id", Type: TInt, PK: true},
		{Name: "n", Type: TInt},
	}}
	w := &Binary{Op: OpEq, L: &ThisField{Field: "id"}, R: &Arg{Name: "k"}}
	m, ok := CommandWellFormed(&Select{Where: w}, schema)
	if !ok {
		t.Fatal("pk equality rejected")
	}
	if _, ok := m.Of("id").(*Arg); !ok {
		t.Fatalf("pin for id = %T", m.Of("id"))
	}
	// Constraining only a non-key field does not cover the pk.
	w2 := &Binary{Op: OpEq, L: &ThisField{Field: "n"}, R: &IntLit{Val: 1}}
	if _, ok := CommandWellFormed(&Select{Where: w2}, schema); ok {
		t.Error("non-pk-covering clause accepted")
	}
}

func TestCommandAccess(t *testing.T) {
	schema := &Schema{Name: "T", Fields: []*Field{
		{Name: "id", Type: TInt, PK: true},
		{Name: "a", Type: TInt},
		{Name: "b", Type: TInt},
	}}
	tx := sampleTxn()
	cmds := Commands(tx.Body)
	selAcc := CommandAccess(cmds[0], schema)
	if len(selAcc.Reads) != 3 { // id (where) + a + b
		t.Fatalf("select reads = %v", selAcc.Reads)
	}
	updAcc := CommandAccess(cmds[1], schema)
	if len(updAcc.Writes) != 1 || updAcc.Writes[0] != "b" {
		t.Fatalf("update writes = %v", updAcc.Writes)
	}
	if len(updAcc.Reads) != 1 || updAcc.Reads[0] != "id" {
		t.Fatalf("update reads = %v", updAcc.Reads)
	}
	// SELECT * reads every declared field.
	star := &Select{Var: "x", Star: true, Table: "T", Where: &Binary{Op: OpEq, L: &ThisField{Field: "id"}, R: &IntLit{Val: 1}}}
	if got := CommandAccess(star, schema); len(got.Reads) != 3 {
		t.Fatalf("star reads = %v", got.Reads)
	}
	// INSERT writes alive in addition to its value fields.
	ins := &Insert{Table: "T", Values: []Assign{{Field: "id", Expr: &IntLit{Val: 1}}}}
	insAcc := CommandAccess(ins, schema)
	found := false
	for _, w := range insAcc.Writes {
		if w == AliveField {
			found = true
		}
	}
	if !found {
		t.Fatalf("insert writes = %v, want alive included", insAcc.Writes)
	}
}

func TestMapStmtsDeleteAndReplace(t *testing.T) {
	tx, again := sampleTxn(), sampleTxn()
	second := Commands(again.Body)[1]
	// Delete all selects, duplicate all updates.
	out, changed := MapStmtsCOW(tx.Body, func(s Stmt) []Stmt {
		switch s.(type) {
		case *Select:
			return nil
		case *Update:
			return []Stmt{s, second}
		}
		return []Stmt{s}
	})
	cmds := Commands(out)
	if !changed || len(cmds) != 2 {
		t.Fatalf("commands after map = %d, want 2 updates", len(cmds))
	}
	for _, c := range cmds {
		if _, ok := c.(*Update); !ok {
			t.Fatalf("leftover %T", c)
		}
	}
}

func TestMapExprRewrite(t *testing.T) {
	e := &Binary{Op: OpAdd, L: &FieldAt{Var: "x", Field: "old"}, R: &IntLit{Val: 1}}
	out := MapExprCOW(e, func(x Expr) Expr {
		if fa, ok := x.(*FieldAt); ok && fa.Field == "old" {
			return &FieldAt{Var: fa.Var, Field: "new", Index: fa.Index}
		}
		return x
	})
	want := "(x.new + 1)"
	if got := ExprString(out); got != want {
		t.Fatalf("rewritten = %s, want %s", got, want)
	}
	// Original untouched.
	if ExprString(e) != "(x.old + 1)" {
		t.Fatal("MapExprCOW mutated its input")
	}
}

func TestVarsRead(t *testing.T) {
	e := &Binary{Op: OpAdd,
		L: &Agg{Fn: AggSum, Var: "x", Field: "v"},
		R: &FieldAt{Var: "y", Field: "w"},
	}
	vars := VarsRead(e)
	if !vars["x"] || !vars["y"] || len(vars) != 2 {
		t.Fatalf("vars = %v", vars)
	}
}

func TestSchemaAliveImplicit(t *testing.T) {
	s := &Schema{Name: "T", Fields: []*Field{{Name: "id", Type: TInt, PK: true}}}
	f := s.Field(AliveField)
	if f == nil || f.Type != TBool {
		t.Fatalf("alive field = %+v", f)
	}
	if !s.HasField(AliveField) {
		t.Error("HasField(alive) = false")
	}
}
