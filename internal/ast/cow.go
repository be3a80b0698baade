package ast

// Copy-on-write (path-copying) helpers (DESIGN.md §10). The refactoring
// engine edits programs by rebuilding only the spine from the edited node
// up to the Program header, sharing every untouched sibling: a speculative
// merge probe costs O(depth of the edited command), not O(program). The
// helpers here are the primitives: expression and statement rewriters
// that return their input unchanged (pointer-identical) when the rewriter
// touches nothing, and shallow Program/Txn replacement.

// WithTxn returns a program equal to p with the transaction at index i
// replaced by nt. Schemas and all other transactions are shared.
func WithTxn(p *Program, i int, nt *Txn) *Program {
	txns := make([]*Txn, len(p.Txns))
	copy(txns, p.Txns)
	txns[i] = nt
	return &Program{Schemas: p.Schemas, Txns: txns}
}

// WithSchemas returns a program equal to p with the schema list replaced;
// transactions are shared.
func WithSchemas(p *Program, schemas []*Schema) *Program {
	return &Program{Schemas: schemas, Txns: p.Txns}
}

// TxnIndex returns the index of the transaction with the given name, or -1.
func TxnIndex(p *Program, name string) int {
	for i, t := range p.Txns {
		if t.Name == name {
			return i
		}
	}
	return -1
}

// MapExprCOW rebuilds e bottom-up, replacing each node by fn's result after
// its children have been rewritten, and allocates a new interior node only
// when a child actually changed. A nil e maps to nil. fn must return its
// argument (pointer-identical) to signal "unchanged"; the result is then
// pointer-identical to e and shares every node.
func MapExprCOW(e Expr, fn func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	switch x := e.(type) {
	case *Binary:
		l := MapExprCOW(x.L, fn)
		r := MapExprCOW(x.R, fn)
		if l != x.L || r != x.R {
			e = &Binary{Op: x.Op, L: l, R: r}
		}
	case *FieldAt:
		if idx := MapExprCOW(x.Index, fn); idx != x.Index {
			e = &FieldAt{Var: x.Var, Field: x.Field, Index: idx}
		}
	}
	return fn(e)
}

// MapStmtsCOW rebuilds body via fn, which keeps a statement (keep true,
// repl ignored) or replaces it by repl: none deletes it, several expand
// it. It returns (body, false) when fn kept every statement, sharing the
// input slice, and allocates nothing for a kept statement. Control bodies
// are rewritten first, and their wrappers are only re-allocated when the
// nested body changed.
func MapStmtsCOW(body []Stmt, fn func(Stmt) (repl []Stmt, keep bool)) ([]Stmt, bool) {
	var out []Stmt
	changed := false
	for i, s := range body {
		switch x := s.(type) {
		case *If:
			if then, c := MapStmtsCOW(x.Then, fn); c {
				s = &If{Cond: x.Cond, Then: then}
			}
		case *Iterate:
			if b, c := MapStmtsCOW(x.Body, fn); c {
				s = &Iterate{Count: x.Count, Body: b}
			}
		}
		repl, keep := fn(s)
		if !changed {
			if keep && s == body[i] {
				continue
			}
			out = append(make([]Stmt, 0, len(body)), body[:i]...)
			changed = true
		}
		if keep {
			out = append(out, s)
		} else {
			out = append(out, repl...)
		}
	}
	if !changed {
		return body, false
	}
	return out, true
}

// MapTxnExprsCOW rewrites every expression of t (command where clauses,
// assignment right-hand sides, control conditions, and the return
// expression) by MapExprCOW with fn, rebuilding only the statements whose
// expressions changed. Returns (t, false) when nothing changed.
func MapTxnExprsCOW(t *Txn, fn func(Expr) Expr) (*Txn, bool) {
	body, bodyChanged := MapStmtsCOW(t.Body, func(s Stmt) ([]Stmt, bool) {
		if ns := rewriteStmtExprs(s, fn); ns != s {
			return []Stmt{ns}, false
		}
		return nil, true
	})
	ret := MapExprCOW(t.Ret, fn)
	if !bodyChanged && ret == t.Ret {
		return t, false
	}
	return &Txn{Name: t.Name, Params: t.Params, Body: body, Ret: ret}, true
}

// rewriteStmtExprs returns s with its directly embedded expressions
// rewritten by MapExprCOW with fn, sharing s when none changed.
func rewriteStmtExprs(s Stmt, fn func(Expr) Expr) Stmt {
	switch x := s.(type) {
	case *Select:
		if w := MapExprCOW(x.Where, fn); w != x.Where {
			return &Select{Label: x.Label, Var: x.Var, Star: x.Star, Fields: x.Fields, Table: x.Table, Where: w}
		}
	case *Update:
		w := MapExprCOW(x.Where, fn)
		sets, setsChanged := rewriteAssignsCOW(x.Sets, fn)
		if w != x.Where || setsChanged {
			return &Update{Label: x.Label, Table: x.Table, Sets: sets, Where: w}
		}
	case *Insert:
		if values, changed := rewriteAssignsCOW(x.Values, fn); changed {
			return &Insert{Label: x.Label, Table: x.Table, Values: values}
		}
	case *If:
		if c := MapExprCOW(x.Cond, fn); c != x.Cond {
			return &If{Cond: c, Then: x.Then}
		}
	case *Iterate:
		if c := MapExprCOW(x.Count, fn); c != x.Count {
			return &Iterate{Count: c, Body: x.Body}
		}
	}
	return s
}

// rewriteAssignsCOW rewrites assignment expressions by MapExprCOW with fn,
// sharing the input slice when none changed.
func rewriteAssignsCOW(as []Assign, fn func(Expr) Expr) ([]Assign, bool) {
	for i := range as {
		if e := MapExprCOW(as[i].Expr, fn); e != as[i].Expr {
			out := make([]Assign, len(as))
			copy(out, as[:i])
			out[i] = Assign{Field: as[i].Field, Expr: e}
			for j := i + 1; j < len(as); j++ {
				out[j] = Assign{Field: as[j].Field, Expr: MapExprCOW(as[j].Expr, fn)}
			}
			return out, true
		}
	}
	return as, false
}
