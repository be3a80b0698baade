package ast

// WalkExpr calls fn on e and every sub-expression of e, pre-order. If fn
// returns false the walk does not descend into the expression's children.
func WalkExpr(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch x := e.(type) {
	case *Binary:
		WalkExpr(x.L, fn)
		WalkExpr(x.R, fn)
	case *FieldAt:
		WalkExpr(x.Index, fn)
	}
}

// WalkStmts calls fn on every statement in body, pre-order, descending into
// control-command bodies. If fn returns false the walk does not descend into
// that statement's children.
func WalkStmts(body []Stmt, fn func(Stmt) bool) {
	for _, s := range body {
		walkStmt(s, fn)
	}
}

func walkStmt(s Stmt, fn func(Stmt) bool) {
	if s == nil || !fn(s) {
		return
	}
	switch x := s.(type) {
	case *If:
		WalkStmts(x.Then, fn)
	case *Iterate:
		WalkStmts(x.Body, fn)
	}
}

// Commands returns every database command in body in program order,
// including those nested inside if/iterate bodies.
func Commands(body []Stmt) []DBCommand {
	var out []DBCommand
	WalkStmts(body, func(s Stmt) bool {
		if c, ok := s.(DBCommand); ok {
			out = append(out, c)
		}
		return true
	})
	return out
}

// StmtExprs returns the expressions directly embedded in s (not those of
// nested statements).
func StmtExprs(s Stmt) []Expr {
	var out []Expr
	eachStmtExpr(s, func(e Expr) { out = append(out, e) })
	return out
}

// eachStmtExpr calls fn on each non-nil expression directly embedded in s.
func eachStmtExpr(s Stmt, fn func(Expr)) {
	add := func(e Expr) {
		if e != nil {
			fn(e)
		}
	}
	switch x := s.(type) {
	case *Select:
		add(x.Where)
	case *Update:
		add(x.Where)
		for _, a := range x.Sets {
			add(a.Expr)
		}
	case *Insert:
		for _, a := range x.Values {
			add(a.Expr)
		}
	case *If:
		add(x.Cond)
	case *Iterate:
		add(x.Count)
	}
}

// WalkTxnExprs calls WalkExpr(e, fn) on every expression appearing anywhere
// in the transaction: statement expressions (recursively through control
// bodies), then the return expression.
func WalkTxnExprs(t *Txn, fn func(Expr) bool) {
	WalkStmts(t.Body, func(s Stmt) bool {
		eachStmtExpr(s, func(e Expr) { WalkExpr(e, fn) })
		return true
	})
	WalkExpr(t.Ret, fn)
}

// VarsRead returns the names of the local variables whose query results are
// read by expression e (via at/agg accesses).
func VarsRead(e Expr) map[string]bool {
	vars := map[string]bool{}
	WalkExpr(e, func(x Expr) bool {
		switch v := x.(type) {
		case *FieldAt:
			vars[v.Var] = true
		case *Agg:
			vars[v.Var] = true
		}
		return true
	})
	return vars
}

// WhereFields returns the set of fields φ_fld referenced via this.f in a
// where clause.
func WhereFields(e Expr) []string {
	seen := map[string]bool{}
	var out []string
	WalkExpr(e, func(x Expr) bool {
		if tf, ok := x.(*ThisField); ok && !seen[tf.Field] {
			seen[tf.Field] = true
			out = append(out, tf.Field)
		}
		return true
	})
	return out
}

// MapExpr rebuilds e bottom-up, replacing each node by fn's result. fn is
// applied to the node after its children have been rewritten. A nil e maps
// to nil.
func MapExpr(e Expr, fn func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	switch x := e.(type) {
	case *Binary:
		e = &Binary{Op: x.Op, L: MapExpr(x.L, fn), R: MapExpr(x.R, fn)}
	case *FieldAt:
		e = &FieldAt{Var: x.Var, Field: x.Field, Index: MapExpr(x.Index, fn)}
	}
	return fn(e)
}

// MapStmts rebuilds every statement in body via fn, descending into control
// bodies first so fn sees statements whose children are already rewritten.
// fn may return nil to delete a statement, a single statement, or several.
func MapStmts(body []Stmt, fn func(Stmt) []Stmt) []Stmt {
	var out []Stmt
	for _, s := range body {
		switch x := s.(type) {
		case *If:
			s = &If{Cond: x.Cond, Then: MapStmts(x.Then, fn)}
		case *Iterate:
			s = &Iterate{Count: x.Count, Body: MapStmts(x.Body, fn)}
		}
		out = append(out, fn(s)...)
	}
	return out
}
