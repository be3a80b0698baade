package ast

// EqualExpr reports structural equality of two expressions. Two nil
// expressions are equal. Used by the repair engine to decide whether two
// where clauses always select the same records (merge precondition R1).
//
// A node compared with itself — a where clause shared through the parser's
// declaration memo or a copy-on-write refactoring — is equal without a
// walk once its memoized hash proves it uuid-free. uuid() stays
// never-equal — even to itself — so the fast path requires a computed
// memo with the uuid bit clear. Otherwise the comparison walks both trees.
func EqualExpr(a, b Expr) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if a == b {
		if h := memoizedExprHash(a); h != 0 && h&hashUUID == 0 {
			return true
		}
	}
	switch x := a.(type) {
	case *IntLit:
		y, ok := b.(*IntLit)
		return ok && x.Val == y.Val
	case *BoolLit:
		y, ok := b.(*BoolLit)
		return ok && x.Val == y.Val
	case *StringLit:
		y, ok := b.(*StringLit)
		return ok && x.Val == y.Val
	case *Arg:
		y, ok := b.(*Arg)
		return ok && x.Name == y.Name
	case *Binary:
		y, ok := b.(*Binary)
		return ok && x.Op == y.Op && EqualExpr(x.L, y.L) && EqualExpr(x.R, y.R)
	case *IterVar:
		_, ok := b.(*IterVar)
		return ok
	case *ThisField:
		y, ok := b.(*ThisField)
		return ok && x.Field == y.Field
	case *FieldAt:
		y, ok := b.(*FieldAt)
		return ok && x.Var == y.Var && x.Field == y.Field && EqualExpr(x.Index, y.Index)
	case *Agg:
		y, ok := b.(*Agg)
		return ok && x.Fn == y.Fn && x.Var == y.Var && x.Field == y.Field
	case *UUID:
		// uuid() is fresh on every evaluation: never equal, even to itself.
		return false
	default:
		return false
	}
}

// EqualStmt reports structural equality of two statements (labels ignored).
func EqualStmt(a, b Stmt) bool {
	switch x := a.(type) {
	case *Select:
		y, ok := b.(*Select)
		if !ok || x.Var != y.Var || x.Star != y.Star || x.Table != y.Table {
			return false
		}
		return equalStrings(x.Fields, y.Fields) && EqualExpr(x.Where, y.Where)
	case *Update:
		y, ok := b.(*Update)
		if !ok || x.Table != y.Table {
			return false
		}
		return equalAssigns(x.Sets, y.Sets) && EqualExpr(x.Where, y.Where)
	case *Insert:
		y, ok := b.(*Insert)
		return ok && x.Table == y.Table && equalAssigns(x.Values, y.Values)
	case *If:
		y, ok := b.(*If)
		return ok && EqualExpr(x.Cond, y.Cond) && equalStmts(x.Then, y.Then)
	case *Iterate:
		y, ok := b.(*Iterate)
		return ok && EqualExpr(x.Count, y.Count) && equalStmts(x.Body, y.Body)
	case *Skip:
		_, ok := b.(*Skip)
		return ok
	default:
		return false
	}
}

func equalStmts(a, b []Stmt) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !EqualStmt(a[i], b[i]) {
			return false
		}
	}
	return true
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalAssigns(a, b []Assign) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Field != b[i].Field || !EqualExpr(a[i].Expr, b[i].Expr) {
			return false
		}
	}
	return true
}
