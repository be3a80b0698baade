package refactor

import (
	"fmt"
	"slices"

	"atropos/internal/ast"
)

// The copy-on-write engine (DESIGN.md §10): every rule returns a program
// that path-copies only the spine from the edited node up to the Program
// header. A speculative probe that edits one command in one transaction
// allocates a Program header, one transaction, the rewritten statements,
// and the rebuilt expressions — everything else (all other transactions,
// all schemas, every untouched statement and expression) is shared with
// the input. Sound because shared AST nodes are immutable (ast package
// contract); pinned by the repaired-program golden and the sharing and
// input-not-mutated tests in internal/repair and internal/refactor.

// cowIntroSchema returns p with schema s appended.
func cowIntroSchema(p *ast.Program, s *ast.Schema) *ast.Program {
	schemas := make([]*ast.Schema, len(p.Schemas), len(p.Schemas)+1)
	copy(schemas, p.Schemas)
	return ast.WithSchemas(p, append(schemas, s))
}

func cowIntroField(p *ast.Program, table string, field ast.Field) *ast.Program {
	schemas := make([]*ast.Schema, len(p.Schemas))
	copy(schemas, p.Schemas)
	for i, s := range schemas {
		if s.Name != table {
			continue
		}
		fields := make([]*ast.Field, len(s.Fields), len(s.Fields)+1)
		copy(fields, s.Fields)
		cp := field
		schemas[i] = &ast.Schema{Name: s.Name, Fields: append(fields, &cp)}
		break
	}
	return ast.WithSchemas(p, schemas)
}

// txnRewrite is a validated transaction ApplyCorr rewrites: its index and
// the variables whose selects it redirects.
type txnRewrite struct {
	i          int
	redirected map[string]bool
}

// cowApplyCorr applies [[·]]_v to every transaction. It validates them in
// program order before it rewrites any, so a probe that fails validation
// builds no transaction: a validated transaction always rewrites under
// the redirect rule. Under the logger rule a rewrite can fail too, so the
// transactions before the one that failed validation are rewritten first,
// and the first failure in program order is the error. A transaction that
// does not access (v.SrcTable, v.SrcField) is shared.
func cowApplyCorr(p *ast.Program, src *ast.Schema, v ValueCorr) (*ast.Program, error) {
	todo := make([]txnRewrite, 0, 8)
	var verr error
	for i, t := range p.Txns {
		redirected, touched, err := validateRewriteTxn(t, src, v)
		if err != nil {
			verr = err
			break
		}
		if touched {
			todo = append(todo, txnRewrite{i, redirected})
		}
	}
	if verr != nil && !v.Logging {
		return nil, verr
	}
	out := &ast.Program{Schemas: p.Schemas, Txns: slices.Clone(p.Txns)}
	for _, w := range todo {
		nt, err := cowRewriteTxn(p.Txns[w.i], src, v, w.redirected)
		if err != nil {
			return nil, err
		}
		out.Txns[w.i] = nt
	}
	if verr != nil {
		return nil, verr
	}
	return out, nil
}

// cowRewriteTxn applies [[·]]_v to one transaction validateRewriteTxn
// accepted, redirected being the variables it returned; src is
// v.SrcTable's schema.
func cowRewriteTxn(t *ast.Txn, src *ast.Schema, v ValueCorr, redirected map[string]bool) (*ast.Txn, error) {
	nt, err := rewriteCommands(t, src, v)
	// Without a redirected variable pass 3 has nothing to rewrite.
	if err != nil || len(redirected) == 0 {
		return nt, err
	}
	return rewriteRedirectedAccesses(nt, v, redirected)
}

// rewriteCommands is pass 2 of [[·]]_v on one transaction
// validateRewriteTxn accepted: it rewrites t's commands on v.SrcTable
// that access the moved field.
func rewriteCommands(t *ast.Txn, src *ast.Schema, v ValueCorr) (*ast.Txn, error) {
	var rerr error
	body, bodyChanged := ast.MapStmtsCOW(t.Body, func(s ast.Stmt) ([]ast.Stmt, bool) {
		if rerr != nil {
			return nil, true
		}
		c, ok := s.(ast.DBCommand)
		if !ok || c.TableName() != v.SrcTable {
			return nil, true
		}
		switch x := c.(type) {
		case *ast.Select:
			if len(x.Fields) != 1 || x.Fields[0] != v.SrcField {
				return nil, true
			}
			nw, err := redirectWhere(x, src, v)
			if err != nil {
				rerr = err
				return nil, true
			}
			return []ast.Stmt{&ast.Select{
				Label: x.Label, Var: x.Var,
				Fields: []string{v.DstField},
				Table:  v.DstTable,
				Where:  nw,
			}}, false
		case *ast.Update:
			if len(x.Sets) != 1 || x.Sets[0].Field != v.SrcField {
				return nil, true
			}
			ns, err := rewriteUpdate(x, src, v, t)
			if err != nil {
				rerr = err
				return nil, true
			}
			return []ast.Stmt{ns}, false
		}
		return nil, true
	})
	if rerr != nil {
		return nil, rerr
	}
	if bodyChanged {
		return &ast.Txn{Name: t.Name, Params: t.Params, Body: body, Ret: t.Ret}, nil
	}
	return t, nil
}

// rewriteRedirectedAccesses is pass 3 of [[·]]_v: it rewrites accesses
// through redirected variables everywhere (commands' embedded expressions
// and the return expression): R2.
func rewriteRedirectedAccesses(t *ast.Txn, v ValueCorr, redirected map[string]bool) (*ast.Txn, error) {
	var rerr error
	fn := redirectedAccessRewriter(t, v, redirected, &rerr)
	nt, _ := ast.MapTxnExprsCOW(t, func(e ast.Expr) ast.Expr { return ast.MapExprCOW(e, fn) })
	if rerr != nil {
		return nil, rerr
	}
	return nt, nil
}

func cowSplitUpdate(p *ast.Program, txn, label string, groups [][]string) (*ast.Program, error) {
	ti := ast.TxnIndex(p, txn)
	if ti < 0 {
		return nil, errf("split", "unknown transaction %q", txn)
	}
	t := p.Txns[ti]
	var serr error
	found := false
	body, _ := ast.MapStmtsCOW(t.Body, func(s ast.Stmt) ([]ast.Stmt, bool) {
		u, ok := s.(*ast.Update)
		if !ok || u.Label != label {
			return nil, true
		}
		found = true
		parts, err := splitUpdateParts(u, txn, label, groups)
		if err != nil {
			serr = err
			return nil, true
		}
		return parts, false
	})
	if serr != nil {
		return nil, serr
	}
	if !found {
		return nil, errf("split", "no update labelled %q in %s", label, txn)
	}
	return ast.WithTxn(p, ti, &ast.Txn{Name: t.Name, Params: t.Params, Body: body, Ret: t.Ret}), nil
}

func cowSplitSelect(p *ast.Program, txn, label string, groups [][]string) (*ast.Program, error) {
	ti := ast.TxnIndex(p, txn)
	if ti < 0 {
		return nil, errf("split", "unknown transaction %q", txn)
	}
	t := p.Txns[ti]
	var serr error
	found := false
	fieldVar := map[string]string{} // field -> new variable
	var oldVar string
	body, _ := ast.MapStmtsCOW(t.Body, func(s ast.Stmt) ([]ast.Stmt, bool) {
		sel, ok := s.(*ast.Select)
		if !ok || sel.Label != label {
			return nil, true
		}
		if sel.Star {
			serr = errf("split", "%s.%s: cannot split SELECT *", txn, label)
			return nil, true
		}
		found = true
		oldVar = sel.Var
		parts, err := splitSelectParts(sel, txn, label, groups, fieldVar)
		if err != nil {
			serr = err
			return nil, true
		}
		return parts, false
	})
	if serr != nil {
		return nil, serr
	}
	if !found {
		return nil, errf("split", "no select labelled %q in %s", label, txn)
	}
	nt := &ast.Txn{Name: t.Name, Params: t.Params, Body: body, Ret: t.Ret}
	// Rewrite accesses x.f to the new variable holding f.
	fn := splitVarRewriter(oldVar, fieldVar)
	nt, _ = ast.MapTxnExprsCOW(nt, func(e ast.Expr) ast.Expr { return ast.MapExprCOW(e, fn) })
	return ast.WithTxn(p, ti, nt), nil
}

// cowMerge performs the validated merge, path-copying only the merged
// transaction. mergedWhere may alias p — sharing it is sound.
func cowMerge(p *ast.Program, txn, label1, label2 string, mergedWhere ast.Expr) *ast.Program {
	ti := ast.TxnIndex(p, txn)
	t := p.Txns[ti]
	c1 := ast.FindCommand(t, label1)
	c2 := ast.FindCommand(t, label2)

	var repl ast.Stmt
	var rewriteVars func(ast.Expr) ast.Expr
	switch x1 := c1.(type) {
	case *ast.Select:
		x2 := c2.(*ast.Select)
		repl = mergedSelect(x1, x2, mergedWhere)
		// Uses of c2's variable now read from the merged select.
		rewriteVars = mergeVarRewriter(x2.Var, x1.Var)
	case *ast.Update:
		x2 := c2.(*ast.Update)
		repl = mergedUpdate(x1, x2, mergedWhere)
	}

	body, _ := ast.MapStmtsCOW(t.Body, func(s ast.Stmt) ([]ast.Stmt, bool) {
		c, ok := s.(ast.DBCommand)
		if !ok {
			return nil, true
		}
		switch c.CmdLabel() {
		case label1:
			return []ast.Stmt{repl}, false
		case label2:
			return nil, false
		}
		return nil, true
	})
	nt := &ast.Txn{Name: t.Name, Params: t.Params, Body: body, Ret: t.Ret}
	if rewriteVars != nil {
		nt, _ = ast.MapTxnExprsCOW(nt, func(e ast.Expr) ast.Expr { return ast.MapExprCOW(e, rewriteVars) })
	}
	return ast.WithTxn(p, ti, nt)
}

func cowRemoveDeadSelects(p *ast.Program) (*ast.Program, int) {
	removed := 0
	out := p
	for {
		changed := false
		for i := range out.Txns {
			t := out.Txns[i]
			dead := DeadSelects(t)
			if len(dead) == 0 {
				continue
			}
			deadSet := map[string]bool{}
			for _, label := range dead {
				deadSet[label] = true
			}
			body, _ := ast.MapStmtsCOW(t.Body, func(s ast.Stmt) ([]ast.Stmt, bool) {
				sel, ok := s.(*ast.Select)
				return nil, !ok || !deadSet[sel.Label]
			})
			if out == p {
				out = &ast.Program{Schemas: p.Schemas, Txns: make([]*ast.Txn, len(p.Txns))}
				copy(out.Txns, p.Txns)
			}
			out.Txns[i] = &ast.Txn{Name: t.Name, Params: t.Params, Body: body, Ret: t.Ret}
			removed += len(dead)
			changed = true
		}
		if !changed {
			return out, removed
		}
	}
}

func cowGCSchemas(p *ast.Program, moved map[string]map[string]bool) (*ast.Program, []string) {
	if len(moved) == 0 {
		return p, nil
	}
	acc := accessedFields(p, moved)
	kept := make([]*ast.Schema, 0, len(p.Schemas))
	var removedTables []string
	for _, s := range p.Schemas {
		movedHere := moved[s.Name]
		if len(movedHere) == 0 {
			kept = append(kept, s)
			continue
		}
		fields, used := acc[s.Name]
		if gcDropsTable(s, used, movedHere) {
			removedTables = append(removedTables, s.Name)
			continue
		}
		var keptFields []*ast.Field
		dropped := false
		for _, f := range s.Fields {
			if f.PK || fields[f.Name] || !movedHere[f.Name] {
				keptFields = append(keptFields, f)
			} else {
				dropped = true
			}
		}
		if dropped {
			kept = append(kept, &ast.Schema{Name: s.Name, Fields: keptFields})
		} else {
			kept = append(kept, s)
		}
	}
	return ast.WithSchemas(p, kept), removedTables
}

// splitUpdateParts builds the per-group updates of SplitUpdate (Fig. 11:
// U4 becomes U4.1 and U4.2).
func splitUpdateParts(u *ast.Update, txn, label string, groups [][]string) ([]ast.Stmt, error) {
	byField := map[string]ast.Assign{}
	for _, a := range u.Sets {
		byField[a.Field] = a
	}
	var parts []ast.Stmt
	covered := 0
	for i, g := range groups {
		nu := &ast.Update{
			Label: fmt.Sprintf("%s.%d", label, i+1),
			Table: u.Table,
			Where: u.Where,
		}
		for _, f := range g {
			a, ok := byField[f]
			if !ok {
				return nil, errf("split", "%s.%s does not set field %q", txn, label, f)
			}
			nu.Sets = append(nu.Sets, ast.Assign{Field: f, Expr: a.Expr})
			covered++
		}
		parts = append(parts, nu)
	}
	if covered != len(u.Sets) {
		return nil, errf("split", "%s.%s: groups cover %d of %d set fields", txn, label, covered, len(u.Sets))
	}
	return parts, nil
}

// splitSelectParts builds the per-group selects of SplitSelect, recording
// the field → fresh-variable mapping in fieldVar.
func splitSelectParts(sel *ast.Select, txn, label string, groups [][]string, fieldVar map[string]string) ([]ast.Stmt, error) {
	have := map[string]bool{}
	for _, f := range sel.Fields {
		have[f] = true
	}
	var parts []ast.Stmt
	covered := 0
	for i, g := range groups {
		nv := fmt.Sprintf("%s_%d", sel.Var, i+1)
		ns := &ast.Select{
			Label: fmt.Sprintf("%s.%d", label, i+1),
			Var:   nv,
			Table: sel.Table,
			Where: sel.Where,
		}
		for _, f := range g {
			if !have[f] {
				return nil, errf("split", "%s.%s does not select field %q", txn, label, f)
			}
			ns.Fields = append(ns.Fields, f)
			fieldVar[f] = nv
			covered++
		}
		parts = append(parts, ns)
	}
	if covered != len(sel.Fields) {
		return nil, errf("split", "%s.%s: groups cover %d of %d fields", txn, label, covered, len(sel.Fields))
	}
	return parts, nil
}

// splitVarRewriter rewrites accesses x.f of the split select's old variable
// to the new variable holding f.
func splitVarRewriter(oldVar string, fieldVar map[string]string) func(ast.Expr) ast.Expr {
	return func(x ast.Expr) ast.Expr {
		switch fa := x.(type) {
		case *ast.FieldAt:
			if fa.Var == oldVar {
				if nv, ok := fieldVar[fa.Field]; ok {
					return &ast.FieldAt{Var: nv, Field: fa.Field, Index: fa.Index}
				}
			}
		case *ast.Agg:
			if fa.Var == oldVar {
				if nv, ok := fieldVar[fa.Field]; ok {
					return &ast.Agg{Fn: fa.Fn, Var: nv, Field: fa.Field}
				}
			}
		}
		return x
	}
}

// mergeVarRewriter rewrites accesses of the removed select's variable to
// the merged select's.
func mergeVarRewriter(old, nw string) func(ast.Expr) ast.Expr {
	return func(x ast.Expr) ast.Expr {
		switch fa := x.(type) {
		case *ast.FieldAt:
			if fa.Var == old {
				return &ast.FieldAt{Var: nw, Field: fa.Field, Index: fa.Index}
			}
		case *ast.Agg:
			if fa.Var == old {
				return &ast.Agg{Fn: fa.Fn, Var: nw, Field: fa.Field}
			}
		}
		return x
	}
}

// mergedSelect builds the merged select of two validated same-records
// selects.
func mergedSelect(x1, x2 *ast.Select, where ast.Expr) *ast.Select {
	merged := &ast.Select{Label: x1.Label, Var: x1.Var, Table: x1.Table, Where: where}
	if x1.Star || x2.Star {
		merged.Star = true
	} else {
		seen := map[string]bool{}
		for _, f := range append(append([]string(nil), x1.Fields...), x2.Fields...) {
			if !seen[f] {
				seen[f] = true
				merged.Fields = append(merged.Fields, f)
			}
		}
	}
	return merged
}

// mergedUpdate builds the merged update of two validated same-records
// updates (equal-valued duplicate sets validated by checkMerge).
func mergedUpdate(x1, x2 *ast.Update, where ast.Expr) *ast.Update {
	merged := &ast.Update{Label: x1.Label, Table: x1.Table, Where: where}
	for _, a := range x1.Sets {
		merged.Sets = append(merged.Sets, ast.Assign{Field: a.Field, Expr: a.Expr})
	}
	for _, a := range x2.Sets {
		dup := false
		for _, b := range x1.Sets {
			if b.Field == a.Field {
				dup = true // equal exprs: validated before applying
			}
		}
		if !dup {
			merged.Sets = append(merged.Sets, ast.Assign{Field: a.Field, Expr: a.Expr})
		}
	}
	return merged
}

// gcDropsTable decides whether GCSchemas drops a whole table: no command
// accesses it and every non-key field's data moved elsewhere.
func gcDropsTable(s *ast.Schema, used bool, movedHere map[string]bool) bool {
	allMoved := len(movedHere) > 0
	for _, f := range s.NonKeyFields() {
		if !movedHere[f.Name] {
			allMoved = false
		}
	}
	return !used && allMoved
}
