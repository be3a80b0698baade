package refactor

import (
	"slices"

	"atropos/internal/ast"
)

// This file implements the post-processing cleanups (§5): dead select
// elimination (a select whose variable is never read is obsolete — the key
// enabling condition for the logger rule) and garbage collection of schemas
// and fields the refactored program no longer accesses (Fig. 3 drops the
// COURSE and EMAIL tables entirely). Both are functional: they return a
// (possibly node-sharing) copy and leave the input program untouched.

// DeadSelects returns the labels of selects in t whose bound variable is
// never read by a later expression or the return expression.
func DeadSelects(t *ast.Txn) []string {
	var dead []string
	for _, c := range t.Commands() {
		if sel, ok := c.(*ast.Select); ok && !readsVar(t, sel.Var) {
			dead = append(dead, sel.Label)
		}
	}
	return dead
}

// RemoveDeadSelects deletes unused selects from every transaction,
// iterating to a fixpoint (removing a select can orphan the selects that
// fed its where clause). It returns the pruned program — sharing every
// untouched transaction with p — and the number of selects removed.
func RemoveDeadSelects(p *ast.Program) (*ast.Program, int) {
	removed := 0
	out := p
	for {
		changed := false
		for i := range out.Txns {
			t := out.Txns[i]
			n := 0
			body, _ := ast.MapStmtsCOW(t.Body, func(s ast.Stmt) ([]ast.Stmt, bool) {
				if sel, ok := s.(*ast.Select); ok && !readsVar(t, sel.Var) {
					n++
					return nil, false
				}
				return nil, true
			})
			if n == 0 {
				continue
			}
			if out == p {
				out = &ast.Program{Schemas: p.Schemas, Txns: slices.Clone(p.Txns)}
			}
			out.Txns[i] = withBody(t, body)
			removed += n
			changed = true
		}
		if !changed {
			return out, removed
		}
	}
}

// IsDeadSelect reports whether the select labelled label in txn is dead
// code (used by try_logging to validate the repair): what DeadSelects
// reports for that label, without collecting the others.
func IsDeadSelect(p *ast.Program, txn, label string) bool {
	t := p.Txn(txn)
	if t == nil {
		return false
	}
	for _, c := range t.Commands() {
		if sel, ok := c.(*ast.Select); ok && sel.Label == label && !readsVar(t, sel.Var) {
			return true
		}
	}
	return false
}

// readsVar reports whether an expression of t reads variable v through an
// at or agg access.
func readsVar(t *ast.Txn, v string) bool {
	read := false
	ast.WalkTxnExprs(t, func(x ast.Expr) bool {
		switch a := x.(type) {
		case *ast.FieldAt:
			read = read || a.Var == v
		case *ast.Agg:
			read = read || a.Var == v
		}
		return !read
	})
	return read
}

// accessedFields computes every (table, field) the program touches on the
// tables named in tables, treating SELECT * as touching all of the
// table's declared fields.
func accessedFields(p *ast.Program, tables map[string]map[string]bool) map[string]map[string]bool {
	acc := map[string]map[string]bool{}
	for _, t := range p.Txns {
		for _, c := range t.Commands() {
			table := c.TableName()
			if _, ok := tables[table]; !ok {
				continue
			}
			if acc[table] == nil {
				acc[table] = map[string]bool{}
			}
			a := ast.CommandAccess(c, p.Schema(table))
			for _, f := range a.Reads {
				acc[table][f] = true
			}
			for _, f := range a.Writes {
				acc[table][f] = true
			}
		}
	}
	return acc
}

// GCSchemas removes the schemas and fields the refactoring made obsolete:
// a field is dropped only when no command accesses it AND its data moved
// elsewhere (it is the source of one of the correspondences in moved —
// maps table name to the set of moved field names); a table is dropped
// only when no command accesses it and at least one of its fields moved
// (Fig. 3 drops COURSE and EMAIL). Fields and tables that are merely
// unread keep their data: dropping them would lose information and break
// the containment relation. It returns the collected program — sharing
// every surviving schema and all transactions with p, p itself when
// nothing moved — and the removed table names.
func GCSchemas(p *ast.Program, moved map[string]map[string]bool) (*ast.Program, []string) {
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
		if !used && !slices.ContainsFunc(s.NonKeyFields(), func(f *ast.Field) bool { return !movedHere[f.Name] }) {
			removedTables = append(removedTables, s.Name)
			continue
		}
		var keptFields []*ast.Field
		for _, f := range s.Fields {
			if f.PK || fields[f.Name] || !movedHere[f.Name] {
				keptFields = append(keptFields, f)
			}
		}
		if len(keptFields) < len(s.Fields) {
			kept = append(kept, &ast.Schema{Name: s.Name, Fields: keptFields})
		} else {
			kept = append(kept, s)
		}
	}
	return ast.WithSchemas(p, kept), removedTables
}
