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
	var used []string // variables read through at/agg accesses
	ast.WalkTxnExprs(t, func(x ast.Expr) bool {
		v := ""
		switch a := x.(type) {
		case *ast.FieldAt:
			v = a.Var
		case *ast.Agg:
			v = a.Var
		default:
			return true
		}
		if !slices.Contains(used, v) {
			used = append(used, v)
		}
		return true
	})
	var dead []string
	for _, c := range t.Commands() {
		if sel, ok := c.(*ast.Select); ok && !slices.Contains(used, sel.Var) {
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
	return cowRemoveDeadSelects(p)
}

// IsDeadSelect reports whether the select labelled label in txn is dead
// code (used by try_logging to validate the repair).
func IsDeadSelect(p *ast.Program, txn, label string) bool {
	t := p.Txn(txn)
	if t == nil {
		return false
	}
	for _, d := range DeadSelects(t) {
		if d == label {
			return true
		}
	}
	return false
}

// accessedFields computes every (table, field) the program touches,
// treating SELECT * as touching all of the table's declared fields.
func accessedFields(p *ast.Program) map[string]map[string]bool {
	acc := map[string]map[string]bool{}
	touch := func(table, field string) {
		if acc[table] == nil {
			acc[table] = map[string]bool{}
		}
		acc[table][field] = true
	}
	for _, t := range p.Txns {
		for _, c := range t.Commands() {
			schema := p.Schema(c.TableName())
			a := ast.CommandAccess(c, schema)
			for _, f := range a.Reads {
				touch(c.TableName(), f)
			}
			for _, f := range a.Writes {
				touch(c.TableName(), f)
			}
			if acc[c.TableName()] == nil {
				acc[c.TableName()] = map[string]bool{}
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
// every surviving schema and all transactions with p — and the removed
// table names.
func GCSchemas(p *ast.Program, moved map[string]map[string]bool) (*ast.Program, []string) {
	return cowGCSchemas(p, moved)
}
