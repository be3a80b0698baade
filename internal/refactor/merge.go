package refactor

import (
	"atropos/internal/ast"
)

// This file implements the command splitting used by repair's preprocessing
// (§5: "database commands are split into multiple commands such that each
// command is involved in at most one anomalous access pair") and the
// merging strategy of try_merge, including the same-records analysis that
// decides when two where clauses always select the same records (condition
// R1 of §4.2). The feasibility analyses here are pure reads; the
// transformations live in cow.go.

// SplitUpdate splits the update labelled label in transaction txn into one
// update per field group, labelled label.1, label.2, ... (Fig. 11: U4
// becomes U4.1 and U4.2). Groups must partition the update's set fields.
// The returned program is a copy; p is not modified.
func SplitUpdate(p *ast.Program, txn, label string, groups [][]string) (*ast.Program, error) {
	return cowSplitUpdate(p, txn, label, groups)
}

// SplitSelect splits the select labelled label into one select per field
// group with fresh variables, rewriting downstream accesses accordingly.
// The returned program is a copy; p is not modified.
func SplitSelect(p *ast.Program, txn, label string, groups [][]string) (*ast.Program, error) {
	return cowSplitSelect(p, txn, label, groups)
}

// SameRecords decides whether two commands of one transaction always select
// the same set of records (try_merge's R1 condition). Three patterns are
// recognized, mirroring the paper's examples (§5):
//
//  1. syntactically equal where clauses;
//  2. the lookup pattern: one clause pins this.g = x.g where x was selected
//     from the same table by the other clause (Fig. 9's st_em_id lookup);
//  3. the pinned-by-set pattern: one command's update sets g = e and the
//     other clause is this.g = e (Fig. 11's st_co_id = course).
//
// It returns the where clause the merged command should keep.
func SameRecords(t *ast.Txn, c1, c2 ast.DBCommand) (ast.Expr, bool) {
	w1 := ast.WhereOf(c1)
	w2 := ast.WhereOf(c2)
	if w1 == nil || w2 == nil {
		return nil, false
	}
	if ast.EqualExpr(w1, w2) {
		return w1, true
	}
	if samePinMaps(c1, c2) {
		return w1, true
	}
	if lookupPattern(t, c1.TableName(), w1, w2) {
		return w1, true
	}
	if lookupPattern(t, c2.TableName(), w2, w1) {
		return w2, true
	}
	if pinnedBySet(t, c1, c2) {
		return w1, true
	}
	if pinnedBySet(t, c2, c1) {
		return w2, true
	}
	return nil, false
}

// samePinMaps reports equality of the where clauses of two commands that
// are equality conjunctions, up to conjunct reordering.
func samePinMaps(c1, c2 ast.DBCommand) bool {
	e1, ok1 := ast.CommandEqualities(c1)
	e2, ok2 := ast.CommandEqualities(c2)
	if !ok1 || !ok2 || len(e1) != len(e2) {
		return false
	}
	for _, q := range e2 {
		if e := e1.Of(q.Field); e == nil || !ast.EqualExpr(e, q.Expr) {
			return false
		}
	}
	return true
}

// lookupPattern reports whether wLookup has the shape this.g = x.g where x
// was bound by a select on table whose where clause equals wAnchor: the
// looked-up record is the anchored record itself.
func lookupPattern(t *ast.Txn, table string, wAnchor, wLookup ast.Expr) bool {
	bin, ok := wLookup.(*ast.Binary)
	if !ok || bin.Op != ast.OpEq {
		return false
	}
	tf, ok := bin.L.(*ast.ThisField)
	if !ok {
		return false
	}
	fa, ok := bin.R.(*ast.FieldAt)
	if !ok || fa.Index != nil || fa.Field != tf.Field {
		return false
	}
	sel := ast.FindSelect(t, fa.Var)
	return sel != nil && sel.Table == table && ast.EqualExpr(sel.Where, wAnchor)
}

// pinnedBySet reports whether every equality conjunct this.g = e of
// other's where clause is justified by the anchor command c: either c's
// update sets g = e (after c runs its target records satisfy the conjunct —
// Fig. 11's st_co_id = course) or c's own where clause pins g to the same
// expression.
func pinnedBySet(t *ast.Txn, c, other ast.DBCommand) bool {
	pins, ok := ast.CommandEqualities(other)
	if !ok || len(pins) == 0 {
		return false
	}
	wAnchor := ast.WhereOf(c)
	anchorPins, _ := ast.CommandEqualities(c)
	u, isUpdate := c.(*ast.Update)
	for _, q := range pins {
		justified := false
		if isUpdate {
			for _, a := range u.Sets {
				if a.Field == q.Field && ast.EqualExpr(a.Expr, q.Expr) {
					justified = true
					break
				}
			}
		}
		if !justified {
			if e := anchorPins.Of(q.Field); e != nil && ast.EqualExpr(e, q.Expr) {
				justified = true
			}
		}
		if !justified && lookupConjunct(t, c.TableName(), wAnchor, q) {
			justified = true
		}
		if !justified {
			return false
		}
	}
	return true
}

// lookupConjunct reports whether the conjunct this.g = x.g reads g from the
// record selected by wAnchor on the same table.
func lookupConjunct(t *ast.Txn, table string, wAnchor ast.Expr, q ast.WhereEquality) bool {
	fa, ok := q.Expr.(*ast.FieldAt)
	if !ok || fa.Index != nil || fa.Field != q.Field {
		return false
	}
	sel := ast.FindSelect(t, fa.Var)
	return sel != nil && sel.Table == table && ast.EqualExpr(sel.Where, wAnchor)
}

// Merge merges command c2 into c1 within transaction txn (both identified
// by label): the merged command takes c1's position, and uses of c2's
// variable are rewritten to c1's. It fails unless the commands are the same
// kind, on the same table, provably select the same records, and no
// conflicting command sits between them.
//
// All feasibility checks run against p itself — they are pure reads — so
// failing speculative probes (repair's try_repair and post-processing
// probe Merge exhaustively) cost no allocation at all. A successful merge
// path-copies only the merged transaction under the default engine.
func Merge(p *ast.Program, txn, label1, label2 string) (*ast.Program, error) {
	mergedWhere, err := checkMerge(p, txn, label1, label2)
	if err != nil {
		return nil, err
	}
	return cowMerge(p, txn, label1, label2, mergedWhere), nil
}

// checkMerge runs Merge's feasibility checks (pure reads against p) and
// returns the where clause the merged command keeps.
func checkMerge(p *ast.Program, txn, label1, label2 string) (ast.Expr, error) {
	pt := p.Txn(txn)
	if pt == nil {
		return nil, errf("merge", "unknown transaction %q", txn)
	}
	pc1 := ast.FindCommand(pt, label1)
	pc2 := ast.FindCommand(pt, label2)
	if pc1 == nil || pc2 == nil {
		return nil, errf("merge", "%s: commands %q/%q not found", txn, label1, label2)
	}
	if pc1.TableName() != pc2.TableName() {
		return nil, errf("merge", "%s: %s and %s target different tables", txn, label1, label2)
	}
	mergedWhere, ok := SameRecords(pt, pc1, pc2)
	if !ok {
		return nil, errf("merge", "%s: cannot prove %s and %s select the same records", txn, label1, label2)
	}
	if err := checkNoConflictBetween(pt, pc1, pc2); err != nil {
		return nil, err
	}
	switch x1 := pc1.(type) {
	case *ast.Select:
		if _, ok := pc2.(*ast.Select); !ok {
			return nil, errf("merge", "%s: %s and %s are different kinds", txn, label1, label2)
		}
	case *ast.Update:
		x2, ok := pc2.(*ast.Update)
		if !ok {
			return nil, errf("merge", "%s: %s and %s are different kinds", txn, label1, label2)
		}
		for _, a := range x2.Sets {
			for _, b := range x1.Sets {
				if b.Field == a.Field && !ast.EqualExpr(a.Expr, b.Expr) {
					return nil, errf("merge", "%s: %s and %s set %q to different values", txn, label1, label2, a.Field)
				}
			}
		}
	default:
		return nil, errf("merge", "%s: %s is not mergeable (inserts are already atomic)", txn, label1)
	}
	return mergedWhere, nil
}

// checkNoConflictBetween refuses the merge when a command between c1 and c2
// could observe or disturb the effect of moving c2 up to c1's position.
func checkNoConflictBetween(t *ast.Txn, c1, c2 ast.DBCommand) error {
	cmds := t.Commands()
	i1, i2 := -1, -1
	for i, c := range cmds {
		if c.CmdLabel() == c1.CmdLabel() {
			i1 = i
		}
		if c.CmdLabel() == c2.CmdLabel() {
			i2 = i
		}
	}
	if i1 < 0 || i2 < 0 {
		return errf("merge", "%s: commands not found", t.Name)
	}
	if i1 > i2 {
		i1, i2 = i2, i1
	}
	_, c2IsSelect := c2.(*ast.Select)
	between := cmds[i1+1 : i2]
	for _, c := range between {
		if c.TableName() != c2.TableName() {
			continue
		}
		if _, isSel := c.(*ast.Select); isSel && c2IsSelect {
			continue // reads commute with reads
		}
		return errf("merge", "%s: command %s between %s and %s conflicts with the merge",
			t.Name, c.CmdLabel(), c1.CmdLabel(), c2.CmdLabel())
	}
	// Moving c2 up must not break def-use: its expressions may not read
	// variables bound between the two commands.
	needed := map[string]bool{}
	for _, e := range ast.StmtExprs(c2) {
		for v := range ast.VarsRead(e) {
			needed[v] = true
		}
	}
	for _, c := range between {
		if sel, ok := c.(*ast.Select); ok && needed[sel.Var] {
			return errf("merge", "%s: %s reads %q bound between the merge points", t.Name, c2.CmdLabel(), sel.Var)
		}
	}
	return nil
}
