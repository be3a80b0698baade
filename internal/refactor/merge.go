package refactor

import (
	"fmt"
	"slices"

	"atropos/internal/ast"
)

// This file implements the command splitting used by repair's preprocessing
// (§5: "database commands are split into multiple commands such that each
// command is involved in at most one anomalous access pair") and the
// merging strategy of try_merge, including the same-records analysis that
// decides when two where clauses always select the same records (condition
// R1 of §4.2).

// Split splits the update or select labelled label in transaction txn into
// one command per field group, labelled label.1, label.2, ... (Fig. 11: U4
// becomes U4.1 and U4.2). Groups must partition the command's own fields —
// an update's set fields, a select's named columns — each field in one
// group. A split select binds a fresh variable per group, and the
// transaction's accesses of the old variable move to the one holding their
// field. The returned program is a copy; p is not modified.
func Split(p *ast.Program, txn, label string, groups [][]string) (*ast.Program, error) {
	ti := ast.TxnIndex(p, txn)
	if ti < 0 {
		return nil, errf("split", "unknown transaction %q", txn)
	}
	// own are the fields the groups must partition; verb and noun name
	// them in the error texts.
	var own []string
	verb, noun := "set", "set fields"
	c := ast.FindCommand(p.Txns[ti], label)
	switch x := c.(type) {
	case *ast.Update:
		own = make([]string, len(x.Sets))
		for i, a := range x.Sets {
			own[i] = a.Field
		}
	case *ast.Select:
		if x.Star {
			return nil, errf("split", "%s.%s: cannot split SELECT *", txn, label)
		}
		own, verb, noun = x.Fields, "select", "fields"
	default:
		return nil, errf("split", "no update or select labelled %q in %s", label, txn)
	}
	seen := make(map[string]bool, len(own))
	for _, g := range groups {
		for _, f := range g {
			switch {
			case !slices.Contains(own, f):
				return nil, errf("split", "%s.%s does not %s field %q", txn, label, verb, f)
			case seen[f]:
				return nil, errf("split", "%s.%s: field %q is in two groups", txn, label, f)
			}
			seen[f] = true
		}
	}
	if len(seen) != len(own) {
		return nil, errf("split", "%s.%s: groups cover %d of %d %s", txn, label, len(seen), len(own), noun)
	}
	parts := make([]ast.Stmt, len(groups))
	var rename func(ast.Expr) ast.Expr
	switch x := c.(type) {
	case *ast.Update:
		for i, g := range groups {
			nu := &ast.Update{Label: fmt.Sprintf("%s.%d", label, i+1), Table: x.Table, Where: x.Where}
			for _, f := range g {
				nu.Sets = append(nu.Sets, x.Sets[slices.IndexFunc(x.Sets, func(a ast.Assign) bool { return a.Field == f })])
			}
			parts[i] = nu
		}
	case *ast.Select:
		fieldVar := map[string]string{} // field -> fresh variable
		for i, g := range groups {
			nv := fmt.Sprintf("%s_%d", x.Var, i+1)
			parts[i] = &ast.Select{Label: fmt.Sprintf("%s.%d", label, i+1), Var: nv, Fields: slices.Clone(g), Table: x.Table, Where: x.Where}
			for _, f := range g {
				fieldVar[f] = nv
			}
		}
		rename = renameVar(x.Var, func(f string) string { return fieldVar[f] })
	}
	return replaceCommands(p, ti, label, parts, "", rename), nil
}

// replaceCommands returns p with transaction ti's command labelled label
// replaced by repl and the one labelled drop, if any, deleted; rename, if
// not nil, then rewrites every expression of the transaction. It
// path-copies that transaction only.
func replaceCommands(p *ast.Program, ti int, label string, repl []ast.Stmt, drop string, rename func(ast.Expr) ast.Expr) *ast.Program {
	t := p.Txns[ti]
	body, _ := ast.MapStmtsCOW(t.Body, func(s ast.Stmt) ([]ast.Stmt, bool) {
		c, ok := s.(ast.DBCommand)
		if !ok {
			return nil, true
		}
		switch c.CmdLabel() {
		case label:
			return repl, false
		case drop:
			return nil, false
		}
		return nil, true
	})
	nt := withBody(t, body)
	if rename != nil {
		nt, _ = ast.MapTxnExprsCOW(nt, rename)
	}
	return ast.WithTxn(p, ti, nt)
}

// renameVar returns the ast.MapExprCOW rewriter that moves each access
// old.f to the variable to(f), keeping it where to(f) is "".
func renameVar(old string, to func(field string) string) func(ast.Expr) ast.Expr {
	return func(x ast.Expr) ast.Expr {
		switch a := x.(type) {
		case *ast.FieldAt:
			if nv := to(a.Field); a.Var == old && nv != "" {
				return &ast.FieldAt{Var: nv, Field: a.Field, Index: a.Index}
			}
		case *ast.Agg:
			if nv := to(a.Field); a.Var == old && nv != "" {
				return &ast.Agg{Fn: a.Fn, Var: nv, Field: a.Field}
			}
		}
		return x
	}
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
// conflicting command sits between them; a select c2 that precedes c1 must
// also have its variable unread between them.
//
// All feasibility checks run against p itself — they are pure reads — so
// failing speculative probes (repair's try_repair and post-processing
// probe Merge exhaustively) cost no allocation at all. A successful merge
// path-copies only the merged transaction.
func Merge(p *ast.Program, txn, label1, label2 string) (*ast.Program, error) {
	where, err := checkMerge(p, txn, label1, label2)
	if err != nil {
		return nil, err
	}
	ti := ast.TxnIndex(p, txn)
	t := p.Txns[ti]
	var repl ast.Stmt
	var rename func(ast.Expr) ast.Expr
	switch x1 := ast.FindCommand(t, label1).(type) {
	case *ast.Select:
		x2 := ast.FindCommand(t, label2).(*ast.Select)
		repl = mergedSelect(x1, x2, where)
		// Uses of c2's variable now read from the merged select.
		rename = renameVar(x2.Var, func(string) string { return x1.Var })
	case *ast.Update:
		repl = mergedUpdate(x1, ast.FindCommand(t, label2).(*ast.Update), where)
	}
	return replaceCommands(p, ti, label1, []ast.Stmt{repl}, label2, rename), nil
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
		x2, ok := pc2.(*ast.Select)
		if !ok {
			return nil, errf("merge", "%s: %s and %s are different kinds", txn, label1, label2)
		}
		if readBetween(pt, x2, x1) {
			return nil, errf("merge", "%s: %q is read between %s and %s, before the merged select binds it", txn, x2.Var, label2, label1)
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

// readBetween reports whether a statement that runs after the select from
// and before the command to reads from's variable. Merging from into a
// later to renames those reads to a variable not yet bound there.
func readBetween(t *ast.Txn, from *ast.Select, to ast.DBCommand) bool {
	in, stop, read := false, false, false
	ast.WalkStmts(t.Body, func(s ast.Stmt) bool {
		if stop {
			return false
		}
		switch {
		case s == to:
			stop = true
		case s == from:
			in = true
		case in:
			for _, e := range ast.StmtExprs(s) {
				if ast.VarsRead(e)[from.Var] {
					read, stop = true, true
				}
			}
		}
		return !stop
	})
	return read
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
