package anomaly

import (
	"iter"
	"strconv"

	"atropos/internal/ast"
)

// This file implements the record-aliasing analysis: each command's where
// clause (or insert value list) is abstracted into symbolic terms pinning
// the target table's primary-key fields. Whether two commands may access a
// common record reduces to satisfiability of equalities between these
// terms: constants decide immediately, uuid() terms are globally fresh
// (never equal to anything), and everything else becomes a free equality
// atom subject to congruence (symmetry by canonical naming, transitivity
// asserted per sort).

// keyTerm is one primary-key field a command pins, with the term pinning
// it: the field's bit in its table's layout, the term's kind (a TermKind),
// and its id in the pass's term table. Equal ids denote equal runtime
// values.
type keyTerm struct {
	bit  uint8
	kind uint8
	id   int32
}

// termEntry is one interned term. A TermExpr term belongs to the instance
// evaluating it, so the same expression in the two transaction instances
// yields two terms; a constant belongs to neither (inst -1); a uuid() term
// is fresh per command instance (cmd, -1 for other kinds, is the
// command's index). digest is the term's identity folded into content
// keys: unlike the id, it does not depend on the order the pass met its
// terms in.
type termEntry struct {
	e      ast.Expr
	kind   uint8
	inst   int8
	cmd    int32
	digest uint64
}

// term interns the term of the expression pinning a primary-key field of
// command cmdIdx of instance inst. Expressions are one term when they are
// structurally equal, or, since EqualExpr never equates an expression
// holding a uuid(), when they print alike.
func (p *pass) term(e ast.Expr, inst, cmdIdx int) (kind uint8, id int32) {
	te := termEntry{e: e, kind: uint8(TermExpr), inst: int8(inst), cmd: -1}
	switch e.(type) {
	case *ast.IntLit, *ast.BoolLit, *ast.StringLit:
		te.kind, te.inst = uint8(TermConst), -1
	case *ast.UUID:
		te.kind, te.cmd = uint8(TermUUID), int32(cmdIdx)
	}
	te.digest = ast.NewHasher().Uint(ast.HashExpr(e)).Uint(uint64(te.kind)).Uint(uint64(te.inst)).Uint(uint64(te.cmd)).Sum()
	for slot := te.digest; ; slot++ {
		id, ok := p.termIDs[slot]
		if !ok {
			p.termIDs[slot] = int32(len(p.terms))
			p.terms = append(p.terms, te)
			return te.kind, int32(len(p.terms) - 1)
		}
		if o := &p.terms[id]; o.kind == te.kind && o.inst == te.inst && o.cmd == te.cmd &&
			(ast.EqualExpr(o.e, e) || ast.ExprString(o.e) == ast.ExprString(e)) {
			return te.kind, id
		}
	}
}

// termString renders term id as a Schedule names it: "ci5", "cbtrue" or
// "cs…" for a constant, "u<inst>_<cmd>" for a uuid(), "e<inst>_<expr>" for
// anything else.
func (p *pass) termString(id int32) string {
	te := &p.terms[id]
	switch x := te.e.(type) {
	case *ast.IntLit:
		return "ci" + strconv.FormatInt(x.Val, 10)
	case *ast.BoolLit:
		return "cb" + strconv.FormatBool(x.Val)
	case *ast.StringLit:
		return "cs" + x.Val
	case *ast.UUID:
		return "u" + strconv.Itoa(int(te.inst)) + "_" + strconv.Itoa(int(te.cmd))
	default:
		return "e" + strconv.Itoa(int(te.inst)) + "_" + ast.ExprString(x)
	}
}

// eqStatus is the decidable part of term equality.
type eqStatus int

const (
	eqUnknown eqStatus = iota
	eqTrue
	eqFalse
)

// decideEq returns whether two terms are definitely equal, definitely
// unequal, or execution-dependent.
func decideEq(a, b keyTerm) eqStatus {
	if a.id == b.id {
		return eqTrue
	}
	if a.kind == uint8(TermUUID) || b.kind == uint8(TermUUID) {
		// uuid() values are globally fresh: unequal to every other value.
		return eqFalse
	}
	if a.kind == uint8(TermConst) && b.kind == uint8(TermConst) {
		return eqFalse // distinct ids ⇒ distinct constants
	}
	return eqUnknown
}

// keyConstraint lists the primary-key fields of a table a command pins,
// in field-bit (so name) order, with the term pinning each; unconstrained
// fields are absent (the command may range over that dimension).
type keyConstraint []keyTerm

// pkPins visits the (primary-key field, pinning expression) pairs of a
// database command. For selects/updates these are the equality conjuncts
// of the where clause (other shapes leave fields unconstrained — a
// conservative over-approximation); for inserts, the value list (inserts
// always pin the full key).
func pkPins(c ast.DBCommand, schema *ast.Schema, visit func(field string, e ast.Expr)) {
	isPK := func(field string) bool {
		f := schema.Field(field)
		return f != nil && f.PK
	}
	where := func(w ast.Expr) {
		if eqs, ok := ast.WhereEqualities(w); ok {
			for _, q := range eqs {
				if isPK(q.Field) {
					visit(q.Field, q.Expr)
				}
			}
		}
	}
	switch x := c.(type) {
	case *ast.Select:
		where(x.Where)
	case *ast.Update:
		where(x.Where)
	case *ast.Insert:
		for _, a := range x.Values {
			if isPK(a.Field) {
				visit(a.Field, a.Expr)
			}
		}
	}
}

// commonFields yields the positions (i in a, j in b) of every field both
// constraints pin.
func commonFields(a, b keyConstraint) iter.Seq2[int, int] {
	return func(yield func(int, int) bool) {
		for i, j := 0, 0; i < len(a) && j < len(b); {
			switch {
			case a[i].bit < b[j].bit:
				i++
			case a[i].bit > b[j].bit:
				j++
			default:
				if !yield(i, j) {
					return
				}
				i++
				j++
			}
		}
	}
}

// mustDiffer reports whether two commands on the same table can never
// access a common record: some primary-key field is pinned by both to
// definitely-unequal terms.
func mustDiffer(a, b keyConstraint) bool {
	for i, j := range commonFields(a, b) {
		if decideEq(a[i], b[j]) == eqFalse {
			return true
		}
	}
	return false
}
