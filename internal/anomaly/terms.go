package anomaly

import (
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
// and the term's digest (keyTermOf). Equal digests denote equal runtime
// values. A digest does not depend on the pass that computed it, so facts
// holding key terms outlive their pass, and the query memo's content keys
// fold the digests in.
type keyTerm struct {
	bit    uint8
	kind   uint8
	digest uint64
}

// keyTermOf is key-term identity: the term of expression e pinning field
// bit of command cmd of instance inst. A TermExpr term belongs to the
// instance evaluating it, so the same expression in the two transaction
// instances yields two terms; a constant belongs to neither; a uuid() term
// is fresh per command instance. Expressions are one term when they are
// structurally equal (ast.HashExpr).
func keyTermOf(bit uint8, e ast.Expr, inst, cmd int) keyTerm {
	kind := TermExpr
	switch e.(type) {
	case *ast.IntLit, *ast.BoolLit, *ast.StringLit:
		kind, inst = TermConst, -1
	case *ast.UUID:
		kind = TermUUID
	}
	if kind != TermUUID {
		cmd = -1
	}
	d := ast.NewHasher().Uint(ast.HashExpr(e)).Uint(uint64(kind)).Uint(uint64(int8(inst))).Uint(uint64(int32(cmd))).Sum()
	return keyTerm{bit: bit, kind: uint8(kind), digest: d}
}

// termName renders the term of expression e pinning a key field of
// command cmd of instance inst as a Schedule names it: "ci5", "cbtrue" or
// "cs…" for a constant, "u<inst>_<cmd>" for a uuid(), "e<inst>_<expr>" for
// anything else.
func termName(e ast.Expr, inst, cmd int) string {
	switch x := e.(type) {
	case *ast.IntLit:
		return "ci" + strconv.FormatInt(x.Val, 10)
	case *ast.BoolLit:
		return "cb" + strconv.FormatBool(x.Val)
	case *ast.StringLit:
		return "cs" + x.Val
	case *ast.UUID:
		return "u" + strconv.Itoa(inst) + "_" + strconv.Itoa(cmd)
	default:
		return "e" + strconv.Itoa(inst) + "_" + ast.ExprString(x)
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
	if a.digest == b.digest {
		return eqTrue
	}
	if a.kind == uint8(TermUUID) || b.kind == uint8(TermUUID) {
		// uuid() values are globally fresh: unequal to every other value.
		return eqFalse
	}
	if a.kind == uint8(TermConst) && b.kind == uint8(TermConst) {
		return eqFalse // distinct digests ⇒ distinct constants
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
	if ins, ok := c.(*ast.Insert); ok {
		for _, a := range ins.Values {
			if isPK(a.Field) {
				visit(a.Field, a.Expr)
			}
		}
		return
	}
	eqs, _ := ast.CommandEqualities(c)
	for _, q := range eqs {
		if isPK(q.Field) {
			visit(q.Field, q.Expr)
		}
	}
}

// mustDiffer reports whether two commands on the same table can never
// access a common record: some primary-key field is pinned by both to
// definitely-unequal terms. Both constraints are in bit order, so one
// merge visits every field both pin.
func mustDiffer(a, b keyConstraint) bool {
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i].bit < b[j].bit:
			i++
		case a[i].bit > b[j].bit:
			j++
		default:
			if decideEq(a[i], b[j]) == eqFalse {
				return true
			}
			i, j = i+1, j+1
		}
	}
	return false
}
