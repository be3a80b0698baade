package anomaly

import (
	"iter"
	"strconv"
	"strings"

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

// term is a symbolic primary-key constraint value. A TermExpr is an
// argument or arbitrary expression: its value is chosen by the execution.
type term struct {
	kind TermKind
	// id is the canonical identity: equal ids denote equal runtime values.
	// For TermExpr it includes the owning instance so the same expression
	// in different transaction instances yields distinct terms.
	id string
}

// termOf abstracts the expression pinning a primary-key field. inst
// distinguishes the two transaction instances; cmdIdx makes uuid() terms
// unique per command instance.
func termOf(e ast.Expr, inst, cmdIdx int) term {
	switch x := e.(type) {
	case *ast.IntLit:
		return term{kind: TermConst, id: "ci" + strconv.FormatInt(x.Val, 10)}
	case *ast.BoolLit:
		return term{kind: TermConst, id: "cb" + strconv.FormatBool(x.Val)}
	case *ast.StringLit:
		return term{kind: TermConst, id: "cs" + x.Val}
	case *ast.UUID:
		return term{kind: TermUUID, id: "u" + strconv.Itoa(inst) + "_" + strconv.Itoa(cmdIdx)}
	default:
		// Arguments, at-accesses, arithmetic: identical expressions within
		// one instance evaluate to the same value (the DSL is deterministic
		// given views), so canonicalize by printed form + instance.
		return term{kind: TermExpr, id: "e" + strconv.Itoa(inst) + "_" + ast.ExprString(e)}
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
func decideEq(a, b term) eqStatus {
	if a.id == b.id {
		return eqTrue
	}
	if a.kind == TermUUID || b.kind == TermUUID {
		// uuid() values are globally fresh: unequal to every other value.
		return eqFalse
	}
	if a.kind == TermConst && b.kind == TermConst {
		return eqFalse // distinct ids ⇒ distinct constants
	}
	return eqUnknown
}

// keyConstraint lists the primary-key fields of a table a command pins,
// sorted by field name, with the term pinning each; unconstrained fields
// are absent (the command may range over that dimension).
type keyConstraint []keyTerm

type keyTerm struct {
	field string
	term  term
}

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

// pin records that field is pinned to tm; a field pinned twice keeps its
// last pin.
func (kc keyConstraint) pin(field string, tm term) keyConstraint {
	for i := range kc {
		if kc[i].field == field {
			kc[i].term = tm
			return kc
		}
	}
	return append(kc, keyTerm{field, tm})
}

// commonFields yields the positions (i in a, j in b) of every field both
// constraints pin.
func commonFields(a, b keyConstraint) iter.Seq2[int, int] {
	return func(yield func(int, int) bool) {
		for i, j := 0, 0; i < len(a) && j < len(b); {
			switch c := strings.Compare(a[i].field, b[j].field); {
			case c < 0:
				i++
			case c > 0:
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
		if decideEq(a[i].term, b[j].term) == eqFalse {
			return true
		}
	}
	return false
}
