package ast

// This file defines what the views of database commands (view.go) are
// built from: field accesses, used by the anomaly detector (§3.2: access
// pairs are command × field-set pairs), and the where-clause decomposition
// the redirect rule's well-formedness needs (§4.2.1: φ must be a
// conjunction of equality constraints covering the primary key).

import "slices"

// Access describes the fields a database command reads and writes within
// its table, relative to a schema (needed to resolve SELECT *).
type Access struct {
	Table string
	// Reads are fields read: where-clause fields plus selected fields.
	Reads []string
	// Writes are fields written by UPDATE/INSERT.
	Writes []string
}

func appendUnique(xs []string, x string) []string {
	for _, y := range xs {
		if y == x {
			return xs
		}
	}
	return append(xs, x)
}

// WhereEquality is one conjunct this.f = e of a well-formed where clause.
type WhereEquality struct {
	Field string
	Expr  Expr
}

// WhereEqualities decomposes φ into equality conjuncts if φ has the shape
// (this.f1 = e1) ∧ ... ∧ (this.fn = en) with no field repeated and no this.f
// on the right-hand side. ok is false for any other shape (disjunctions,
// inequalities, field-to-field comparisons).
func WhereEqualities(e Expr) (eqs []WhereEquality, ok bool) {
	if e == nil {
		return nil, false
	}
	var collect func(Expr) bool
	collect = func(x Expr) bool {
		b, isBin := x.(*Binary)
		if !isBin {
			return false
		}
		switch b.Op {
		case OpAnd:
			return collect(b.L) && collect(b.R)
		case OpEq:
			tf, isField := b.L.(*ThisField)
			if !isField || exprUsesThis(b.R) || slices.ContainsFunc(eqs, func(q WhereEquality) bool { return q.Field == tf.Field }) {
				return false
			}
			eqs = append(eqs, WhereEquality{Field: tf.Field, Expr: b.R})
			return true
		default:
			return false
		}
	}
	if !collect(e) {
		return nil, false
	}
	return eqs, true
}

func exprUsesThis(e Expr) bool {
	found := false
	WalkExpr(e, func(x Expr) bool {
		if _, ok := x.(*ThisField); ok {
			found = true
		}
		return !found
	})
	return found
}

// Pins are a where clause's equality conjuncts in clause order: the
// φ[f]exp mapping from constrained field to its pinning expression.
type Pins []WhereEquality

// Of returns the expression pinning field, nil if none does.
func (ps Pins) Of(field string) Expr {
	for _, q := range ps {
		if q.Field == field {
			return q.Expr
		}
	}
	return nil
}
