package ast

// This file defines the field-access views of database commands used by the
// anomaly detector (§3.2: access pairs are command × field-set pairs) and
// the where-clause well-formedness analysis required by the redirect rule
// (§4.2.1: φ must be a conjunction of equality constraints covering the
// primary key).

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

// CommandAccess computes the Access of a database command. schema may be
// nil when the command's table is unknown; SELECT * then yields no
// column reads (where-clause reads are still reported).
func CommandAccess(c DBCommand, schema *Schema) Access {
	switch x := c.(type) {
	case *Select:
		a := Access{Table: x.Table, Reads: WhereFields(x.Where)}
		if x.Star {
			if schema != nil {
				for _, f := range schema.Fields {
					a.Reads = appendUnique(a.Reads, f.Name)
				}
			}
		} else {
			for _, f := range x.Fields {
				a.Reads = appendUnique(a.Reads, f)
			}
		}
		return a
	case *Update:
		a := Access{Table: x.Table, Reads: WhereFields(x.Where)}
		for _, s := range x.Sets {
			a.Writes = appendUnique(a.Writes, s.Field)
		}
		return a
	case *Insert:
		a := Access{Table: x.Table}
		for _, s := range x.Values {
			a.Writes = appendUnique(a.Writes, s.Field)
		}
		a.Writes = appendUnique(a.Writes, AliveField)
		return a
	default:
		return Access{}
	}
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

// WellFormedWhere reports whether φ is well-formed with respect to schema
// (§4.2.1): a conjunction of equality constraints that covers every
// primary-key field of the schema. It returns the clause's equalities, in
// clause order.
func WellFormedWhere(e Expr, schema *Schema) (Pins, bool) {
	eqs, ok := WhereEqualities(e)
	if !ok {
		return nil, false
	}
	pins := Pins(eqs)
	for _, f := range schema.Fields {
		if f.PK && pins.Of(f.Name) == nil {
			return nil, false
		}
	}
	return pins, true
}
