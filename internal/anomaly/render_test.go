package anomaly

import (
	"strconv"

	"atropos/internal/ast"
)

// The string form of command facts: field names and key terms. Tests read
// command facts through these helpers, and termOf is the oracle key-term
// identity is checked against (TestFactsRenderToStrings).

// term is a key term in string form: equal ids denote equal runtime
// values. A TermExpr id includes the owning instance, so the same
// expression in the two transaction instances yields distinct terms.
type term struct {
	kind TermKind
	id   string
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
		// Identical expressions within one instance evaluate to the same
		// value (the DSL is deterministic given views).
		return term{kind: TermExpr, id: "e" + strconv.Itoa(inst) + "_" + ast.ExprString(e)}
	}
}

// decideStrEq is decideEq over string-form terms.
func decideStrEq(a, b term) eqStatus {
	switch {
	case a.id == b.id:
		return eqTrue
	case a.kind == TermUUID || b.kind == TermUUID, a.kind == TermConst && b.kind == TermConst:
		return eqFalse
	}
	return eqUnknown
}

type strKeyTerm struct {
	field string
	term  term
}

// strKey renders item x's key constraint, each term by its digest.
func (pe *pairPlan) strKey(x int) []strKeyTerm {
	l := pe.pass.layout(pe.item(x).table)
	var out []strKeyTerm
	for _, k := range pe.key(x) {
		out = append(out, strKeyTerm{l[k.bit], term{TermKind(k.kind), strconv.FormatUint(k.digest, 16)}})
	}
	return out
}

// digestNames names every key term of pe by its digest, as strKey does,
// for schedules checked against the SAT oracle's atoms.
func (pe *pairPlan) digestNames() map[uint64]string {
	names := map[uint64]string{}
	for x := range pe.n {
		for _, k := range pe.key(x) {
			names[k.digest] = strconv.FormatUint(k.digest, 16)
		}
	}
	return names
}

// tableName, readNames and writeNames render item x's table and its read
// and write sets (sorted).
func (pe *pairPlan) tableName(x int) string {
	return pe.pass.prog.Schemas[pe.item(x).table].Name
}

func (pe *pairPlan) readNames(x int) []string {
	it := pe.item(x)
	return pe.pass.layout(it.table).appendNames(nil, it.reads)
}

func (pe *pairPlan) writeNames(x int) []string {
	it := pe.item(x)
	return pe.pass.layout(it.table).appendNames(nil, it.writes)
}
