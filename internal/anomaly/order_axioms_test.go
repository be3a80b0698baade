package anomaly

import "atropos/internal/logic"

// This file grounds the order relations of the SAT oracle's pair encoding
// (satoracle_test.go). The bounded encoding instantiates exactly two
// transaction instances — items [0, nA) are A's commands, [nA, n) are B's,
// each in program order — and that structure collapses the generic O(n³)
// order axioms to O(n²) binary clauses with no auxiliary variables. An
// encoding over three or more instances would need the generic axioms
// (logic.AssertStrictTotalOrderS / AssertTransitiveS) back.

// orderAxioms grounds ord and, under CC, co over an n×n relation whose
// first nA rows/columns are instance A: mergeOrder, or the generic cubic
// axiomatization it is checked against (oracle_test.go).
type orderAxioms struct {
	ord, co func(e *logic.Encoder, nA int, r rel)
}

var mergeOrder = orderAxioms{ord: assertMergeOrder, co: assertMergeCausal}

// implies asserts a → b as the single clause (¬a ∨ b).
func implies(e *logic.Encoder, a, b logic.Sym) {
	e.AssertClauseS(logic.Neg(a), logic.Pos(b))
}

// iff asserts a ↔ b as its two implications.
func iff(e *logic.Encoder, a, b logic.Sym) {
	implies(e, a, b)
	implies(e, b, a)
}

// assertMergeOrder axiomatizes ord as a strict total order that extends
// both instances' program orders — a merge of the two command sequences.
// Same-instance pairs are constants. Each cross pair is ordered exactly one
// way. Transitivity: a tournament is acyclic iff it has no 3-cycle; a
// 3-cycle among three commands of two instances contains a same-instance
// leg, which program order fixes, so the only cycles left to forbid are
// a → a' → b → a and a → b → b' → a (a before a' in A, b before b' in B):
// "a' precedes b implies a precedes b" and "a precedes b implies a
// precedes b'". Stated for adjacent a' = a+1 and b' = b+1 they chain to
// every distance: 2·nA·nB binary clauses.
func assertMergeOrder(e *logic.Encoder, nA int, ord rel) {
	n := ord.n
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if (i < nA) == (j < nA) {
				e.AssertClauseS(logic.Pos(ord.at(i, j)))
				e.AssertClauseS(logic.Neg(ord.at(j, i)))
			}
		}
	}
	for a := 0; a < nA; a++ {
		for b := nA; b < n; b++ {
			e.AssertClauseS(logic.Pos(ord.at(a, b)), logic.Pos(ord.at(b, a)))
			e.AssertClauseS(logic.Neg(ord.at(a, b)), logic.Neg(ord.at(b, a)))
			if a+1 < nA {
				implies(e, ord.at(a+1, b), ord.at(a, b))
			}
			if b+1 < n {
				implies(e, ord.at(a, b), ord.at(a, b+1))
			}
		}
	}
}

// assertMergeCausal closes co transitively, given that the caller asserts
// program-order co units and co ⊆ ord over a merge order. Of the
// transitivity instances over two commands x before x' of one instance and
// one command y of the other, those concluding co(x, x') hold by the unit,
// those assuming co(x', x) are vacuous (co ⊆ ord refutes it), and
// co(x', y) ∧ co(y, x) → co(x', x) is implied: the first step below gives
// co(x, y), and co ⊆ ord cannot order x and y both ways. What remains is
// co(x', y) → co(x, y) and co(y, x) → co(y, x'), for adjacent x' = x+1,
// with x in either instance: 4·nA·nB binary clauses.
func assertMergeCausal(e *logic.Encoder, nA int, co rel) {
	n := co.n
	for a := 0; a < nA; a++ {
		for b := nA; b < n; b++ {
			if a+1 < nA {
				implies(e, co.at(a+1, b), co.at(a, b))
				implies(e, co.at(b, a), co.at(b, a+1))
			}
			if b+1 < n {
				implies(e, co.at(b+1, a), co.at(b, a))
				implies(e, co.at(a, b), co.at(a, b+1))
			}
		}
	}
}
