package anomaly

import (
	"slices"

	"atropos/internal/ast"
)

// This file defines witness schedules: when a session opts in
// (DetectSession.RecordWitnesses), every satisfiable cycle query also
// extends its canonical model to every command of both instances — the ord
// total order, the vis relation, and the aliasing equalities — and
// packages it as a Schedule on the reported pair's Witness.
// A Schedule is everything internal/replay needs to lower the static
// witness into a concrete directed run of the cluster simulator: which
// command executes when, which write batches each command's local view
// contains, and which symbolic key terms must coincide for the dependency
// edges to touch a common record.
//
// Recording is strictly additive: verdicts, reported pairs, and the
// session's memo keys are identical with recording on or off (the memoized
// cycleResult simply carries the extra Schedule pointer).

// TermKind is the exported classification of a symbolic primary-key term
// (see terms.go): a literal constant, a globally fresh uuid(), or an
// execution-dependent expression.
type TermKind int

// Term kinds.
const (
	TermConst TermKind = iota
	TermUUID
	TermExpr
)

// KeyPin records that a command pins one primary-key field of its table to
// a symbolic term. Expr is the pinning expression from the program text —
// the replayer evaluates or inverts it to make the model's aliasing
// equalities hold concretely.
type KeyPin struct {
	Field string
	Term  string // canonical term id; equal ids denote equal runtime values
	Kind  TermKind
	Expr  ast.Expr
}

// SchedItem is one command instance of the two-transaction execution, in
// the detector's global numbering (A's commands then B's).
type SchedItem struct {
	Inst  int    // 0 = the anomalous transaction A, 1 = the witness B
	Idx   int    // static command index within its transaction
	Label string // command label (S1, U2, ...)
	Table string
	Pins  []KeyPin
}

// EqAtom is the model valuation of one aliasing equality of a (table,
// field) sort whose truth is execution-dependent: whether terms A and B
// denote the same value in the witnessing execution.
type EqAtom struct {
	Table string
	Field string
	A, B  string // canonical term ids, A < B
	Equal bool
}

// EdgeField is one per-field dependency edge true in the model.
type EdgeField struct {
	Field string
	Kind  EdgeKind
}

// SchedEdge is one of the two directed dependency edges of the witnessing
// cycle, with the global item indices it connects. Orientation matters:
// the cycle may traverse A.c1 → B.d1 or B.d1 → A.c1 depending on which
// query was satisfiable, and the replayer must reproduce the actual
// direction, not the reported (c1, c2) pair order.
type SchedEdge struct {
	From, To int
	Kind     EdgeKind
	Fields   []EdgeField
}

// Schedule is the executable witness: a cycle query's canonical model.
type Schedule struct {
	TxnA, TxnB string // instance 0 / instance 1 transaction names
	NA         int    // instance 0's command count; items NA.. belong to B
	Items      []SchedItem
	// Order lists the global item indices sorted by the model's ord
	// relation: Order[k] executes k-th.
	Order []int
	// Vis[x][y] reports whether writer x's batch is in y's local view
	// (meaningful for cross-instance writer pairs; false elsewhere).
	Vis [][]bool
	// Eqs value every execution-dependent equality between the key terms
	// the cycle's two edges equate, sorted; equalities between terms not
	// listed are false.
	Eqs []EqAtom
	// Edge1, Edge2 are the two dependency edges of the witnessing cycle.
	Edge1, Edge2 SchedEdge
}

// ItemAt maps a global item index to its (instance, static command index).
func (s *Schedule) ItemAt(g int) (inst, idx int) {
	it := s.Items[g]
	return it.Inst, it.Idx
}

// schedItems lists the pair's command instances as a Schedule names them.
func (pe *pairPlan) schedItems() []SchedItem {
	items := make([]SchedItem, pe.n)
	for x := range items {
		it, inst := pe.item(x), pe.inst(x)
		items[x] = SchedItem{
			Inst: inst, Idx: x - inst*pe.nA, Label: it.label, Table: it.table, Pins: it.pins[inst],
		}
	}
	return items
}

// adoptSchedule re-addresses a cycle result's schedule to this encoder's
// pair, where the pair is reported. The model part — order, visibility,
// equalities, edges — is shared: the memo key pins the producer to a pair
// of identical content. The transactions and commands it names are the
// producer's, which on a memo hit may be another, identically shaped pair
// (or an earlier version of this one), and a replayer must run the pair the
// report names. A schedule that already names this pair — its own
// decision, or a warm re-detection of an unchanged pair — is returned as
// it is.
func (pe *pairPlan) adoptSchedule(s *Schedule) *Schedule {
	if s == nil || pe.addressedBy(s) {
		return s
	}
	c := *s
	c.TxnA, c.TxnB, c.NA, c.Items = pe.t.name, pe.w.name, pe.nA, pe.schedItems()
	return &c
}

// addressedBy reports whether s names exactly this plan's transactions and
// command instances.
func (pe *pairPlan) addressedBy(s *Schedule) bool {
	if s.TxnA != pe.t.name || s.TxnB != pe.w.name || s.NA != pe.nA || len(s.Items) != pe.n {
		return false
	}
	for x, have := range s.Items {
		it, inst := pe.item(x), pe.inst(x)
		if have.Label != it.label || have.Table != it.table || !slices.Equal(have.Pins, it.pins[inst]) {
			return false
		}
	}
	return true
}
