package anomaly

import (
	"slices"

	"atropos/internal/ast"
	"atropos/internal/logic"
)

// This file implements witness-schedule extraction: when a session opts in
// (DetectSession.RecordWitnesses), every satisfiable cycle query
// additionally reads the full satisfying model back off the solver — the
// ord total order, the vis relation, and the free aliasing-equality atoms —
// and packages it as a Schedule on the reported pair's Witness.
// A Schedule is everything internal/replay needs to lower the static
// witness into a concrete directed run of the cluster simulator: which
// command executes when, which write batches each command's local view
// contains, and which symbolic key terms must coincide for the dependency
// edges to touch a common record.
//
// Recording is strictly additive: it changes no interned proposition, no
// assertion, and no solve call, so encodings, reports, and the session's
// cache keys are byte-identical with recording on or off (the cached
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

// SchedItem is one command instance of the two-transaction encoding, in the
// detector's global numbering (A's commands then B's).
type SchedItem struct {
	Inst  int    // 0 = the anomalous transaction A, 1 = the witness B
	Idx   int    // static command index within its transaction
	Label string // command label (S1, U2, ...)
	Table string
	Pins  []KeyPin
}

// EqAtom is the model valuation of one free aliasing-equality atom of a
// (table, field) sort: whether terms A and B denote the same value in the
// witnessing execution.
type EqAtom struct {
	Table string
	Field string
	A, B  string // canonical term ids, A < B
	Equal bool
}

// EdgeField is one per-field dependency-edge proposition true in the model.
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

// Schedule is the executable witness read off a satisfying cycle model.
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
	// Eqs are the model valuations of every free aliasing-equality atom.
	Eqs []EqAtom
	// Edge1, Edge2 are the two dependency edges of the witnessing cycle.
	Edge1, Edge2 SchedEdge
}

// ItemAt maps a global item index to its (instance, static command index).
func (s *Schedule) ItemAt(g int) (inst, idx int) {
	it := s.Items[g]
	return it.Inst, it.Idx
}

// eqAtomProp records, for one free equality proposition, the sort and term
// pair behind it — only populated when the encoder records witnesses.
type eqAtomProp struct {
	sym          logic.Sym
	table, field string
	a, b         string
}

// schedItems lists the pair's command instances as a Schedule names them.
func (pe *pairEncoder) schedItems() []SchedItem {
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
// equalities, edges — is shared: the cache key pins the producer to an
// identical encoding. The transactions and commands it names are the
// producer's, which on a query-cache hit may be another, identically
// encoded pair (or an earlier version of this one), and a replayer must run
// the pair the report names. A schedule that already names this pair — the
// encoder's own solve, or a warm re-detection of an unchanged pair — is
// returned as it is.
func (pe *pairEncoder) adoptSchedule(s *Schedule) *Schedule {
	if s == nil || pe.addressedBy(s) {
		return s
	}
	c := *s
	c.TxnA, c.TxnB, c.NA, c.Items = pe.t.name, pe.w.name, pe.nA, pe.schedItems()
	return &c
}

// addressedBy reports whether s names exactly this encoder's transactions
// and command instances.
func (pe *pairEncoder) addressedBy(s *Schedule) bool {
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

// buildSchedule reads the current satisfying model back into a Schedule.
// It must be called immediately after the satisfiable SolveAssuming, before
// any further solve on this encoder.
func (pe *pairEncoder) buildSchedule(from1, to1, from2, to2 int) *Schedule {
	n := pe.n
	s := &Schedule{TxnA: pe.t.name, TxnB: pe.w.name, NA: pe.nA, Items: pe.schedItems()}
	// ord is a strict total order, so each item's position is its number of
	// predecessors in the model.
	s.Order = make([]int, n)
	for i := 0; i < n; i++ {
		pos := 0
		for j := 0; j < n; j++ {
			if j != i && pe.enc.ValueS(pe.ord.at(j, i)) {
				pos++
			}
		}
		s.Order[pos] = i
	}
	s.Vis = make([][]bool, n)
	for i := 0; i < n; i++ {
		s.Vis[i] = make([]bool, n)
		if !pe.item(i).writer() {
			continue
		}
		for j := 0; j < n; j++ {
			if pe.inst(j) != pe.inst(i) {
				s.Vis[i][j] = pe.enc.ValueS(pe.vis.at(i, j))
			}
		}
	}
	for _, ea := range pe.eqAtoms {
		s.Eqs = append(s.Eqs, EqAtom{Table: ea.table, Field: ea.field, A: ea.a, B: ea.b, Equal: pe.enc.ValueS(ea.sym)})
	}
	s.Edge1 = pe.modelSchedEdge(from1, to1)
	s.Edge2 = pe.modelSchedEdge(from2, to2)
	return s
}

// modelSchedEdge reads the directed edge (x → y) with its per-field kinds
// off the current model.
func (pe *pairEncoder) modelSchedEdge(x, y int) SchedEdge {
	e := SchedEdge{From: x, To: y}
	for _, ep := range pe.edgesOf(x, y) {
		if pe.enc.ValueS(ep.sym) {
			e.Kind = ep.kind
			e.Fields = append(e.Fields, EdgeField{Field: ep.field, Kind: ep.kind})
		}
	}
	return e
}
