package anomaly

import (
	"slices"

	"atropos/internal/ast"
)

// This file defines witness schedules: the canonical model of a reported
// pair's cycle query, extended to every command of both instances — the ord
// total order, the vis relation, and the aliasing equalities — and
// packaged as a Schedule. A Schedule is everything internal/replay needs
// to lower the static witness into a concrete directed run of the cluster
// simulator: which command executes when, which write batches each
// command's local view contains, and which symbolic key terms must
// coincide for the dependency edges to touch a common record.
//
// Detection does not build schedules. WitnessSchedules rebuilds them from
// a report after the fact: a query's answer is a function of its plan's
// content and the query alone, so re-deciding the reported pair's query
// on the program it was detected on yields the model detection found.

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

// WitnessSchedules rebuilds the witness schedule of each of rep's pairs,
// in order, on prog, the program rep was detected on. For each pair it
// re-plans (Txn, Witness.Txn) and re-decides the reported commands' query,
// orientation 1 first as detection asks them; facts and plans are shared
// across the report's pairs. A pair prog does not witness — its
// transactions or commands are missing, or its cycle is unsatisfiable —
// gets nil.
func WitnessSchedules(prog *ast.Program, rep *Report) []*Schedule {
	p := newPass(prog, rep.Model)
	type planned struct {
		pe    *pairPlan
		items []SchedItem
	}
	plans := map[[2]int]*planned{}
	var sm smallModel
	out := make([]*Schedule, len(rep.Pairs))
	for i, pair := range rep.Pairs {
		ti := slices.IndexFunc(prog.Txns, func(t *ast.Txn) bool { return t.Name == pair.Txn })
		wi := slices.IndexFunc(prog.Txns, func(t *ast.Txn) bool { return t.Name == pair.Witness.Txn })
		if ti < 0 || wi < 0 {
			continue
		}
		pl := plans[[2]int{ti, wi}]
		if pl == nil {
			tf, terr := p.txnFacts(ti)
			wf, werr := p.txnFacts(wi)
			if terr != nil || werr != nil {
				continue
			}
			pe := planPair(tf, wf)
			pl = &planned{pe, p.schedItems(pe)}
			plans[[2]int{ti, wi}] = pl
		}
		pe := pl.pe
		c1, c2 := pe.t.index(pair.C1), pe.t.index(pair.C2)
		d1, d2 := pe.w.index(pair.Witness.D1), pe.w.index(pair.Witness.D2)
		if c1 < 0 || c2 < 0 || d1 < 0 || d2 < 0 {
			continue
		}
		d1, d2 = pe.nA+d1, pe.nA+d2
		for _, q := range [2][4]int{{c1, d1, d2, c2}, {d1, c1, c2, d2}} {
			if sm.decide(pe, rep.Model, q).Sat {
				out[i] = sm.schedule(pl.items)
				break
			}
		}
	}
	return out
}

// schedItems lists the pair's command instances as a Schedule names them,
// each with the key pins the replayer evaluates.
func (p *pass) schedItems(pe *pairPlan) []SchedItem {
	items := make([]SchedItem, pe.n)
	for x := range items {
		it, inst := pe.item(x), pe.inst(x)
		idx := x - inst*pe.nA
		var pins []KeyPin
		pkPins(it.cmd, p.prog.Schema(it.table), func(field string, e ast.Expr) {
			tm := termOf(e, inst, idx)
			pins = append(pins, KeyPin{Field: field, Term: tm.id, Kind: tm.kind, Expr: e})
		})
		items[x] = SchedItem{Inst: inst, Idx: idx, Label: it.label, Table: it.table, Pins: pins}
	}
	return items
}
