package anomaly

import (
	"context"

	"atropos/internal/ast"
)

type detector struct {
	// pass is the detection pass this detector works for: the program, the
	// model, and the per-transaction facts its plans are computed from.
	pass *pass
	// ctx carries the caller's deadline/cancellation, checked before every
	// cycle query.
	ctx context.Context
	// session memoizes decided cycle queries across detectors (and across
	// Detect calls). Nil only in the tests' cache-free reference detector.
	session *DetectSession
	issued  int // cycle-satisfiability queries asked
	solved  int // queries decided here (issued minus memo hits)
	// sm is the decision procedure's scratch, reused by every query.
	sm smallModel
}

// detectTxn finds the anomalous access pairs of the transaction planned
// by witnesses (pass.witnessesOf, in program order): for each pair of
// distinct commands (c1, c2), search over witness transactions and witness
// command pairs for a satisfiable dependency cycle.
func (d *detector) detectTxn(witnesses []*pairPlan) ([]AccessPair, error) {
	if len(witnesses) == 0 {
		return nil, nil
	}
	t := witnesses[0].t
	var found []AccessPair
	for i := range t.cmds {
		for j := i + 1; j < len(t.cmds); j++ {
			for _, pe := range witnesses {
				pair, ok, err := d.checkPairWitness(pe, i, j)
				if err != nil {
					return nil, err
				}
				if ok {
					found = append(found, pair)
					break
				}
			}
		}
	}
	return found, nil
}

// checkPairWitness searches pe's witness transaction for a satisfiable
// dependency cycle through commands i and j of its transaction under
// test, walking the plan's candidates: d1 ranges over the witness commands
// i can share an edge with, d2 over j's.
func (d *detector) checkPairWitness(pe *pairPlan, c1, c2 int) (AccessPair, bool, error) {
	for _, d1 := range pe.cand[c1] {
		for _, d2 := range pe.cand[c2] {
			// Orientation 1: A.c1 → B.d1, B.d2 → A.c2; orientation 2:
			// B.d1 → A.c1, A.c2 → B.d2.
			for _, q := range [2][4]int{{c1, d1, d2, c2}, {d1, c1, c2, d2}} {
				r, err := d.solveCycle(pe, q)
				if err != nil {
					return AccessPair{}, false, err
				}
				if r.Sat {
					return pe.buildPair(c1, c2, d1, d2, r), true, nil
				}
			}
		}
	}
	return AccessPair{}, false, nil
}

// cycleResult is the complete outcome of one cycle-satisfiability query:
// the verdict plus the witnessing edge kinds and fields of its canonical
// model (smallmodel.go).
type cycleResult struct {
	Sat          bool
	Kind1, Kind2 EdgeKind
	Flds1, Flds2 []string
}

// solveCycle answers one dep(q[0]→q[1]) ∧ dep(q[2]→q[3]) query, through the
// session's memo when one is attached. The answer is a function of the
// plan's content and the query alone, so any pair with equal content
// (pairPlan.contentKey) shares it.
func (d *detector) solveCycle(pe *pairPlan, q [4]int) (cycleResult, error) {
	if err := d.ctx.Err(); err != nil {
		return cycleResult{}, err
	}
	d.issued++
	if d.session == nil {
		d.solved++
		return d.sm.decide(pe, d.pass.model, q), nil
	}
	key := memoKey{pe.contentKey(), [4]int32{int32(q[0]), int32(q[1]), int32(q[2]), int32(q[3])}}
	if r, ok := d.session.lookupQuery(key); ok {
		return r, nil
	}
	d.solved++
	r := d.sm.decide(pe, d.pass.model, q)
	d.session.storeQuery(key, r)
	return r, nil
}

// pairPlan is the plan of one (T, T') transaction pair: T as instance A
// under test, T' as the witness instance B. Commands are addressed by item
// index: A's commands in program order, then B's.
type pairPlan struct {
	t, w  *txnFacts
	nA, n int
	// cand[a] lists the items of B command a of A can share a dependency
	// edge with (planPair).
	cand [][]int
	// content is contentKey's memo, 0 until first computed.
	content uint64
}

// item returns the facts of item x; inst the instance (0 = A, 1 = B) it
// belongs to.
func (pe *pairPlan) item(x int) *cmdFacts {
	if x < pe.nA {
		return &pe.t.cmds[x]
	}
	return &pe.w.cmds[x-pe.nA]
}

func (pe *pairPlan) inst(x int) int {
	if x < pe.nA {
		return 0
	}
	return 1
}

func (pe *pairPlan) key(x int) keyConstraint { return pe.item(x).key[pe.inst(x)] }

// buildPair assembles the reported access pair from a cycle query's
// outcome.
func (pe *pairPlan) buildPair(c1, c2, d1, d2 int, r cycleResult) AccessPair {
	x1, x2 := pe.item(c1), pe.item(c2)
	// Report the fields belonging to c1 and c2 respectively.
	return AccessPair{
		Txn: pe.t.name,
		C1:  x1.label, F1: r.Flds1,
		C2: x2.label, F2: r.Flds2,
		Kind:    classify(x1.cmd, x2.cmd, r.Flds1, r.Flds2),
		Witness: Witness{Txn: pe.w.name, D1: pe.item(d1).label, D2: pe.item(d2).label, Edge1: r.Kind1, Edge2: r.Kind2},
	}
}

// classify names the anomaly per the Fig. 2 taxonomy.
func classify(c1, c2 ast.DBCommand, f1, f2 []string) Kind {
	_, c1Sel := c1.(*ast.Select)
	_, c2Sel := c2.(*ast.Select)
	switch {
	case c1Sel && c2Sel:
		return KindNonRepeatableRead
	case !c1Sel && !c2Sel:
		return KindDirtyRead
	default:
		for _, a := range f1 {
			for _, b := range f2 {
				if a == b {
					return KindLostUpdate
				}
			}
		}
		return KindWriteSkew
	}
}
